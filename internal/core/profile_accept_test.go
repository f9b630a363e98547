// Package core_test holds the end-to-end leak-attribution acceptance test.
// It lives in the external test package deliberately: the profiler trims
// poseidon-internal frames from symbolized stacks, so allocation sites must
// sit outside package core for their frames to appear in profiles — the
// same view a real application gets.
package core_test

import (
	"strings"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

func acceptOptions() core.Options {
	return core.Options{
		Subheaps:        2,
		SubheapUserSize: 1 << 20,
		SubheapMetaSize: 256 << 10,
		UndoLogSize:     64 << 10,
		MaxThreads:      8,
		HeapID:          0xACC,
		CrashTracking:   true,
		Telemetry:       obs.New(),
		Profile:         core.ProfileOptions{Rate: 1}, // sample everything
	}
}

// leakSiteA and leakSiteB are the two distinct allocation sites under test.
// noinline keeps each an honest stack frame.
//
//go:noinline
func leakSiteA(t *testing.T, th *core.Thread, n int) []core.NVMPtr {
	t.Helper()
	var out []core.NVMPtr
	for i := 0; i < n; i++ {
		p, err := th.Alloc(100) // charged at the 128 B class
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

//go:noinline
func leakSiteB(t *testing.T, th *core.Thread, n int) []core.NVMPtr {
	t.Helper()
	var out []core.NVMPtr
	for i := 0; i < n; i++ {
		p, err := th.Alloc(2000) // charged at the 2048 B class
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func siteNamed(t *testing.T, sites []obs.SiteStat, fn string) obs.SiteStat {
	t.Helper()
	for _, s := range sites {
		for _, f := range s.Frames {
			if strings.Contains(f.Func, fn) {
				return s
			}
		}
	}
	t.Fatalf("no site with frame %q among %d sites", fn, len(sites))
	return obs.SiteStat{}
}

// TestLeakAttributionSurvivesCrash is the issue's acceptance test: leak from
// two distinct sites, crash, reload, and assert both sites come back with
// correct byte counts and show up in the pre-epoch leak report.
func TestLeakAttributionSurvivesCrash(t *testing.T) {
	h, err := core.Create(acceptOptions())
	if err != nil {
		t.Fatal(err)
	}
	th, err := h.Thread()
	if err != nil {
		t.Fatal(err)
	}
	aPtrs := leakSiteA(t, th, 5)  // 5 × 128 B
	bPtrs := leakSiteB(t, th, 4)  // 4 × 2048 B
	for _, p := range aPtrs[:2] { // site A leaks only 3
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	th.Close()
	if err := h.PersistProfile(); err != nil {
		t.Fatalf("PersistProfile: %v", err)
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}

	h2, err := core.Load(h.Device(), acceptOptions())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if h2.ProfileEpoch() != 2 {
		t.Fatalf("epoch after restart = %d, want 2", h2.ProfileEpoch())
	}
	prof := h2.Telemetry().Profiler()
	sites := prof.Sites()

	a := siteNamed(t, sites, "leakSiteA")
	if a.LiveObjects != 3 || a.LiveBytes != 3*128 {
		t.Fatalf("site A live = %d objects / %d bytes, want 3 / %d", a.LiveObjects, a.LiveBytes, 3*128)
	}
	if a.AllocObjects != 5 || a.AllocBytes != 5*128 || a.FreeObjects != 2 {
		t.Fatalf("site A cumulative = %+v", a)
	}
	if !a.Recovered || a.FirstEpoch != 1 {
		t.Fatalf("site A recovered=%v firstEpoch=%d, want true/1", a.Recovered, a.FirstEpoch)
	}
	b := siteNamed(t, sites, "leakSiteB")
	if b.LiveObjects != 4 || b.LiveBytes != 4*2048 {
		t.Fatalf("site B live = %d objects / %d bytes, want 4 / %d", b.LiveObjects, b.LiveBytes, 4*2048)
	}

	// The leak report: blocks live since before the current epoch, by site.
	leaks := prof.LeakSites(h2.ProfileEpoch())
	if len(leaks) != 2 {
		t.Fatalf("leak report names %d sites, want 2", len(leaks))
	}
	siteNamed(t, leaks, "leakSiteA")
	siteNamed(t, leaks, "leakSiteB")

	// The recovered profile renders as valid pprof with correct values.
	gz, err := h2.ProfilePprof()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := obs.ParsePprof(gz)
	if err != nil {
		t.Fatalf("ParsePprof: %v", err)
	}
	var aSample *obs.PprofSample
	for i, s := range pp.Samples {
		for _, f := range s.Frames {
			if strings.Contains(f.Func, "leakSiteA") {
				aSample = &pp.Samples[i]
			}
		}
	}
	if aSample == nil {
		t.Fatal("pprof profile lost site A")
	}
	// Rate 1: values unscaled. inuse_objects, inuse_space, alloc_objects,
	// alloc_space.
	if aSample.Values[0] != 3 || aSample.Values[1] != 3*128 ||
		aSample.Values[2] != 5 || aSample.Values[3] != 5*128 {
		t.Fatalf("site A pprof values = %v", aSample.Values)
	}
	if aSample.Labels["recovered"] != "true" || aSample.NumLabels["first_epoch"] != 1 {
		t.Fatalf("site A pprof labels = %v / %v", aSample.Labels, aSample.NumLabels)
	}

	// The blocks themselves survived too — freeing the leaked pointers
	// works, proving profile attribution matched real heap state.
	th2, err := h2.Thread()
	if err != nil {
		t.Fatal(err)
	}
	defer th2.Close()
	for _, p := range append(aPtrs[2:], bPtrs...) {
		if err := th2.Free(p); err != nil {
			t.Fatalf("leaked block unfreeable after restart: %v", err)
		}
	}
}
