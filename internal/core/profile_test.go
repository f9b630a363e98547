package core

// In-package tests for the persistent profile side-table (crash sweeps,
// torn-table detection, off-path cost) and the op-span tracer hooks. The
// end-to-end two-site leak attribution test lives in profile_accept_test.go
// (package core_test): the profiler trims core-internal frames from
// symbolized stacks, so distinct call sites must live outside this package.

import (
	"encoding/json"
	"testing"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
)

// profOptions is testOptions plus telemetry with allocation-site sampling
// and span tracing at the given 1-in-N rates.
func profOptions(profRate, traceRate int) Options {
	o := testOptions()
	o.Telemetry = obs.New()
	o.Profile = ProfileOptions{Rate: profRate}
	o.Trace = TraceOptions{Rate: traceRate, Buffer: 256}
	return o
}

func newProfHeap(t *testing.T, profRate, traceRate int) *Heap {
	t.Helper()
	h, err := Create(profOptions(profRate, traceRate))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return h
}

// liveProfileBytes sums live bytes across every tracked site.
func liveProfileBytes(h *Heap) int64 {
	var total int64
	for _, s := range h.Telemetry().Profiler().Sites() {
		total += s.LiveBytes
	}
	return total
}

// requireServiceable asserts the heap is fully in service: healthy state, no
// quarantined sub-heap, and allocation still works.
func requireServiceable(t *testing.T, h *Heap) {
	t.Helper()
	if hs := h.Health(); hs != StateHealthy {
		t.Fatalf("health = %v, want healthy", hs)
	}
	for _, sg := range h.Metrics().Subheaps {
		if sg.Quarantined {
			t.Fatalf("sub-heap %d quarantined: %s", sg.ID, sg.QuarantineReason)
		}
	}
	th, err := h.Thread()
	if err != nil {
		t.Fatalf("Thread: %v", err)
	}
	defer th.Close()
	p, err := th.Alloc(64)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := th.Free(p); err != nil {
		t.Fatalf("Free: %v", err)
	}
}

func TestProfilePersistAndRecover(t *testing.T) {
	h := newProfHeap(t, 1, 0)
	th := newThread(t, h)
	var ptrs []NVMPtr
	for i := 0; i < 5; i++ {
		p, err := th.Alloc(100) // charges the 128 B class
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs[:2] {
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	th.Close()
	if h.ProfileEpoch() != 1 {
		t.Fatalf("fresh epoch = %d", h.ProfileEpoch())
	}
	if err := h.PersistProfile(); err != nil {
		t.Fatalf("PersistProfile: %v", err)
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	h2, err := Load(h.Device(), profOptions(1, 0))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if h2.ProfileEpoch() != 2 {
		t.Fatalf("epoch after restart = %d, want 2", h2.ProfileEpoch())
	}
	prof := h2.Telemetry().Profiler()
	sites := prof.Sites()
	if len(sites) == 0 {
		t.Fatal("no sites recovered from the side-table")
	}
	for _, s := range sites {
		if !s.Recovered || s.FirstEpoch != 1 {
			t.Fatalf("site %x recovered=%v firstEpoch=%d", s.Hash, s.Recovered, s.FirstEpoch)
		}
	}
	if got := liveProfileBytes(h2); got != 3*128 {
		t.Fatalf("recovered live bytes = %d, want %d", got, 3*128)
	}
	// The leak report names the pre-crash survivors.
	var leaked int64
	for _, s := range prof.LeakSites(h2.ProfileEpoch()) {
		leaked += s.LiveBytes
	}
	if leaked != 3*128 {
		t.Fatalf("leak-site bytes = %d, want %d", leaked, 3*128)
	}
	if h2.Telemetry().Snapshot().Events.ByKind["profile_reset"] != 0 {
		t.Fatal("clean recovery emitted a profile reset")
	}
	requireServiceable(t, h2)
	auditHeap(t, h2)
}

func TestProfileEpochAdvancesEachBoot(t *testing.T) {
	h := newProfHeap(t, 1, 0)
	th := newThread(t, h)
	if _, err := th.Alloc(64); err != nil {
		t.Fatal(err)
	}
	th.Close()
	for boot := 2; boot <= 4; boot++ {
		if err := h.PersistProfile(); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
			t.Fatal(err)
		}
		h2, err := Load(h.Device(), profOptions(1, 0))
		if err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		if got := h2.ProfileEpoch(); got != uint64(boot) {
			t.Fatalf("boot %d: epoch = %d", boot, got)
		}
		if got := h2.Telemetry().Profiler().Epoch(); got != uint64(boot) {
			t.Fatalf("boot %d: profiler epoch = %d", boot, got)
		}
		h = h2
	}
}

// sweepWorkload builds a heap with a gen-1 snapshot (3 live 128 B blocks)
// persisted and 2 more sampled blocks not yet persisted (gen-2 material).
func sweepWorkload(t *testing.T) *Heap {
	t.Helper()
	h := newProfHeap(t, 1, 0)
	th := newThread(t, h)
	for i := 0; i < 3; i++ {
		if _, err := th.Alloc(100); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.PersistProfile(); err != nil {
		t.Fatalf("gen-1 persist: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := th.Alloc(100); err != nil {
			t.Fatal(err)
		}
	}
	th.Close()
	return h
}

// TestProfileCrashMidPersistSweep stops a snapshot write at EVERY interior
// device operation, crashes losing every unflushed cacheline, and reloads. The
// invariant under test is the A/B slot discipline: an interrupted write
// costs at most the generation being written — the previous snapshot is
// adopted intact, the profile is never detected torn, and the heap is never
// degraded by profile damage.
func TestProfileCrashMidPersistSweep(t *testing.T) {
	// Measure how many mutating device ops one snapshot write issues.
	ref := sweepWorkload(t)
	ref.Device().FailAfter(1 << 40)
	if err := ref.PersistProfile(); err != nil {
		t.Fatalf("reference persist: %v", err)
	}
	persistOps := int64(1<<40) - ref.Device().FailBudgetRemaining()
	ref.Device().DisarmFailpoint()
	if persistOps < 2 {
		t.Fatalf("persist issued only %d device ops", persistOps)
	}

	for n := int64(0); n <= persistOps; n++ {
		h := sweepWorkload(t)
		dev := h.Device()
		dev.FailAfter(n)
		perr := h.PersistProfile()
		dev.DisarmFailpoint()
		if (perr == nil) != (n >= persistOps) {
			t.Fatalf("budget %d: persist err = %v", n, perr)
		}
		// EvictNone drops every unflushed line — the adversarial case for an
		// interrupted snapshot (an unflushed new header must not count).
		if _, err := dev.Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
			t.Fatal(err)
		}
		h2, err := Load(dev, profOptions(1, 0))
		if err != nil {
			t.Fatalf("budget %d: Load: %v", n, err)
		}
		snap := h2.Telemetry().Snapshot()
		if snap.Events.ByKind["profile_reset"] != 0 {
			t.Fatalf("budget %d: interrupted persist tore the table", n)
		}
		want := int64(3 * 128) // gen 1
		if perr == nil {
			want = 5 * 128 // gen 2 completed
		}
		if got := liveProfileBytes(h2); got != want {
			t.Fatalf("budget %d: recovered live bytes = %d, want %d", n, got, want)
		}
		requireServiceable(t, h2)
		auditHeap(t, h2)
	}
}

// TestProfileTornTableResetsOnly corrupts BOTH snapshot slot headers — the
// double fault the A/B scheme cannot ride out — and verifies the contained
// failure mode: the profile resets and journals why; nothing is
// quarantined, health stays green, allocation keeps working.
func TestProfileTornTableResetsOnly(t *testing.T) {
	h := newProfHeap(t, 1, 0)
	th := newThread(t, h)
	for i := 0; i < 3; i++ {
		if _, err := th.Alloc(100); err != nil {
			t.Fatal(err)
		}
	}
	th.Close()
	if err := h.PersistProfile(); err != nil {
		t.Fatal(err)
	}
	table := h.lay.profArena()
	garbage := make([]byte, 64)
	for i := range garbage {
		garbage[i] = 0xAB
	}
	for i := 0; i < 2; i++ {
		if err := h.Device().Write(table.Off(i), garbage); err != nil {
			t.Fatal(err)
		}
	}
	// EvictAll drains the cache, so the garbage headers reach the media.
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictAll}); err != nil {
		t.Fatal(err)
	}
	h2, err := Load(h.Device(), profOptions(1, 0))
	if err != nil {
		t.Fatalf("Load with torn side-table must not fail: %v", err)
	}
	snap := h2.Telemetry().Snapshot()
	if snap.Events.ByKind["profile_reset"] != 1 {
		t.Fatalf("profile_reset events = %d, want 1", snap.Events.ByKind["profile_reset"])
	}
	if snap.Events.ByKind["quarantine"] != 0 {
		t.Fatal("torn profile table quarantined a sub-heap")
	}
	if sites := h2.Telemetry().Profiler().Sites(); len(sites) != 0 {
		t.Fatalf("torn table yielded %d sites, want a fresh profile", len(sites))
	}
	if h2.ProfileEpoch() != 1 {
		t.Fatalf("epoch after reset = %d, want 1", h2.ProfileEpoch())
	}
	requireServiceable(t, h2)
	auditHeap(t, h2)
	// The next persist starts a fresh generation history over the garbage.
	th2 := newThread(t, h2)
	if _, err := th2.Alloc(100); err != nil {
		t.Fatal(err)
	}
	th2.Close()
	if err := h2.PersistProfile(); err != nil {
		t.Fatalf("persist after reset: %v", err)
	}
	if _, err := h2.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	h3, err := Load(h2.Device(), profOptions(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := liveProfileBytes(h3); got != 128 {
		t.Fatalf("live bytes after reset+persist = %d, want 128", got)
	}
}

// TestProfileEpochBitFlipNeverAdopted flips one bit of the newest
// snapshot's boot epoch on the media. The epoch sits inside the checksummed
// payload, so Load must fall back to the previous generation (or reset the
// profile with exactly one journalled reset) and never adopt a wrong epoch.
func TestProfileEpochBitFlipNeverAdopted(t *testing.T) {
	h := newProfHeap(t, 1, 0)
	th := newThread(t, h)
	if _, err := th.Alloc(100); err != nil {
		t.Fatal(err)
	}
	th.Close()
	for boot := 1; boot <= 2; boot++ { // generation 1 at epoch 1, 2 at epoch 2
		if err := h.PersistProfile(); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
			t.Fatal(err)
		}
		if boot == 2 {
			break
		}
		h2, err := Load(h.Device(), profOptions(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		h = h2
	}
	newest := h.profSeq - 1
	epochOff := h.lay.profArena().Off(int(newest&1)) + plog.SlotHeader // payload word 0
	if err := h.Device().InjectBitFlip(epochOff, 5); err != nil {
		t.Fatal(err)
	}
	h3, err := Load(h.Device(), profOptions(1, 0))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	resets := h3.Telemetry().Snapshot().Events.ByKind["profile_reset"]
	if got := h3.ProfileEpoch(); !(resets == 0 && got == 2 || resets == 1 && got == 1) {
		t.Fatalf("epoch %d after %d profile resets; want 2 from the previous generation, or 1 after one reset", got, resets)
	}
	requireServiceable(t, h3)
}

// TestProfileRateZeroOffPath pins the rate=0 contract: threads carry a nil
// profiler pointer (the magazine fast path pays one nil check and nothing
// else), nothing is sampled, and the ClassProfile attribution bucket stays
// at zero — no profile I/O ever reaches the device.
func TestProfileRateZeroOffPath(t *testing.T) {
	h := newProfHeap(t, 0, 0)
	th := newThread(t, h)
	if th.prof != nil {
		t.Fatal("rate 0 thread holds a profiler pointer")
	}
	var ptrs []NVMPtr
	for i := 0; i < 50; i++ {
		p, err := th.Alloc(uint64(64 + i))
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	th.Close()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if c := h.Telemetry().Attribution().Snapshot()[nvm.ClassProfile]; c != (nvm.ClassCounters{}) {
		t.Fatalf("ClassProfile attribution = %+v, want all zero", c)
	}
	st := h.Telemetry().Profiler().Stats()
	if st.Enabled || st.SampledAllocs != 0 || st.PersistedGens != 0 || st.Sites != 0 {
		t.Fatalf("rate-0 profiler stats = %+v", st)
	}
}

func TestTraceSpansForSampledOps(t *testing.T) {
	o := profOptions(0, 1) // trace every operation
	o.Magazines = MagazineOptions{Capacity: 8, Classes: 4}
	h, err := Create(o)
	if err != nil {
		t.Fatal(err)
	}
	th := newThread(t, h)
	// Small allocs refill the magazine (refill spans); a big alloc and its
	// free take the sub-heap slow path directly (alloc/free spans).
	for i := 0; i < 8; i++ {
		if _, err := th.Alloc(128); err != nil {
			t.Fatal(err)
		}
	}
	big, err := th.Alloc(128 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(big); err != nil {
		t.Fatal(err)
	}
	th.Close()

	tr := h.Telemetry().Tracer()
	spans := tr.Spans()
	seen := map[obs.Op]obs.Span{}
	for _, s := range spans {
		seen[s.Op] = s
	}
	for _, op := range []obs.Op{obs.OpAlloc, obs.OpFree, obs.OpRefill} {
		if _, ok := seen[op]; !ok {
			t.Fatalf("no %v span among %d spans", op, len(spans))
		}
	}
	if sp := seen[obs.OpAlloc]; sp.Subheap < 0 || sp.Bytes != 128<<10 {
		t.Fatalf("alloc span = %+v", sp)
	}
	if sp := seen[obs.OpRefill]; sp.Writes == 0 || sp.Bytes == 0 {
		t.Fatalf("refill span carries no device work: %+v", sp)
	}
	var ct struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(h.TraceJSON(), &ct); err != nil {
		t.Fatalf("TraceJSON unparseable: %v", err)
	}
	if len(ct.TraceEvents) != len(tr.Spans()) {
		t.Fatalf("trace exports %d events for %d spans", len(ct.TraceEvents), len(tr.Spans()))
	}
}

// Profiling-overhead benchmarks (EXPERIMENTS.md): with telemetry on but
// Profile.Rate 0 the alloc path pays exactly one nil check over plain
// telemetry; sampling amortizes the stack capture over 1/N allocations.
func BenchmarkAllocFreeProfileOff(b *testing.B) {
	o := profOptions(0, 0)
	o.CrashTracking = false
	benchAllocFree(b, o)
}

func BenchmarkAllocFreeProfileSampled(b *testing.B) {
	o := profOptions(64, 0)
	o.CrashTracking = false
	benchAllocFree(b, o)
}

func BenchmarkAllocFreeProfileEvery(b *testing.B) {
	o := profOptions(1, 0)
	o.CrashTracking = false
	benchAllocFree(b, o)
}

func TestTraceRecoverySpanForced(t *testing.T) {
	h := newProfHeap(t, 0, 1)
	th := newThread(t, h)
	if _, err := th.TxAlloc(64, false); err != nil { // left open: recovery rolls it back
		t.Fatal(err)
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	h2, err := Load(h.Device(), profOptions(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	var rec *obs.Span
	for _, s := range h2.Telemetry().Tracer().Spans() {
		if s.Op == obs.OpRecovery {
			s := s
			rec = &s
		}
	}
	if rec == nil {
		t.Fatal("recovery produced no forced span")
	}
	if rec.Subheap != -1 || rec.Lane != -1 || rec.Err != "" {
		t.Fatalf("recovery span = %+v", rec)
	}
	if rec.Writes == 0 || rec.Flushes == 0 {
		t.Fatalf("recovery span carries no device work: %+v", rec)
	}
}
