package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

// parallelRecoveryOptions is an 8-sub-heap heap with every recovery surface
// armed: micro-log lanes, magazines and the load audit.
func parallelRecoveryOptions() Options {
	return Options{
		Subheaps:        8,
		SubheapUserSize: 1 << 20,
		SubheapMetaSize: 256 << 10,
		UndoLogSize:     64 << 10,
		MaxThreads:      16,
		HeapID:          0xFA40,
		CrashTracking:   true,
		ScrubOnLoad:     true,
		Magazines:       MagazineOptions{Capacity: 16, Classes: 4},
	}
}

// messyCrashedImage builds a heap with recovery work pending on every
// surface — open transactions in several lanes, populated magazines and
// foreign manifest entries — crashes it, and saves the image to a temp
// file so multiple Loads can recover identical copies.
func messyCrashedImage(t *testing.T) string {
	t.Helper()
	h, err := Create(parallelRecoveryOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	var threads []*Thread
	for w := 0; w < h.Subheaps(); w++ {
		th, err := h.ThreadOn(w)
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
		var blocks []NVMPtr
		for i := 0; i < 24; i++ {
			p, err := th.Alloc(uint64(64 << (i % 3)))
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, p)
		}
		// Cross-shard frees: thread 0 pushes popped blocks of every other
		// sub-heap into its own magazine.
		if w > 0 {
			for i := 0; i < 4; i++ {
				if err := threads[0].Free(blocks[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Leave a transaction open: its lane entries must roll back.
		if _, err := th.TxAlloc(128, false); err != nil {
			t.Fatal(err)
		}
		if _, err := th.TxAlloc(256, false); err != nil {
			t.Fatal(err)
		}
	}
	// Threads stay open (magazines populated, lanes uncommitted): the crash
	// below is the adversarial power cut mid-flight.
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.5, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "messy.img")
	if err := h.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadAtWidth runs Load with GOMAXPROCS set to width, which sizes the
// recovery worker pool, and restores the previous setting afterwards.
func loadAtWidth(t *testing.T, dev *nvm.Device, opts Options, width int) *Heap {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
	h, err := Load(dev, opts)
	if err != nil {
		t.Fatalf("Load (width %d): %v", width, err)
	}
	return h
}

// loadImage recovers the saved image on a width-wide worker pool.
func loadImage(t *testing.T, path string, width int) *Heap {
	t.Helper()
	dev, err := nvm.LoadFile(path, nvm.Options{CrashTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	return loadAtWidth(t, dev, parallelRecoveryOptions(), width)
}

// recoveryStats is the width-independent subset of HeapStats two
// recoveries of the same image must agree on. PermissionSwitches is
// excluded by construction: worker threads issue their own grant/revoke
// pairs, which changes the switch count but nothing persistent.
func recoveryStats(st HeapStats) map[string]uint64 {
	return map[string]uint64{
		"recoveredBlocks":     st.RecoveredBlocks,
		"recoveredNoops":      st.RecoveredNoops,
		"recoveredCached":     st.RecoveredCached,
		"invalidFrees":        st.InvalidFrees,
		"doubleFrees":         st.DoubleFrees,
		"quarantinedSubheaps": st.QuarantinedSubheaps,
		"quarantinedBytes":    st.QuarantinedBytes,
	}
}

// saveBytes snapshots the persistent image.
func saveBytes(t *testing.T, h *Heap) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.img")
	if err := h.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecoveryImageIndependentOfWidth is the core-level byte-identity
// check: recovering the same crashed image on one worker and on eight must
// produce identical persistent images, audits and recovery counters. (The
// randomized, schedule-driven version lives in internal/alloctest; this one
// pins the invariant close to the machinery.)
func TestRecoveryImageIndependentOfWidth(t *testing.T) {
	path := messyCrashedImage(t)

	h1 := loadImage(t, path, 1)
	defer h1.Close()
	h8 := loadImage(t, path, 8)
	defer h8.Close()

	rep1, err := h1.Check()
	if err != nil {
		t.Fatal(err)
	}
	rep8, err := h8.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.OK() {
		t.Fatalf("width-1 recovery audit: %v", rep1.Problems)
	}
	if !rep8.OK() {
		t.Fatalf("width-8 recovery audit: %v", rep8.Problems)
	}
	if rep1.AllocatedBlocks != rep8.AllocatedBlocks || rep1.FreeBlocks != rep8.FreeBlocks {
		t.Fatalf("census diverges: width 1 %d/%d, width 8 %d/%d allocated/free",
			rep1.AllocatedBlocks, rep1.FreeBlocks, rep8.AllocatedBlocks, rep8.FreeBlocks)
	}
	if rep1.PendingTx != 0 || rep8.PendingTx != 0 {
		t.Fatalf("pending tx after recovery: width 1 %d, width 8 %d", rep1.PendingTx, rep8.PendingTx)
	}
	s1, s8 := recoveryStats(h1.Stats()), recoveryStats(h8.Stats())
	for k, v := range s1 {
		if s8[k] != v {
			t.Errorf("stat %s diverges: width 1 %d, width 8 %d", k, v, s8[k])
		}
	}
	if h1.Stats().RecoveredBlocks == 0 {
		t.Fatal("scenario recovered no tx blocks — the sweep is not exercising lane replay")
	}

	b1, b8 := saveBytes(t, h1), saveBytes(t, h8)
	if !bytes.Equal(b1, b8) {
		t.Fatalf("recovered images differ (width 1 %d bytes, width 8 %d bytes): recovery depends on the pool width",
			len(b1), len(b8))
	}
}

// TestConcurrentQuarantineSameSubheap hammers quarantine on ONE sub-heap
// from many goroutines: exactly one quarantine event may be journaled, the
// first reason wins, and the health state must settle consistently —
// the qmu serialization satellite.
func TestConcurrentQuarantineSameSubheap(t *testing.T) {
	tel := obs.New()
	opts := testOptions()
	opts.Telemetry = tel
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	s := h.subheaps[0]
	const workers = 64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			s.quarantine(fmt.Sprintf("worker %d found corruption", w))
		}(w)
	}
	wg.Wait()

	if !s.isQuarantined() {
		t.Fatal("sub-heap not quarantined")
	}
	reason := s.quarantineReason()
	if reason == "" {
		t.Fatal("quarantine published before its reason")
	}
	events := 0
	for _, e := range tel.Events() {
		if e.Kind == obs.EventQuarantine && e.Subheap == 0 {
			events++
			if e.Detail != reason {
				t.Errorf("journaled reason %q != stored reason %q (first-reason-wins broken)", e.Detail, reason)
			}
		}
	}
	if events != 1 {
		t.Fatalf("journaled %d quarantine events for one sub-heap, want exactly 1", events)
	}
	if got := h.Health(); got != StateDegraded {
		t.Fatalf("Health = %v, want degraded (1/2 quarantined)", got)
	}
}

// TestConcurrentQuarantineHealthConvergence quarantines a majority of
// sub-heaps from concurrent goroutines — the serial-compute-then-store
// race recomputeHealth used to have would let a stale Degraded overwrite
// ReadOnly; with healthMu the final state must always be ReadOnly.
func TestConcurrentQuarantineHealthConvergence(t *testing.T) {
	opts := parallelRecoveryOptions()
	opts.HeapID = 0xC0DE
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	const benched = 5 // of 8: a majority, so ReadOnly
	var wg sync.WaitGroup
	wg.Add(benched)
	for i := 0; i < benched; i++ {
		go func(i int) {
			defer wg.Done()
			h.subheaps[i].quarantine("concurrent corruption")
		}(i)
	}
	wg.Wait()

	if got := h.Health(); got != StateReadOnly {
		t.Fatalf("Health = %v after %d/8 concurrent quarantines, want read-only", got, benched)
	}
	if got := h.Stats().QuarantinedSubheaps; got != benched {
		t.Fatalf("QuarantinedSubheaps = %d, want %d", got, benched)
	}
}

// TestParallelScrubQuarantinesBoth corrupts records in two different
// sub-heaps and recovers with an 8-way pool: the concurrent ScrubOnLoad
// audits must bench exactly the two corrupt sub-heaps (one event each) and
// leave the rest serving — quarantine-under-parallelism end to end.
func TestParallelScrubQuarantinesBoth(t *testing.T) {
	tel := obs.New()
	opts := parallelRecoveryOptions()
	opts.HeapID = 0xBADC
	opts.Telemetry = tel
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}

	victims := []int{2, 5}
	for w := 0; w < h.Subheaps(); w++ {
		th, err := h.ThreadOn(w)
		if err != nil {
			t.Fatal(err)
		}
		p, err := th.Alloc(128)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range victims {
			if w == v {
				flipSizeBit(t, h, p)
			}
		}
		th.Close()
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	_ = h.Close()

	h2 := loadAtWidth(t, h.Device(), opts, 8) // Load must degrade, not die
	defer h2.Close()

	if got := h2.Stats().QuarantinedSubheaps; got != uint64(len(victims)) {
		t.Fatalf("QuarantinedSubheaps = %d, want %d", got, len(victims))
	}
	for _, v := range victims {
		if !h2.subheaps[v].isQuarantined() {
			t.Errorf("sub-heap %d not quarantined", v)
		}
	}
	perSubheap := map[int]int{}
	for _, e := range tel.Events() {
		if e.Kind == obs.EventQuarantine {
			perSubheap[e.Subheap]++
		}
	}
	for _, v := range victims {
		if perSubheap[v] != 1 {
			t.Errorf("sub-heap %d journaled %d quarantine events, want exactly 1", v, perSubheap[v])
		}
	}
	if got := h2.Health(); got != StateDegraded {
		t.Fatalf("Health = %v, want degraded", got)
	}
	// The in-service majority still allocates.
	th, err := h2.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := th.Alloc(64); err != nil {
		t.Fatalf("healthy sub-heap Alloc after parallel quarantine: %v", err)
	}
	th.Close()
}
