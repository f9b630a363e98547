package core

import (
	"errors"
	"testing"

	"poseidon/internal/nvm"
)

// TestCrashSweepEveryStore is the deterministic companion of
// TestCrashInjection: a fixed operation script is killed at EVERY store
// boundary (failpoint budgets 1..N), crashed with adversarial eviction,
// recovered and audited. Unlike the randomized test, this provably covers
// every interior persist point of the script.
func TestCrashSweepEveryStore(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep is slow")
	}
	// First, measure the script's store count on a healthy run.
	storeBudget := int64(1)
	for ; ; storeBudget++ {
		survived, _ := runScript(t, storeBudget, 1)
		if survived {
			break
		}
		if storeBudget > 5000 {
			t.Fatal("script never completed; failpoint accounting broken?")
		}
	}
	t.Logf("script performs %d stores; sweeping every boundary", storeBudget)
	step := int64(1)
	if storeBudget > 300 {
		step = storeBudget / 300 // cap the sweep at ~300 crash points
	}
	for b := int64(1); b < storeBudget; b += step {
		runScript(t, b, b*7919)
	}
}

// runScript executes the fixed script with a failpoint after `budget`
// stores, then crashes, recovers and audits. Returns whether the script
// ran to completion without hitting the failpoint.
func runScript(t *testing.T, budget, seed int64) (survived bool, h *Heap) {
	t.Helper()
	opts := Options{
		Subheaps:        1,
		SubheapUserSize: 512 << 10,
		SubheapMetaSize: 256 << 10,
		UndoLogSize:     64 << 10,
		MaxThreads:      4,
		HeapID:          77,
		CrashTracking:   true,
		// Small magazines: the script still crosses refills, pops and
		// pushes, at a few dozen stores each rather than hundreds.
		Magazines: MagazineOptions{Capacity: 8, Classes: 4},
	}
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	th, err := h.Thread()
	if err != nil {
		t.Fatal(err)
	}

	h.Device().FailAfter(budget)
	// rootAcked is the last root whose SetRoot returned, rootInFlight the
	// one being set when the device failed (else rootAcked).
	var rootAcked, rootInFlight NVMPtr
	setRoot := func(p NVMPtr) error {
		rootInFlight = p
		if err := h.SetRoot(p); err != nil {
			return err
		}
		rootAcked = p
		return nil
	}
	// The script: singleton allocs of mixed sizes, frees, a transactional
	// burst with commit, one without, and two root updates, so crash
	// points land in writes to both root slots.
	script := func() error {
		var ptrs []NVMPtr
		for _, size := range []uint64{64, 300, 4096, 64} {
			p, err := th.Alloc(size)
			if err != nil {
				return err
			}
			ptrs = append(ptrs, p)
		}
		if err := th.Free(ptrs[1]); err != nil {
			return err
		}
		if _, err := th.TxAlloc(128, false); err != nil {
			return err
		}
		if _, err := th.TxAlloc(128, true); err != nil {
			return err
		}
		if err := setRoot(ptrs[0]); err != nil {
			return err
		}
		if _, err := th.TxAlloc(256, false); err != nil { // left open
			return err
		}
		if err := setRoot(ptrs[2]); err != nil {
			return err
		}
		return th.Free(ptrs[3])
	}
	err = script()
	h.Device().DisarmFailpoint()
	survived = err == nil
	if err != nil && !errors.Is(err, nvm.ErrDeviceFailed) {
		t.Fatalf("budget %d: unexpected script error: %v", budget, err)
	}

	// Crash, recover, audit. The eviction policy rotates so every crash
	// point is also tested with nothing evicted and everything evicted,
	// not just random survival.
	policy := nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.5, Seed: seed}
	switch budget % 3 {
	case 1:
		policy = nvm.CrashPolicy{Mode: nvm.EvictNone}
	case 2:
		policy = nvm.CrashPolicy{Mode: nvm.EvictAll}
	}
	if _, cerr := h.Device().Crash(policy); cerr != nil {
		t.Fatal(cerr)
	}
	h2, err := Load(h.Device(), opts)
	if err != nil {
		t.Fatalf("budget %d: recovery failed: %v", budget, err)
	}
	report, err := h2.Check()
	if err != nil {
		t.Fatalf("budget %d: audit error: %v", budget, err)
	}
	if !report.OK() {
		t.Fatalf("budget %d: heap inconsistent after crash: %v", budget, report.Problems)
	}
	if report.PendingUndo != 0 || report.PendingTx != 0 {
		t.Fatalf("budget %d: recovery left pending work: %+v", budget, report)
	}
	// The recovered heap allocates and frees normally.
	th2, err := h2.Thread()
	if err != nil {
		t.Fatal(err)
	}
	switch root, err := h2.Root(); {
	case err != nil:
		t.Fatalf("budget %d: Root after recovery: %v", budget, err)
	case root != rootAcked && root != rootInFlight:
		t.Fatalf("budget %d: root %v after recovery, want %v or the in-flight %v",
			budget, root, rootAcked, rootInFlight)
	case !root.IsNull():
		if _, err := th2.BlockSize(root); err != nil {
			t.Fatalf("budget %d: root %v: %v", budget, root, err)
		}
	}
	p, err := th2.Alloc(64)
	if err != nil {
		t.Fatalf("budget %d: alloc after recovery: %v", budget, err)
	}
	if err := th2.Free(p); err != nil {
		t.Fatalf("budget %d: free after recovery: %v", budget, err)
	}
	th2.Close()
	return survived, h2
}
