package core

import (
	"errors"
	"sync"
	"testing"

	"poseidon/internal/nvm"
)

// TestConcurrentCrash kills the device while several threads are
// mid-operation on different (and shared) sub-heaps, then recovers and
// audits. This is the hardest failure class: torn operations on multiple
// sub-heaps at once, each with its own undo log state.
func TestConcurrentCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for seed := int64(0); seed < 12; seed++ {
		opts := Options{
			Subheaps:        2,
			SubheapUserSize: 512 << 10,
			SubheapMetaSize: 256 << 10,
			UndoLogSize:     64 << 10,
			MaxThreads:      8,
			HeapID:          uint64(seed) + 1,
			CrashTracking:   true,
		}
		h, err := Create(opts)
		if err != nil {
			t.Fatal(err)
		}
		const workers = 4
		// Let every worker get going, then arm a failpoint that dies
		// somewhere inside the flurry of concurrent operations.
		h.Device().FailAfter(400 + seed*137)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th, err := h.ThreadOn(w % 2)
				if err != nil {
					return
				}
				defer th.Close()
				var mine []NVMPtr
				for i := 0; i < 200; i++ {
					var p NVMPtr
					var err error
					if i%5 == 4 {
						p, err = th.TxAlloc(uint64(64+i%512), i%10 == 9)
					} else {
						p, err = th.Alloc(uint64(64 + i%512))
					}
					if err != nil {
						return // device died (or OOM near the end) — stop
					}
					mine = append(mine, p)
					if len(mine) > 8 {
						if err := th.Free(mine[0]); err != nil {
							return
						}
						mine = mine[1:]
					}
				}
			}(w)
		}
		wg.Wait()
		h.Device().DisarmFailpoint()
		if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.5, Seed: seed * 31}); err != nil {
			t.Fatal(err)
		}
		h2, err := Load(h.Device(), opts)
		if err != nil {
			t.Fatalf("seed %d: recovery: %v", seed, err)
		}
		report, err := h2.Check()
		if err != nil {
			t.Fatal(err)
		}
		if !report.OK() {
			t.Fatalf("seed %d: %v", seed, report.Problems)
		}
		if report.PendingUndo != 0 || report.PendingTx != 0 {
			t.Fatalf("seed %d: pending work after recovery: %+v", seed, report)
		}
	}
}

// TestTxTooLargeRollsBack exercises the commit-hook failure path: when the
// micro-log lane overflows, the allocation that could not be logged must
// be rolled back (undo replay inside the op) — the heap stays consistent
// and the earlier transaction entries remain intact.
func TestTxTooLargeRollsBack(t *testing.T) {
	opts := testOptions()
	opts.MicroLogLaneSize = 256 // 16 B header + 15 entries
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	th, err := h.Thread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	capacity := (opts.MicroLogLaneSize - 16) / 16
	var ok []NVMPtr
	for i := uint64(0); i < capacity; i++ {
		p, err := th.TxAlloc(64, false)
		if err != nil {
			t.Fatalf("tx alloc %d of %d: %v", i, capacity, err)
		}
		ok = append(ok, p)
	}
	// The next one overflows the lane: the metadata mutation must be
	// undone and the error surfaced.
	if _, err := th.TxAlloc(64, false); !errors.Is(err, ErrTxTooLarge) {
		t.Fatalf("overflow tx alloc: %v, want ErrTxTooLarge", err)
	}
	auditHeap(t, h)
	// A crash now rolls back exactly the logged allocations — the failed
	// one must not appear anywhere.
	h2 := reload(t, h, nvm.CrashPolicy{Mode: nvm.EvictNone})
	if got := h2.Stats().RecoveredBlocks; got != uint64(capacity) {
		t.Fatalf("recovered %d blocks, want %d", got, capacity)
	}
	th2, err := h2.Thread()
	if err != nil {
		t.Fatal(err)
	}
	defer th2.Close()
	for _, p := range ok {
		if err := th2.Free(p); !errors.Is(err, ErrDoubleFree) {
			t.Fatalf("logged alloc %v not rolled back: %v", p, err)
		}
	}
	auditHeap(t, h2)
}
