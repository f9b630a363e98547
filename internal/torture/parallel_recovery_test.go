package torture

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/nvm"
)

// parallelSweepOptions is the 4-sub-heap configuration the parallel
// recovery sweep loads with: every recovery surface armed (lanes,
// magazines, scrub). The sweep runs at GOMAXPROCS 4, so the failpoint walks
// through a 4-way worker pool's genuinely concurrent replay.
func parallelSweepOptions() core.Options {
	return core.Options{
		Subheaps:        4,
		SubheapUserSize: 1 << 20,
		SubheapMetaSize: 256 << 10,
		UndoLogSize:     64 << 10,
		MaxThreads:      16,
		HeapID:          0x70051D05, // fixed: runs must be byte-identical
		CrashTracking:   true,
		ScrubOnLoad:     true,
		Magazines:       core.MagazineOptions{Capacity: 8, Classes: 4},
	}
}

// parallelRecoveryImage builds the crashed image every sweep run recovers:
// pending rollback work in all four micro-log lanes, populated magazine
// manifests, and a committed sentinel payload that must survive every
// recovery. Saved to a file so each sweep
// point starts from the identical torn state.
func parallelRecoveryImage(t *testing.T) (string, core.NVMPtr, []byte) {
	t.Helper()
	h, err := core.Create(parallelSweepOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	var threads []*core.Thread
	for w := 0; w < h.Subheaps(); w++ {
		th, err := h.ThreadOn(w)
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
		// Magazine-class churn: leaves cached blocks in the manifest.
		for i := 0; i < 8; i++ {
			if _, err := th.Alloc(uint64(64 << (i % 3))); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The sentinel: committed, persisted, must be byte-identical after
	// every interrupted-and-resumed recovery in the sweep.
	sentinel, err := threads[1].Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	spat := make([]byte, 256)
	for i := range spat {
		spat[i] = 0xa7 - byte(i)
	}
	if err := threads[1].Persist(sentinel, 0, spat); err != nil {
		t.Fatal(err)
	}

	// Open transactions in every lane: rollback work for every worker.
	for _, th := range threads {
		if _, err := th.TxAlloc(128, false); err != nil {
			t.Fatal(err)
		}
		if _, err := th.TxAlloc(256, false); err != nil {
			t.Fatal(err)
		}
	}
	// Threads stay open: the power cut catches magazines populated and
	// lanes uncommitted.
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "parallel-recovery.img")
	if err := h.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path, sentinel, spat
}

func loadSweepImage(t *testing.T, path string) *nvm.Device {
	t.Helper()
	dev, err := nvm.LoadFile(path, nvm.Options{CrashTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestSweepParallelRecoveryTail walks the device failpoint through every
// mutating op inside a 4-way parallel Load — lane rollbacks, manifest
// replays and word clears, lane truncations, mirror refreshes — crashes the half-recovered image under each eviction mode,
// and requires the second Load to heal completely: clean audit, no
// quarantine (a pure power/device failure must never be mistaken for
// corruption), no pending transactions, the sentinel payload intact, and
// the heap serving allocations again.
func TestSweepParallelRecoveryTail(t *testing.T) {
	// Recovery sizes its worker pool by GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	path, sentinel, spat := parallelRecoveryImage(t)

	// Measure one full parallel recovery to size the sweep, and pin that
	// the image actually exercises every replay surface.
	const huge = int64(1) << 40
	devM := loadSweepImage(t, path)
	devM.FailAfter(huge)
	hm, err := core.Load(devM, parallelSweepOptions())
	total := int(huge - devM.FailBudgetRemaining())
	devM.DisarmFailpoint()
	if err != nil {
		t.Fatalf("measurement Load: %v", err)
	}
	st := hm.Stats()
	if st.RecoveredBlocks == 0 {
		t.Fatal("scenario has no micro-log rollback work")
	}
	if st.RecoveredCached == 0 {
		t.Fatal("scenario has no magazine-manifest work")
	}
	_ = hm.Close()
	if total == 0 {
		t.Fatal("parallel recovery performed no mutating device ops")
	}

	const seed = int64(131)
	runs := 0
	for _, mode := range []nvm.EvictMode{nvm.EvictNone, nvm.EvictAll, nvm.EvictTorn} {
		for point := 0; point < total; point += 2 {
			dev := loadSweepImage(t, path)
			dev.FailAfter(int64(point))
			h, lerr := core.Load(dev, parallelSweepOptions())
			tripped := dev.FailBudgetRemaining() < 0
			dev.DisarmFailpoint()
			if !tripped {
				t.Fatalf("mode=%s point=%d: failpoint did not trip (recovery op count is non-deterministic?)",
					mode, point)
			}
			if lerr == nil {
				// The failpoint landed in the best-effort mirror refresh at
				// the tail of recovery (recover discards syncMirrors' error:
				// a missed mirror write only costs repair its cheap path, it
				// never compromises the primary metadata). Load legitimately
				// succeeds; the crash-and-reheal oracle below still applies.
				_ = h.Close()
			}

			if _, err := dev.Crash(nvm.CrashPolicy{Mode: mode, Prob: 0.5, Seed: pointSeed(seed, point)}); err != nil {
				t.Fatal(err)
			}
			h2, err := core.Load(dev, parallelSweepOptions())
			if err != nil {
				t.Fatalf("mode=%s point=%d: second Load must heal: %v", mode, point, err)
			}
			if got := h2.Stats().QuarantinedSubheaps; got != 0 {
				t.Fatalf("mode=%s point=%d: interrupted recovery quarantined %d sub-heaps — power failure mistaken for corruption",
					mode, point, got)
			}
			check, err := h2.Check()
			if err != nil {
				t.Fatalf("mode=%s point=%d: audit error: %v", mode, point, err)
			}
			if !check.OK() || !check.Healthy() {
				t.Fatalf("mode=%s point=%d: audit OK=%v Healthy=%v problems=%v",
					mode, point, check.OK(), check.Healthy(), check.Problems)
			}
			if check.PendingTx != 0 {
				t.Fatalf("mode=%s point=%d: %d micro-log entries survived recovery", mode, point, check.PendingTx)
			}
			if got := readBlock(t, h2, sentinel, len(spat), fmt.Sprintf("mode=%s point=%d sentinel", mode, point)); !bytes.Equal(got, spat) {
				t.Fatalf("mode=%s point=%d: sentinel payload corrupted", mode, point)
			}
			// Smoke: the healed heap serves on every shard.
			for w := 0; w < h2.Subheaps(); w++ {
				th, err := h2.ThreadOn(w)
				if err != nil {
					t.Fatal(err)
				}
				p, err := th.Alloc(128)
				if err != nil {
					t.Fatalf("mode=%s point=%d: post-heal Alloc on shard %d: %v", mode, point, w, err)
				}
				if err := th.Free(p); err != nil {
					t.Fatalf("mode=%s point=%d: post-heal Free on shard %d: %v", mode, point, w, err)
				}
				th.Close()
			}
			_ = h2.Close()
			runs++
		}
	}
	if runs == 0 {
		t.Fatal("parallel recovery sweep covered no crash points")
	}
	t.Logf("parallel recovery sweep: %d crash points x 3 modes, %d runs, 0 violations", (total+1)/2, runs)
}
