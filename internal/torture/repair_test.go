package torture

import (
	"bytes"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/nvm"
)

// repairScenario builds the deterministic degraded heap every repair-sweep
// run starts from: a victim block with a persisted payload on sub-heap 0, a
// sentinel with a persisted payload on sub-heap 1, a media bit flip in the
// victim's record size word, a clean power failure, and a scrubbed reload
// that benches sub-heap 0. The vanilla runPoint oracle treats any
// quarantine as a violation (power failures must never corrupt), so the
// repair sweep needs this dedicated runner with seeded media damage.
func repairScenario(t *testing.T) (h *core.Heap, victim, sentinel core.NVMPtr, vpat, spat []byte) {
	t.Helper()
	h0, err := core.Create(heapOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	th0, err := h0.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	victim, err = th0.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	vpat = make([]byte, 128)
	for i := range vpat {
		vpat[i] = 0x11 + byte(i)
	}
	if err := th0.Persist(victim, 0, vpat); err != nil {
		t.Fatal(err)
	}
	th1, err := h0.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	sentinel, err = th1.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	spat = make([]byte, 256)
	for i := range spat {
		spat[i] = 0xc3 - byte(i)
	}
	if err := th1.Persist(sentinel, 0, spat); err != nil {
		t.Fatal(err)
	}
	// Two more commits on the victim's sub-heap, so the two commit records
	// Load replays no longer hold the victim's record: replay would put a
	// flipped word of it back to its committed value.
	q, err := th0.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th0.Free(q); err != nil {
		t.Fatal(err)
	}
	th0.Close()
	th1.Close()

	slot, err := h0.RecordSlot(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := h0.Device().InjectBitFlip(slot+8, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h0.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	_ = h0.Close()
	h, err = core.Load(h0.Device(), heapOptions(nil))
	if err != nil {
		t.Fatalf("degraded Load: %v", err)
	}
	if got := h.Stats().QuarantinedSubheaps; got != 1 {
		t.Fatalf("scenario: QuarantinedSubheaps = %d, want 1", got)
	}
	return h, victim, sentinel, vpat, spat
}

// readBlock reads n bytes from p through a throwaway thread.
func readBlock(t *testing.T, h *core.Heap, p core.NVMPtr, n int, what string) []byte {
	t.Helper()
	th, err := h.Thread()
	if err != nil {
		t.Fatalf("%s: Thread: %v", what, err)
	}
	defer th.Close()
	b := make([]byte, n)
	if err := th.Read(p, 0, b); err != nil {
		t.Fatalf("%s: Read: %v", what, err)
	}
	return b
}

// TestSweepRepairTail is the self-healing crash sweep: starting from the
// same deterministic degraded heap, the failpoint is walked through every
// mutating device op inside Heap.Repair — the repair-in-progress marker
// persist, the commit-log reset, every rebuild chunk commit, the free-list
// rethreading, the mirror refresh and the final marker clear — then the
// device is crashed under each eviction mode and reloaded. The oracle: the
// load must succeed with the victim sub-heap re-benched (interrupted
// repair is never mistaken for health), the heap must audit clean, user
// data on both shards must be byte-identical, and a fresh Repair must
// complete and return the heap to healthy. The last op, the flush of the
// marker clear, is the repair's commit point: its store was issued before
// the flush failed, so EvictNone drops it and re-benches, EvictAll carries
// it to the media and the repair completes, and EvictTorn may do either.
func TestSweepRepairTail(t *testing.T) {
	// Measure the full repair once to size the sweep.
	hm, _, _, _, _ := repairScenario(t)
	const huge = int64(1) << 40
	hm.Device().FailAfter(huge)
	rerr := hm.Repair(0)
	total := int(huge - hm.Device().FailBudgetRemaining())
	hm.Device().DisarmFailpoint()
	if rerr != nil {
		t.Fatalf("repair measurement: %v", rerr)
	}
	if total == 0 {
		t.Fatal("repair performed no mutating device ops")
	}
	if got := hm.Health(); got != core.StateHealthy {
		t.Fatalf("measurement heap Health = %v, want healthy", got)
	}
	_ = hm.Close()

	const seed = int64(99)
	runs := 0
	for _, mode := range []nvm.EvictMode{nvm.EvictNone, nvm.EvictAll, nvm.EvictTorn} {
		for point := 0; point < total; point++ {
			h, victim, sentinel, vpat, spat := repairScenario(t)
			dev := h.Device()
			dev.FailAfter(int64(point))
			rerr := h.Repair(0)
			tripped := dev.FailBudgetRemaining() < 0
			dev.DisarmFailpoint()
			if !tripped {
				t.Fatalf("mode=%s point=%d: failpoint did not trip (repair is non-deterministic?)", mode, point)
			}
			if rerr == nil {
				t.Fatalf("mode=%s point=%d: Repair must fail when the device dies mid-repair", mode, point)
			}
			if h.Stats().QuarantinedSubheaps != 1 {
				t.Fatalf("mode=%s point=%d: failed repair must leave the shard benched", mode, point)
			}
			_ = h.Close()

			if _, err := dev.Crash(nvm.CrashPolicy{Mode: mode, Prob: 0.5, Seed: pointSeed(seed, point)}); err != nil {
				t.Fatal(err)
			}
			h2, err := core.Load(dev, heapOptions(nil))
			if err != nil {
				t.Fatalf("mode=%s point=%d: Load after mid-repair crash: %v", mode, point, err)
			}
			benched := h2.Stats().QuarantinedSubheaps
			commitPoint := point == total-1
			switch {
			case benched > 1:
				t.Fatalf("mode=%s point=%d: QuarantinedSubheaps after reload = %d, want at most 1", mode, point, benched)
			case benched == 0 && (!commitPoint || mode == nvm.EvictNone):
				t.Fatalf("mode=%s point=%d: QuarantinedSubheaps after reload = 0, want 1 (interrupted repair must re-bench)",
					mode, point)
			case benched == 1 && commitPoint && mode == nvm.EvictAll:
				t.Fatalf("mode=%s point=%d: the marker clear reached the media, yet the reload re-benched", mode, point)
			}
			check, err := h2.Check()
			if err != nil {
				t.Fatalf("mode=%s point=%d: audit error: %v", mode, point, err)
			}
			if !check.OK() {
				t.Fatalf("mode=%s point=%d: audit found %d problems: %v",
					mode, point, len(check.Problems), check.Problems)
			}
			// The healthy shard's data is reachable throughout the episode.
			if got := readBlock(t, h2, sentinel, len(spat), "sentinel"); !bytes.Equal(got, spat) {
				t.Fatalf("mode=%s point=%d: sentinel payload corrupted", mode, point)
			}

			// A fresh repair completes from any interruption point; a
			// repair that completed at its commit point needs none.
			if benched == 1 {
				if err := h2.Repair(0); err != nil {
					t.Fatalf("mode=%s point=%d: second Repair: %v", mode, point, err)
				}
			}
			if got := h2.Health(); got != core.StateHealthy {
				t.Fatalf("mode=%s point=%d: Health after repair = %v, want healthy", mode, point, got)
			}
			final, err := h2.Check()
			if err != nil {
				t.Fatalf("mode=%s point=%d: final audit error: %v", mode, point, err)
			}
			if !final.OK() || !final.Healthy() {
				t.Fatalf("mode=%s point=%d: final audit OK=%v Healthy=%v problems=%v",
					mode, point, final.OK(), final.Healthy(), final.Problems)
			}
			// Zero user-data loss: the victim's bytes survive the corruption,
			// both crashes, and the rebuild (repair re-covers its extent
			// without touching user data).
			if got := readBlock(t, h2, victim, len(vpat), "victim"); !bytes.Equal(got, vpat) {
				t.Fatalf("mode=%s point=%d: victim payload lost during repair", mode, point)
			}
			// The repaired shard serves again.
			th, err := h2.ThreadOn(0)
			if err != nil {
				t.Fatal(err)
			}
			p, err := th.Alloc(128)
			if err != nil {
				t.Fatalf("mode=%s point=%d: post-repair Alloc: %v", mode, point, err)
			}
			if p.Subheap() != 0 {
				t.Fatalf("mode=%s point=%d: post-repair alloc landed in sub-heap %d, want 0",
					mode, point, p.Subheap())
			}
			if err := th.Free(p); err != nil {
				t.Fatalf("mode=%s point=%d: post-repair Free: %v", mode, point, err)
			}
			th.Close()
			_ = h2.Close()
			runs++
		}
	}
	if runs == 0 {
		t.Fatal("repair sweep covered no crash points")
	}
	t.Logf("repair sweep: %d crash points x 3 modes, %d runs, 0 violations", total, runs)
}
