package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"poseidon/internal/nvm"
)

// freeAnchorOff returns the device offset of the first nonempty free-list
// anchor (head word) in the shard's header — the corruption target for
// mirror-restore tests.
func freeAnchorOff(t *testing.T, h *Heap, shard int) uint64 {
	t.Helper()
	s := h.subheaps[shard]
	s.mu.Lock()
	h.grant(s.thread)
	g := s.mgr.Geometry()
	off := uint64(0)
	for c := 0; c < g.NumClasses; c++ {
		head, err := s.mgr.FreeHead(s.win, c)
		if err != nil {
			h.revoke(s.thread)
			s.mu.Unlock()
			t.Fatal(err)
		}
		if head != 0 {
			off = g.FreeListOff + uint64(c)*16
			break
		}
	}
	h.revoke(s.thread)
	s.mu.Unlock()
	if off == 0 {
		t.Fatal("no nonempty free list in shard")
	}
	return off
}

// fillPattern writes a recognizable payload into a block and returns it.
func fillPattern(t *testing.T, th *Thread, p NVMPtr, n int, seed byte) []byte {
	t.Helper()
	pat := make([]byte, n)
	for i := range pat {
		pat[i] = seed + byte(i)
	}
	if err := th.Persist(p, 0, pat); err != nil {
		t.Fatal(err)
	}
	return pat
}

func checkPattern(t *testing.T, th *Thread, p NVMPtr, pat []byte, what string) {
	t.Helper()
	got := make([]byte, len(pat))
	if err := th.Read(p, 0, got); err != nil {
		t.Fatalf("%s: read back: %v", what, err)
	}
	if !bytes.Equal(got, pat) {
		t.Fatalf("%s: payload corrupted", what)
	}
}

// TestRepairAfterBitFlip is the self-healing acceptance test for the
// rebuild-by-table-walk path: a media bit flip in a block record benches
// the sub-heap at load; Repair must drop the poisoned record, re-cover its
// extent, return the sub-heap to service with zero user-data loss, and
// bring health back from degraded.
func TestRepairAfterBitFlip(t *testing.T) {
	opts := testOptions()
	opts.ScrubOnLoad = true
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}

	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := th0.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	victimPat := fillPattern(t, th0, victim, 128, 0x11)
	sentinel, err := th0.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	sentinelPat := fillPattern(t, th0, sentinel, 256, 0x77)
	th1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := th1.Alloc(128); err != nil {
		t.Fatal(err)
	}
	th0.Close()
	th1.Close()

	// Corrupt the victim's size word on media: 128 -> 129.
	flipSizeBit(t, h, victim)

	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	_ = h.Close()
	h2, err := Load(h.Device(), opts)
	if err != nil {
		t.Fatalf("Load must degrade, not die: %v", err)
	}
	defer h2.Close()
	if !h2.subheaps[0].isQuarantined() {
		t.Fatal("sub-heap 0 not quarantined after bit flip")
	}
	if got := h2.Health(); got != StateDegraded {
		t.Fatalf("Health = %v, want degraded", got)
	}

	// Repairing a healthy sub-heap is an error; the victim is repairable.
	if err := h2.Repair(1); !errors.Is(err, ErrNotQuarantined) {
		t.Fatalf("Repair(healthy) = %v, want ErrNotQuarantined", err)
	}
	if err := h2.Repair(0); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if h2.subheaps[0].isQuarantined() {
		t.Fatal("sub-heap 0 still quarantined after repair")
	}
	if got := h2.Health(); got != StateHealthy {
		t.Fatalf("Health after repair = %v, want healthy", got)
	}
	st := h2.Stats()
	if st.RepairedSubheaps != 1 {
		t.Fatalf("RepairedSubheaps = %d, want 1", st.RepairedSubheaps)
	}
	if st.RepairedBytes != opts.SubheapUserSize {
		t.Fatalf("RepairedBytes = %d, want %d", st.RepairedBytes, opts.SubheapUserSize)
	}
	report, err := h2.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() || !report.Healthy() {
		t.Fatalf("post-repair audit: OK=%v Healthy=%v problems=%v",
			report.OK(), report.Healthy(), report.Problems)
	}

	// Zero user-data loss: the sentinel is untouched, and even the victim's
	// extent was re-covered as allocated with its bytes intact.
	th, err := h2.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	checkPattern(t, th, sentinel, sentinelPat, "sentinel")
	checkPattern(t, th, victim, victimPat, "victim")
	if err := th.Free(victim); err != nil {
		t.Fatalf("Free(victim) after repair: %v", err)
	}
	p, err := th.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if p.Subheap() != 0 {
		t.Fatalf("alloc after repair landed in sub-heap %d, want 0 (back in service)", p.Subheap())
	}
	auditHeap(t, h2)

	// The repaired state is durable: another crash/reload stays healthy.
	h3 := func() *Heap {
		if _, err := h2.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
			t.Fatal(err)
		}
		th.Close()
		_ = h2.Close()
		h3, err := Load(h2.Device(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return h3
	}()
	defer h3.Close()
	if got := h3.Health(); got != StateHealthy {
		t.Fatalf("Health after reload = %v, want healthy", got)
	}
	tr, err := h3.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	checkPattern(t, tr, sentinel, sentinelPat, "sentinel after reload")
	auditHeap(t, h3)
}

// TestRepairMirrorRestore pins the cheap repair path: when only the primary
// header is damaged and the table records are sound, repair restores the
// free-list anchors from the metadata mirror instead of rebuilding.
func TestRepairMirrorRestore(t *testing.T) {
	h := newTestHeap(t)
	defer h.Close()
	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th0.Close()
	p0, err := th0.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	pat := fillPattern(t, th0, p0, 128, 0x23)
	th1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := th1.Alloc(128); err != nil {
		t.Fatal(err)
	}
	th1.Close()

	// Capture known-good anchors in the mirror, then smash a live anchor:
	// the head now points one slot over, orphaning a real free block.
	if err := h.SyncMirrors(); err != nil {
		t.Fatal(err)
	}
	anchor := freeAnchorOff(t, h, 0)
	if err := h.Device().InjectBitFlip(anchor, 6); err != nil {
		t.Fatal(err)
	}

	// A synchronous scrub pass detects it, benches the shard, and repairs
	// it on the spot — via the mirror, not a rebuild.
	if err := h.ScrubPass(); err != nil {
		t.Fatalf("ScrubPass: %v", err)
	}
	if h.subheaps[0].isQuarantined() {
		t.Fatal("sub-heap 0 still quarantined after scrub auto-repair")
	}
	st := h.Stats()
	if st.MirrorRestores != 1 {
		t.Fatalf("MirrorRestores = %d, want 1 (repair should not have needed a rebuild)", st.MirrorRestores)
	}
	if st.RepairedSubheaps != 1 {
		t.Fatalf("RepairedSubheaps = %d, want 1", st.RepairedSubheaps)
	}
	if got := h.Health(); got != StateHealthy {
		t.Fatalf("Health = %v, want healthy", got)
	}
	checkPattern(t, th0, p0, pat, "payload")
	if err := th0.Free(p0); err != nil {
		t.Fatal(err)
	}
	auditHeap(t, h)
}

// TestReadOnlyHealthGating quarantines a majority of sub-heaps and checks
// the read-only regime: mutations are rejected with ErrReadOnly, reads keep
// working, and RepairAll lifts the heap back to healthy.
func TestReadOnlyHealthGating(t *testing.T) {
	opts := testOptions()
	opts.Subheaps = 4
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	p, err := th.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	pat := fillPattern(t, th, p, 128, 0x42)
	if err := h.SetRoot(p); err != nil {
		t.Fatal(err)
	}

	for _, i := range []int{1, 2, 3} {
		h.subheaps[i].quarantine("test: simulated media failure")
	}
	if got := h.Health(); got != StateReadOnly {
		t.Fatalf("Health = %v, want read-only with 3/4 quarantined", got)
	}

	if _, err := th.Alloc(64); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Alloc = %v, want ErrReadOnly", err)
	}
	if _, err := th.TxAlloc(64, true); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("TxAlloc = %v, want ErrReadOnly", err)
	}
	if err := th.Free(p); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Free = %v, want ErrReadOnly", err)
	}
	if err := th.Write(p, 0, []byte{1}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Write = %v, want ErrReadOnly", err)
	}
	if err := h.SetRoot(p); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("SetRoot = %v, want ErrReadOnly", err)
	}
	// Reads stay up: degraded capacity must not take data hostage.
	checkPattern(t, th, p, pat, "payload under read-only")
	if root, err := h.Root(); err != nil || root != p {
		t.Fatalf("Root under read-only = %v, %v", root, err)
	}

	n, err := h.RepairAll()
	if err != nil {
		t.Fatalf("RepairAll: %v", err)
	}
	if n != 3 {
		t.Fatalf("RepairAll repaired %d, want 3", n)
	}
	if got := h.Health(); got != StateHealthy {
		t.Fatalf("Health after RepairAll = %v, want healthy", got)
	}
	if _, err := th.Alloc(64); err != nil {
		t.Fatalf("Alloc after RepairAll: %v", err)
	}
	auditHeap(t, h)
}

// TestCrashMidRepairRequarantines checks repair's own crash consistency: a
// power failure at an arbitrary point inside Repair must leave the sub-heap
// quarantined on the next load (interrupted-repair marker or the original
// damage), and a fresh Repair must then succeed. The exhaustive sweep lives
// in the torture package; this pins a few representative points.
func TestCrashMidRepairRequarantines(t *testing.T) {
	for _, point := range []int64{1, 4, 16} {
		opts := testOptions()
		opts.ScrubOnLoad = true
		h, err := Create(opts)
		if err != nil {
			t.Fatal(err)
		}
		th0, err := h.ThreadOn(0)
		if err != nil {
			t.Fatal(err)
		}
		victim, err := th0.Alloc(128)
		if err != nil {
			t.Fatal(err)
		}
		sentinel, err := th0.Alloc(256)
		if err != nil {
			t.Fatal(err)
		}
		pat := fillPattern(t, th0, sentinel, 256, 0x3c)
		th1, err := h.ThreadOn(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := th1.Alloc(128); err != nil {
			t.Fatal(err)
		}
		th0.Close()
		th1.Close()
		flipSizeBit(t, h, victim)
		if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
			t.Fatal(err)
		}
		_ = h.Close()
		h2, err := Load(h.Device(), opts)
		if err != nil {
			t.Fatalf("point %d: Load: %v", point, err)
		}

		// Die partway through the repair, then power-cycle.
		h2.Device().FailAfter(point)
		if err := h2.Repair(0); err == nil {
			t.Fatalf("point %d: Repair must trip the failpoint", point)
		}
		h2.Device().DisarmFailpoint()
		if !h2.subheaps[0].isQuarantined() {
			t.Fatalf("point %d: failed repair must leave the shard benched", point)
		}
		if _, err := h2.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
			t.Fatal(err)
		}
		_ = h2.Close()
		h3, err := Load(h2.Device(), opts)
		if err != nil {
			t.Fatalf("point %d: Load after mid-repair crash: %v", point, err)
		}
		if !h3.subheaps[0].isQuarantined() {
			t.Fatalf("point %d: shard must be re-quarantined after interrupted repair", point)
		}
		if err := h3.Repair(0); err != nil {
			t.Fatalf("point %d: second Repair: %v", point, err)
		}
		if got := h3.Health(); got != StateHealthy {
			t.Fatalf("point %d: Health = %v, want healthy", point, got)
		}
		tr, err := h3.ThreadOn(0)
		if err != nil {
			t.Fatal(err)
		}
		checkPattern(t, tr, sentinel, pat, "sentinel")
		tr.Close()
		auditHeap(t, h3)
		_ = h3.Close()
	}
}

// TestOnlineScrubberRepairsLiveCorruption runs the background scrubber at a
// tight interval, injects a media bit flip into a live heap, and waits for
// the detect → quarantine → repair → healthy cycle to complete with no
// intervention and no data loss.
func TestOnlineScrubberRepairsLiveCorruption(t *testing.T) {
	opts := testOptions()
	opts.OnlineScrub = OnlineScrubOptions{Interval: time.Millisecond}
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th0.Close()
	victim, err := th0.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	sentinel, err := th0.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	pat := fillPattern(t, th0, sentinel, 256, 0x55)
	th1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := th1.Alloc(128); err != nil {
		t.Fatal(err)
	}
	th1.Close()

	// Inject under the sub-heap lock: a real media flip is not a program
	// write, but the race detector cannot know that, and the scrubber is
	// already auditing this shard concurrently.
	slot := recordSlot(t, h, victim)
	h.subheaps[0].mu.Lock()
	err = h.Device().InjectBitFlip(slot+8, 0)
	h.subheaps[0].mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := h.Stats()
		if st.RepairedSubheaps >= 1 && h.Health() == StateHealthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrubber did not heal the heap: health=%v repaired=%d quarantined=%d",
				h.Health(), st.RepairedSubheaps, st.QuarantinedSubheaps)
		}
		time.Sleep(time.Millisecond)
	}

	checkPattern(t, th0, sentinel, pat, "sentinel")
	if err := th0.Free(victim); err != nil {
		t.Fatalf("Free(victim) after online repair: %v", err)
	}
	if _, err := th0.Alloc(64); err != nil {
		t.Fatal(err)
	}
	auditHeap(t, h)
}

// Online-scrub overhead benchmarks (numbers recorded in EXPERIMENTS.md);
// benchAllocFree is shared with the telemetry benchmarks in metrics_test.go.
func BenchmarkAllocFreeScrubOff(b *testing.B) {
	benchAllocFree(b, testOptions())
}

func BenchmarkAllocFreeScrubTight(b *testing.B) {
	opts := testOptions()
	opts.OnlineScrub = OnlineScrubOptions{Interval: 100 * time.Microsecond}
	benchAllocFree(b, opts)
}

func BenchmarkAllocFreeScrubThrottled(b *testing.B) {
	opts := testOptions()
	opts.OnlineScrub = OnlineScrubOptions{Interval: time.Millisecond, Throttle: 200 * time.Microsecond}
	benchAllocFree(b, opts)
}
