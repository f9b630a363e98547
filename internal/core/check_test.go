package core

import (
	"errors"
	"strings"
	"testing"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

func TestCheckCleanHeap(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	defer th.Close()
	p, err := th.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	report, err := h.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("problems: %v", report.Problems)
	}
	if report.AllocatedBlocks != 1 {
		t.Fatalf("allocated = %d", report.AllocatedBlocks)
	}
	if report.Formatted != 1 { // only shard 0 touched
		t.Fatalf("formatted = %d", report.Formatted)
	}
	if report.PendingUndo != 0 || report.PendingTx != 0 {
		t.Fatalf("pending work on a clean heap: %+v", report)
	}
	_ = p
}

func TestCheckDetectsDeliberateCorruption(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	defer th.Close()
	p, err := th.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the record's size word via the raw device (simulating what a
	// bug could do if MPK were absent): the audit must notice.
	dev, err := h.RawOffset(p)
	if err != nil {
		t.Fatal(err)
	}
	s := h.subheaps[0]
	s.mu.Lock()
	h.grant(s.thread)
	slot, err := s.mgr.Lookup(s.win, dev)
	h.revoke(s.thread)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Device().WriteU64(slot+8, 96); err != nil { // non-class size
		t.Fatal(err)
	}
	report, err := h.Check()
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() {
		t.Fatal("audit missed a corrupted record size")
	}
}

func TestCheckRawSeesPendingWork(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	// An open transaction leaves micro-log entries.
	if _, err := th.TxAlloc(64, false); err != nil {
		t.Fatal(err)
	}
	th.Close()
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	// Raw attach: recovery has not run; the pending transaction shows.
	raw, err := Attach(h.Device(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	report, err := raw.Check()
	if err != nil {
		t.Fatal(err)
	}
	if report.PendingTx == 0 {
		t.Fatal("raw audit missed the open transaction")
	}
	if !report.OK() {
		t.Fatalf("pending work must not be a problem: %v", report.Problems)
	}
	// Normal load performs the rollback; the pending work disappears.
	h2, err := Load(h.Device(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	report2, err := h2.Check()
	if err != nil {
		t.Fatal(err)
	}
	if report2.PendingTx != 0 {
		t.Fatalf("pending tx after recovery: %d", report2.PendingTx)
	}
	if !report2.OK() {
		t.Fatalf("problems after recovery: %v", report2.Problems)
	}
}

// TestOutOfRangeLaneEntry gives an open transaction, after its valid
// entry, an entry with a valid checksum whose location names a sub-heap
// the heap does not have. Check must report it and count only the valid
// entry as pending; Load must journal it, roll back only the valid entry's
// block and leave a clean heap.
func TestOutOfRangeLaneEntry(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	if _, err := th.TxAlloc(64, false); err != nil {
		t.Fatal(err)
	}
	bad := makePtr(0, uint16(h.lay.subheaps), 0).Loc()
	appendLane(t, h, th.laneI, bad)
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	raw, err := Attach(h.Device(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep := checkHeap(t, raw); rep.OK() || rep.PendingTx != 1 {
		t.Fatalf("raw audit: %d pending tx, problems %v; want 1 and the out-of-range entry", rep.PendingTx, rep.Problems)
	}
	opts := testOptions()
	opts.Telemetry = obs.New()
	h2, err := Load(h.Device(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	journaled := false
	for _, e := range opts.Telemetry.DrainEvents() {
		journaled = journaled || e.Kind == obs.EventScrubFinding && strings.Contains(e.Detail, "entry 1")
	}
	if st := h2.Stats(); !journaled || st.RecoveredBlocks != 1 || st.RecoveredNoops != 0 || st.Frees != 1 {
		t.Fatalf("Load: journaled %v, %d rolled back, %d no-ops, %d frees; want true, 1, 0, 1",
			journaled, st.RecoveredBlocks, st.RecoveredNoops, st.Frees)
	}
	if rep := checkHeap(t, h2); !rep.OK() || rep.PendingTx != 0 || rep.AllocatedBlocks != 0 {
		t.Fatalf("after Load: %d pending tx, %d allocated, problems %v", rep.PendingTx, rep.AllocatedBlocks, rep.Problems)
	}
}

func TestAttachRejectsGarbage(t *testing.T) {
	dev, err := nvm.NewDevice(nvm.Options{Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(dev, Options{}); !errors.Is(err, ErrCorruptHeap) {
		t.Fatalf("err = %v", err)
	}
}

// TestCrashDuringRecovery exercises §5.8's claim directly: recovery that
// is itself interrupted by a crash replays idempotently on the next load.
func TestCrashDuringRecovery(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	keeper, err := th.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	// Open transaction + an operation killed mid-commit.
	if _, err := th.TxAlloc(64, false); err != nil {
		t.Fatal(err)
	}
	h.Device().FailAfter(3)
	_, _ = th.Alloc(256) // dies inside the allocator
	h.Device().DisarmFailpoint()
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.5, Seed: 5}); err != nil {
		t.Fatal(err)
	}

	// First recovery attempt is ALSO killed partway through.
	h.Device().FailAfter(10)
	_, err = Load(h.Device(), testOptions())
	h.Device().DisarmFailpoint()
	if err == nil {
		t.Log("recovery finished within the failpoint budget; widening")
	}
	if _, cerr := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.5, Seed: 6}); cerr != nil {
		t.Fatal(cerr)
	}

	// Second recovery must complete and leave a consistent heap.
	h2, err := Load(h.Device(), testOptions())
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	report, err := h2.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("problems after crashed recovery: %v", report.Problems)
	}
	if report.PendingUndo != 0 || report.PendingTx != 0 {
		t.Fatalf("unfinished recovery work: %+v", report)
	}
	// The committed block survived both crashes.
	th2, err := h2.Thread()
	if err != nil {
		t.Fatal(err)
	}
	defer th2.Close()
	if err := th2.Free(keeper); err != nil {
		t.Fatalf("committed block lost: %v", err)
	}
}
