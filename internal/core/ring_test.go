package core

import (
	"errors"
	"testing"

	"poseidon/internal/memblock"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

// ringOptions is testOptions with the remote-free rings enabled. The ring
// tests carve their cross-shard victims with committed TxAllocs: a Free of
// a magazine-popped block goes into the freeing thread's magazine,
// whichever shard owns it, so only locked-path blocks reach a ring.
func ringOptions() Options {
	o := testOptions()
	o.RemoteFreeRings = true
	return o
}

// checkHeap runs the audit and returns the report, failing on I/O errors.
func checkHeap(t *testing.T, h *Heap) CheckReport {
	t.Helper()
	report, err := h.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return report
}

// TestRemoteFreeRingDrainAndReuse is the tentpole happy path: cross-sub-heap
// frees ride the owner's ring without its lock, the owner's drain turns them
// into real frees, and the freed space is reusable.
func TestRemoteFreeRingDrainAndReuse(t *testing.T) {
	h, err := Create(ringOptions())
	if err != nil {
		t.Fatal(err)
	}
	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	th1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	defer th0.Close()
	defer th1.Close()

	var ptrs []NVMPtr
	for i := 0; i < 8; i++ {
		p, err := th0.TxAlloc(128, true)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := th1.Free(p); err != nil {
			t.Fatalf("remote Free: %v", err)
		}
	}
	st := h.Stats()
	if st.RemoteFrees != 8 {
		t.Fatalf("RemoteFrees = %d, want 8", st.RemoteFrees)
	}
	if report := checkHeap(t, h); report.PendingRemote != 8 || !report.OK() {
		t.Fatalf("pre-drain audit: PendingRemote = %d, problems = %v",
			report.PendingRemote, report.Problems)
	}

	if err := h.DrainRemoteFrees(); err != nil {
		t.Fatalf("DrainRemoteFrees: %v", err)
	}
	st = h.Stats()
	if st.RemoteDrains != 8 || st.Frees != 8 {
		t.Fatalf("after drain: RemoteDrains = %d, Frees = %d, want 8, 8",
			st.RemoteDrains, st.Frees)
	}
	if report := checkHeap(t, h); report.PendingRemote != 0 || !report.OK() {
		t.Fatalf("post-drain audit: PendingRemote = %d, problems = %v",
			report.PendingRemote, report.Problems)
	}
	auditHeap(t, h)
}

// TestRemoteFreeDrainOnAllocPressure verifies the errNoFreeBlock drain
// point: with the whole sub-heap parked on its remote-free ring, a
// same-size allocation must drain the ring and succeed instead of
// reporting out-of-memory.
func TestRemoteFreeDrainOnAllocPressure(t *testing.T) {
	opts := ringOptions()
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	th1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	defer th0.Close()
	defer th1.Close()

	whole, err := th0.Alloc(opts.SubheapUserSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := th1.Free(whole); err != nil {
		t.Fatalf("remote Free: %v", err)
	}
	// The block is still pending on the ring; only the drain can satisfy
	// this.
	again, err := th0.Alloc(opts.SubheapUserSize)
	if err != nil {
		t.Fatalf("Alloc under ring-pending pressure: %v", err)
	}
	st := h.Stats()
	if st.RemoteFrees != 1 || st.RemoteDrains != 1 || st.Frees != 1 {
		t.Fatalf("stats = %+v, want 1 remote free drained into 1 free", st)
	}
	if err := th0.Free(again); err != nil {
		t.Fatal(err)
	}
	auditHeap(t, h)
}

// TestRemoteFreeRingFullFallsBack fills the 32-slot ring and verifies the
// overflow free takes the locked path (never blocking, never lost), after
// which the drained ring accepts entries again.
func TestRemoteFreeRingFullFallsBack(t *testing.T) {
	h, err := Create(ringOptions())
	if err != nil {
		t.Fatal(err)
	}
	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	th1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	defer th0.Close()
	defer th1.Close()

	const n = memblock.RingSlots + 8
	var ptrs []NVMPtr
	for i := 0; i < n; i++ {
		p, err := th0.TxAlloc(128, true)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := th1.Free(p); err != nil {
			t.Fatalf("Free: %v", err)
		}
	}
	st := h.Stats()
	if st.RingFallbacks == 0 {
		t.Fatalf("no ring fallbacks across %d frees into a %d-slot ring",
			n, memblock.RingSlots)
	}
	if err := h.DrainRemoteFrees(); err != nil {
		t.Fatal(err)
	}
	if st = h.Stats(); st.Frees != n {
		t.Fatalf("Frees = %d, want %d (none lost across ring + fallback)", st.Frees, n)
	}
	if report := checkHeap(t, h); report.PendingRemote != 0 {
		t.Fatalf("PendingRemote = %d after full drain", report.PendingRemote)
	}
	auditHeap(t, h)
}

// TestRemoteFreeCrashReplayIdempotent crashes with un-drained ring entries —
// including a double free and an invalid interior-pointer free, which a
// ring-routed Free accepts without validation — and verifies recovery
// replays them idempotently: one real free, the rest counted rejects.
func TestRemoteFreeCrashReplayIdempotent(t *testing.T) {
	opts := ringOptions()
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	th1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}

	p, err := th0.TxAlloc(128, true)
	if err != nil {
		t.Fatal(err)
	}
	// Deferred validation: both the double free and the interior-pointer
	// free are accepted at enqueue time.
	for i := 0; i < 2; i++ {
		if err := th1.Free(p); err != nil {
			t.Fatalf("ring-routed Free %d: %v", i, err)
		}
	}
	interior := makePtr(h.HeapID(), 0, p.Offset()+64)
	if err := th1.Free(interior); err != nil {
		t.Fatalf("ring-routed interior free: %v", err)
	}
	th0.Close()
	th1.Close()

	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	_ = h.Close()
	h2, err := Load(h.Device(), opts)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	st := h2.Stats()
	if st.Frees != 1 || st.DoubleFrees != 1 || st.InvalidFrees != 1 {
		t.Fatalf("replay stats: Frees=%d DoubleFrees=%d InvalidFrees=%d, want 1,1,1",
			st.Frees, st.DoubleFrees, st.InvalidFrees)
	}
	if st.RecoveredNoops != 2 {
		t.Fatalf("RecoveredNoops = %d, want 2 (rejected replays are no-ops)", st.RecoveredNoops)
	}
	if st.RemoteDrains != 1 {
		t.Fatalf("RemoteDrains = %d, want 1", st.RemoteDrains)
	}
	if report := checkHeap(t, h2); report.PendingRemote != 0 || !report.OK() {
		t.Fatalf("post-replay audit: PendingRemote = %d, problems = %v",
			report.PendingRemote, report.Problems)
	}
	auditHeap(t, h2)

	// The ring re-armed after a clean replay: remote frees still work.
	ta, err := h2.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := h2.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	defer tb.Close()
	q, err := ta.TxAlloc(128, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Free(q); err != nil {
		t.Fatal(err)
	}
	if h2.Stats().RemoteFrees == 0 {
		t.Fatal("ring not re-armed after clean replay")
	}
	if err := h2.DrainRemoteFrees(); err != nil {
		t.Fatal(err)
	}
	auditHeap(t, h2)
}

// TestRemoteFreeRingBitFlipQuarantine seeds media corruption in a pending
// ring entry: recovery must not crash, must not replay the corrupt entry,
// and the ScrubOnLoad audit must quarantine the owning sub-heap.
func TestRemoteFreeRingBitFlipQuarantine(t *testing.T) {
	opts := ringOptions()
	opts.ScrubOnLoad = true
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	th1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	// Format sub-heap 1 too so the healthy half is live after the reload.
	p1, err := th1.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := th0.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := th1.Free(p0); err != nil { // ticket 0 → slot 0 of sub-heap 0's ring
		t.Fatal(err)
	}
	th0.Close()
	th1.Close()

	// Byte 7 of the slot word holds checksum bits only: the flip guarantees
	// a checksum mismatch. InjectBitFlip corrupts both images, so this is
	// media corruption, not a recoverable dirty store.
	ringBase := h.subheaps[0].ring.Base()
	if err := h.Device().InjectBitFlip(ringBase+7, 3); err != nil {
		t.Fatal(err)
	}

	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	_ = h.Close()
	h2, err := Load(h.Device(), opts)
	if err != nil {
		t.Fatalf("Load must degrade, not die: %v", err)
	}
	if !h2.subheaps[0].isQuarantined() {
		t.Fatal("sub-heap 0 not quarantined after ring entry bit flip")
	}
	if h2.subheaps[1].isQuarantined() {
		t.Fatal("healthy sub-heap 1 was quarantined")
	}
	// The corrupt entry must not have been replayed as a free.
	if st := h2.Stats(); st.Frees != 0 || st.RemoteDrains != 0 {
		t.Fatalf("corrupt entry was replayed: %+v", st)
	}
	report := checkHeap(t, h2)
	if !report.OK() {
		t.Fatalf("quarantine must absorb the problems, got: %v", report.Problems)
	}
	if report.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", report.Quarantined)
	}

	// The healthy sub-heap still serves, including its untouched block.
	tb, err := h2.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if err := tb.Free(p1); err != nil {
		t.Fatalf("free on healthy sub-heap: %v", err)
	}
}

// TestRemoteFreeCheckReportsPendingAndCorrupt pins the audit semantics:
// valid pending entries count as PendingRemote (not problems — they are
// legal crash states), while undecodable and out-of-range entries are
// structural problems.
func TestRemoteFreeCheckReportsPendingAndCorrupt(t *testing.T) {
	h, err := Create(ringOptions())
	if err != nil {
		t.Fatal(err)
	}
	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	th1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	defer th0.Close()
	defer th1.Close()
	pa, err := th0.TxAlloc(128, true)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := th0.TxAlloc(128, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := th1.Free(pa); err != nil {
		t.Fatal(err)
	}
	if err := th1.Free(pb); err != nil {
		t.Fatal(err)
	}
	if report := checkHeap(t, h); report.PendingRemote != 2 || !report.OK() {
		t.Fatalf("PendingRemote = %d, problems = %v; want 2, none",
			report.PendingRemote, report.Problems)
	}

	// Hand-plant an entry pointing past the user region into an unused
	// slot, and corrupt one pending entry's checksum.
	s := h.subheaps[0]
	g := s.mgr.Geometry()
	outOfRange := memblock.EncodeRingEntry(g.UserSize+64, 0)
	s.mu.Lock()
	h.grant(s.thread)
	werr := s.win.WriteU64(s.ring.Base()+2*memblock.RingSlotBytes, outOfRange)
	h.revoke(s.thread)
	s.mu.Unlock()
	if werr != nil {
		t.Fatal(werr)
	}
	if err := h.Device().InjectBitFlip(s.ring.Base()+7, 3); err != nil {
		t.Fatal(err)
	}

	report := checkHeap(t, h)
	if report.OK() {
		t.Fatal("audit missed the corrupt and out-of-range ring entries")
	}
	var corrupt, outside bool
	for _, p := range report.Problems {
		switch {
		case contains(p, "corrupt entry"):
			corrupt = true
		case contains(p, "outside user region"):
			outside = true
		}
	}
	if !corrupt || !outside {
		t.Fatalf("problems = %v; want both a corrupt and an out-of-range finding",
			report.Problems)
	}
	if report.PendingRemote != 1 {
		t.Fatalf("PendingRemote = %d, want 1 (the surviving valid entry)", report.PendingRemote)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestRemoteFreeDisabledByDefault guards the opt-in: without
// Options.RemoteFreeRings, cross-sub-heap frees stay synchronous and
// validation errors surface at the call site.
func TestRemoteFreeDisabledByDefault(t *testing.T) {
	h := newTestHeap(t)
	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	th1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	defer th0.Close()
	defer th1.Close()
	p, err := th0.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := th1.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := th1.Free(p); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("second Free = %v, want ErrDoubleFree synchronously", err)
	}
	if st := h.Stats(); st.RemoteFrees != 0 || st.RemoteDrains != 0 {
		t.Fatalf("ring used without opt-in: %+v", st)
	}
	auditHeap(t, h)
}

// TestRemoteFreeRejectedTelemetry is the regression test for the Free
// telemetry fix: a rejected free must not contribute an OpFree latency
// sample (it measures the validation path, not a free) — it is journalled
// as EventFreeRejected instead. A drained batch lands in the drain
// histogram.
func TestRemoteFreeRejectedTelemetry(t *testing.T) {
	tel := obs.New()
	opts := ringOptions()
	opts.Telemetry = tel
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	th1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	defer th0.Close()
	defer th1.Close()

	p, err := th0.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	// Same-shard path validates synchronously.
	if err := th0.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := th0.Free(p); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free = %v", err)
	}
	if got := tel.Hist(obs.OpFree).Count; got != 1 {
		t.Fatalf("OpFree samples = %d after 1 accepted + 1 rejected free, want 1", got)
	}
	var rejected bool
	for _, e := range tel.Events() {
		if e.Kind == obs.EventFreeRejected && e.Subheap == 0 {
			rejected = true
		}
	}
	if !rejected {
		t.Fatal("no EventFreeRejected journal entry for the rejected free")
	}

	// Ring-routed free + drain shows up in the drain histogram.
	q, err := th0.TxAlloc(128, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := th1.Free(q); err != nil {
		t.Fatal(err)
	}
	if err := h.DrainRemoteFrees(); err != nil {
		t.Fatal(err)
	}
	if tel.Hist(obs.OpDrain).Count == 0 {
		t.Fatal("drain batch not recorded in the OpDrain histogram")
	}
	auditHeap(t, h)
}
