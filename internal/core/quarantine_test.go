package core

import (
	"bytes"
	"errors"
	"testing"

	"poseidon/internal/nvm"
)

// flipSizeBit flips bit 0 of the size word of p's record on the media: a
// 128-byte block's size becomes 129, not a class size. It first commits an
// alloc and a free on p's sub-heap, so the two commit records Load replays
// no longer hold that word — replay would put its committed value back.
func flipSizeBit(t *testing.T, h *Heap, p NVMPtr) {
	t.Helper()
	th, err := h.ThreadOn(int(p.Subheap()))
	if err != nil {
		t.Fatal(err)
	}
	q, err := th.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(q); err != nil {
		t.Fatal(err)
	}
	th.Close()
	if err := h.Device().InjectBitFlip(recordSlot(t, h, p)+8, 0); err != nil {
		t.Fatal(err)
	}
}

// recordSlot finds the hash-table slot of the record indexing p's block —
// the bit-flip target for media-corruption tests.
func recordSlot(t *testing.T, h *Heap, p NVMPtr) uint64 {
	t.Helper()
	dev, err := h.RawOffset(p)
	if err != nil {
		t.Fatal(err)
	}
	s := h.subheaps[p.Subheap()]
	s.mu.Lock()
	h.grant(s.thread)
	slot, err := s.mgr.Lookup(s.win, dev)
	h.revoke(s.thread)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return slot
}

// TestBitFlipQuarantinesSubheap is the degrade-don't-die acceptance test:
// a seeded bit flip in sub-heap 0's metadata must be detected by the
// ScrubOnLoad audit, quarantine exactly that sub-heap, and leave Alloc/Free
// on the healthy sub-heap fully functional.
func TestBitFlipQuarantinesSubheap(t *testing.T) {
	opts := testOptions()
	opts.ScrubOnLoad = true
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Touch both sub-heaps so both are formatted.
	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := th0.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	th1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := th1.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	th0.Close()
	th1.Close()

	// Flip one bit in the size word of sub-heap 0's block record: 128
	// becomes 129, which is not a power-of-two class size. InjectBitFlip
	// corrupts both the volatile and persistent images, so the damage
	// survives the crash below — media corruption, not a dirty store.
	flipSizeBit(t, h, p0)

	h2 := func() *Heap {
		if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
			t.Fatal(err)
		}
		_ = h.Close()
		h2, err := Load(h.Device(), opts)
		if err != nil {
			t.Fatalf("Load must degrade, not die: %v", err)
		}
		return h2
	}()

	// The corruption was detected at Load and sub-heap 0 quarantined.
	if !h2.subheaps[0].isQuarantined() {
		t.Fatal("sub-heap 0 not quarantined after metadata bit flip")
	}
	if h2.subheaps[1].isQuarantined() {
		t.Fatal("healthy sub-heap 1 was quarantined")
	}
	stats := h2.Stats()
	if stats.QuarantinedSubheaps != 1 {
		t.Fatalf("QuarantinedSubheaps = %d, want 1", stats.QuarantinedSubheaps)
	}
	if stats.QuarantinedBytes != testOptions().SubheapUserSize {
		t.Fatalf("QuarantinedBytes = %d, want %d", stats.QuarantinedBytes, testOptions().SubheapUserSize)
	}
	report, err := h2.Check()
	if err != nil {
		t.Fatal(err)
	}
	if report.Quarantined != 1 {
		t.Fatalf("Check Quarantined = %d, want 1", report.Quarantined)
	}
	if !report.OK() {
		t.Fatalf("quarantine must absorb the problems, got: %v", report.Problems)
	}
	if report.Healthy() {
		t.Fatal("Healthy() must be false with quarantined capacity")
	}
	var sub0 SubheapReport
	for _, sr := range report.SubheapReports {
		if sr.ID == 0 {
			sub0 = sr
		}
	}
	if !sub0.Quarantined || sub0.QuarantineReason == "" {
		t.Fatalf("sub-heap 0 report: %+v", sub0)
	}

	// A thread pinned to the quarantined shard still allocates — redirected
	// to the healthy sub-heap.
	q, err := h2.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	pa, err := q.Alloc(64)
	if err != nil {
		t.Fatalf("Alloc on quarantined shard must redirect: %v", err)
	}
	if pa.Subheap() != 1 {
		t.Fatalf("redirected alloc landed in sub-heap %d, want 1", pa.Subheap())
	}
	pt, err := q.TxAlloc(64, true)
	if err != nil {
		t.Fatalf("TxAlloc on quarantined shard must redirect: %v", err)
	}
	if pt.Subheap() != 1 {
		t.Fatalf("redirected tx alloc landed in sub-heap %d, want 1", pt.Subheap())
	}

	// Frees on the healthy sub-heap work; frees into the quarantined region
	// are rejected with the dedicated error.
	if err := q.Free(p1); err != nil {
		t.Fatalf("Free on healthy sub-heap: %v", err)
	}
	if err := q.Free(p0); !errors.Is(err, ErrSubheapQuarantined) {
		t.Fatalf("Free into quarantined sub-heap: %v, want ErrSubheapQuarantined", err)
	}
	if _, err := q.BlockSize(p0); !errors.Is(err, ErrSubheapQuarantined) {
		t.Fatalf("BlockSize on quarantined sub-heap: %v, want ErrSubheapQuarantined", err)
	}
}

// TestAllSubheapsQuarantined verifies the terminal case: with every
// sub-heap benched, allocations fail with ErrSubheapQuarantined rather
// than panicking or looping.
func TestAllSubheapsQuarantined(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	defer th.Close()
	if _, err := th.Alloc(64); err != nil {
		t.Fatal(err)
	}
	for _, s := range h.subheaps {
		s.quarantine("test")
	}
	if _, err := th.Alloc(64); !errors.Is(err, ErrSubheapQuarantined) {
		t.Fatalf("Alloc = %v, want ErrSubheapQuarantined", err)
	}
	if _, err := th.TxAlloc(64, true); !errors.Is(err, ErrSubheapQuarantined) {
		t.Fatalf("TxAlloc = %v, want ErrSubheapQuarantined", err)
	}
}

// TestThreadRoutesAroundQuarantine pins the satellite fix for the raw
// round-robin shard pick: Thread() used to assign `counter % subheaps`
// blindly, so a new thread could be pinned to a quarantined sub-heap and
// fail every allocation. It must route through healthyShard instead.
func TestThreadRoutesAroundQuarantine(t *testing.T) {
	opts := Options{
		Subheaps:        2,
		SubheapUserSize: 512 << 10,
		SubheapMetaSize: 256 << 10,
		UndoLogSize:     64 << 10,
		MaxThreads:      16,
		HeapID:          0xC0B1,
		CrashTracking:   true,
	}
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	h.subheaps[0].quarantine("test: simulated media failure")

	for i := 0; i < 8; i++ {
		th, err := h.Thread()
		if err != nil {
			t.Fatalf("Thread %d: %v", i, err)
		}
		if th.shard == 0 {
			t.Fatalf("Thread %d pinned to quarantined sub-heap 0", i)
		}
		if _, err := th.Alloc(64); err != nil {
			t.Fatalf("Thread %d alloc on healthy shard: %v", i, err)
		}
		th.Close()
	}

	// With every sub-heap quarantined registration must still succeed (the
	// thread is unusable for allocation, but Close/teardown paths need it).
	h.subheaps[1].quarantine("test: simulated media failure")
	th, err := h.Thread()
	if err != nil {
		t.Fatalf("Thread with all sub-heaps quarantined: %v", err)
	}
	if _, err := th.Alloc(64); !errors.Is(err, ErrSubheapQuarantined) {
		t.Fatalf("alloc on fully quarantined heap = %v, want ErrSubheapQuarantined", err)
	}
	th.Close()
}

// TestLoadSurvivesTransientReadFaults exercises the bounded-retry path:
// two transient read faults on the superblock's magic word, then on the
// header of the newer geometry slot (generation 2 lives in slot 0); Load
// must retry through them and count the retries.
func TestLoadSurvivesTransientReadFaults(t *testing.T) {
	for name, off := range map[string]uint64{"magic": sbMagicOff, "geometry": geometryRecord.Off(0)} {
		t.Run(name, func(t *testing.T) {
			h := newTestHeap(t)
			th := newThread(t, h)
			if _, err := th.Alloc(128); err != nil {
				t.Fatal(err)
			}
			th.Close()
			if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
				t.Fatal(err)
			}
			_ = h.Close()

			h.Device().ArmTransientFaults(nvm.TransientFaults{
				Off:       off,
				Len:       8,
				Reads:     true,
				MaxFaults: 2,
				Seed:      1,
			})
			h2, err := Load(h.Device(), testOptions())
			h.Device().DisarmTransientFaults()
			if err != nil {
				t.Fatalf("Load must survive transient faults: %v", err)
			}
			if got := h2.Stats().TransientRetries; got != 2 {
				t.Fatalf("TransientRetries = %d, want 2", got)
			}
			auditHeap(t, h2)
		})
	}
}

// TestLoadFailsWhenTransientFaultsPersist pins the bound: a fault that
// outlasts every retry surfaces as an error instead of hanging.
func TestLoadFailsWhenTransientFaultsPersist(t *testing.T) {
	h := newTestHeap(t)
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	_ = h.Close()

	h.Device().ArmTransientFaults(nvm.TransientFaults{
		Off:   sbMagicOff,
		Len:   8,
		Reads: true,
		Seed:  1,
	})
	defer h.Device().DisarmTransientFaults()
	if _, err := Load(h.Device(), testOptions()); !errors.Is(err, nvm.ErrTransient) {
		t.Fatalf("Load = %v, want ErrTransient", err)
	}
}

// twoBlocks allocates p and q, two 128 KiB blocks of sub-heap 0 at user
// offsets 0 and 0x20000, p with alloc and q with a plain Alloc, and
// persists a pattern into q.
func twoBlocks(t *testing.T, h *Heap, alloc func(*Thread) (NVMPtr, error)) (th *Thread, p, q NVMPtr, data []byte) {
	t.Helper()
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	if p, err = alloc(th); err != nil {
		t.Fatal(err)
	}
	if q, err = th.Alloc(128 << 10); err != nil {
		t.Fatal(err)
	}
	if p.Offset() != 0 || q.Offset() != 0x20000 {
		t.Fatalf("blocks at %#x and %#x, want 0 and 0x20000", p.Offset(), q.Offset())
	}
	data = bytes.Repeat([]byte("live q "), 512)
	if err := th.Persist(q, 0, data); err != nil {
		t.Fatal(err)
	}
	return th, p, q, data
}

// TestFreeRefusesCorruptRecord flips p's record size to 131,073, which no
// class has. Free(p) must refuse the record and change nothing: filed on
// the 256 KiB list, p would come back from the next Alloc(256 KiB)
// overlapping q.
func TestFreeRefusesCorruptRecord(t *testing.T) {
	h := newTestHeap(t)
	defer h.Close()
	th, p, q, _ := twoBlocks(t, h, func(th *Thread) (NVMPtr, error) { return th.Alloc(128 << 10) })
	defer th.Close()
	flipSizeBit(t, h, p)
	if err := th.Free(p); !errors.Is(err, ErrCorruptHeap) {
		t.Fatalf("Free of a record of size 131073: %v, want ErrCorruptHeap", err)
	}
	for {
		r, err := th.Alloc(256 << 10)
		if errors.Is(err, ErrOutOfMemory) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if r.Offset() < q.Offset()+128<<10 && q.Offset() < r.Offset()+256<<10 {
			t.Fatalf("Alloc(256 KiB) returned %#x, overlapping live q at %#x", r.Offset(), q.Offset())
		}
	}
	if size, err := th.BlockSize(q); err != nil || size != 128<<10 {
		t.Fatalf("q: BlockSize %d, %v; want 128 KiB", size, err)
	}
}

// TestRollbackQuarantinesCorruptRecord rolls back an open TxAlloc whose
// record size was flipped to 131,073. Load, without ScrubOnLoad, must
// quarantine sub-heap 0 instead of filing the record or failing, and
// Repair must return it to service with q's size and bytes intact.
func TestRollbackQuarantinesCorruptRecord(t *testing.T) {
	h := newTestHeap(t)
	_, p, q, data := twoBlocks(t, h, func(th *Thread) (NVMPtr, error) { return th.TxAlloc(128<<10, false) })
	flipSizeBit(t, h, p)
	h2 := reload(t, h, nvm.CrashPolicy{Mode: nvm.EvictNone})
	defer h2.Close()
	if !h2.subheaps[0].isQuarantined() {
		t.Fatal("rollback of a corrupt record did not quarantine sub-heap 0")
	}
	if err := h2.Repair(0); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	auditHeap(t, h2)
	th := newThread(t, h2)
	defer th.Close()
	if size, err := th.BlockSize(q); err != nil || size != 128<<10 {
		t.Fatalf("q after Repair: BlockSize %d, %v; want 128 KiB", size, err)
	}
	got := make([]byte, len(data))
	if err := th.Read(q, 0, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("q after Repair: %v, bytes intact %v", err, bytes.Equal(got, data))
	}
}
