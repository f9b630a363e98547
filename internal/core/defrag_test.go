package core

import (
	"errors"
	"testing"

	"poseidon/internal/memblock"
)

// TestProbeWindowDefrag exercises §5.4 case 2 directly: when the hash
// table has no slot in a key's probe window, merging free blocks recorded
// in that window releases slots locally.
func TestProbeWindowDefrag(t *testing.T) {
	h := newTestHeap(t)
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()

	// Two adjacent 64 B buddies (offsets 0 and 64 of the region, since the
	// first splits carve the region front-to-back), carved by the locked
	// path.
	a, err := th.TxAlloc(64, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := th.TxAlloc(64, true)
	if err != nil {
		t.Fatal(err)
	}
	if b.Offset() != a.Offset()+64 || a.Offset()%128 != 0 {
		t.Fatalf("blocks not a buddy pair: %#x, %#x", a.Offset(), b.Offset())
	}
	if err := th.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(b); err != nil {
		t.Fatal(err)
	}

	s := h.subheaps[0]
	s.mu.Lock()
	h.grant(s.thread)
	aDev, err := h.lay.locToDevice(0, a.Offset())
	if err != nil {
		t.Fatal(err)
	}
	merged, err := s.defragProbeWindow(aDev)
	if err != nil {
		t.Fatal(err)
	}
	if !merged {
		t.Fatal("probe-window defrag merged nothing")
	}
	// The pair is now one 128 B free block; b's record is gone.
	slot, err := s.mgr.Lookup(s.win, aDev)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.mgr.ReadRecord(s.win, slot)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Size < 128 || rec.Status != memblock.StatusFree {
		t.Fatalf("merged record = %+v", rec)
	}
	bDev := aDev + 64
	if _, err := s.mgr.Lookup(s.win, bDev); !errors.Is(err, memblock.ErrNotFound) {
		t.Fatalf("absorbed buddy still indexed: %v", err)
	}
	h.revoke(s.thread)
	s.mu.Unlock()
	auditHeap(t, h)
}

// TestMergeBuddySkipsNonCandidates pins the guards of mergeBuddy: stale
// slots, allocated blocks, mismatched sizes and max-class blocks never
// merge.
func TestMergeBuddySkipsNonCandidates(t *testing.T) {
	h := newTestHeap(t)
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	a, err := th.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// a allocated; its buddy (split remainder) is free — merge must refuse
	// from either side because a is allocated.
	s := h.subheaps[0]
	s.mu.Lock()
	h.grant(s.thread)
	defer func() {
		h.revoke(s.thread)
		s.mu.Unlock()
	}()
	aDev, err := h.lay.locToDevice(0, a.Offset())
	if err != nil {
		t.Fatal(err)
	}
	slotA, err := s.mgr.Lookup(s.win, aDev)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := s.mergeBuddy(slotA)
	if err != nil {
		t.Fatal(err)
	}
	if merged {
		t.Fatal("merged an allocated block")
	}
	// The free buddy of the allocated block also refuses.
	slotB, err := s.mgr.Lookup(s.win, aDev+64)
	if err != nil {
		t.Fatal(err)
	}
	merged, err = s.mergeBuddy(slotB)
	if err != nil {
		t.Fatal(err)
	}
	if merged {
		t.Fatal("merged into an allocated buddy")
	}
}

// TestMprotectModeCountsSwitches verifies the ablation plumbing: the
// mprotect-style protection performs the same grant/revoke pairs, only
// priced differently.
func TestMprotectModeCountsSwitches(t *testing.T) {
	opts := testOptions()
	opts.Protection = ProtectMprotect
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	th, err := h.Thread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	p, err := th.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
	if got := h.Stats().PermissionSwitches; got == 0 {
		t.Fatal("mprotect mode recorded no switches")
	}
}
