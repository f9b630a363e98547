package core

import (
	"errors"
	"testing"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

// trimOptions gives a tiny level-0 so level extension is easy to force.
func trimOptions() Options {
	return Options{
		Subheaps:        1,
		SubheapUserSize: 1 << 20,
		SubheapMetaSize: 128 << 10,
		UndoLogSize:     32 << 10,
		MaxThreads:      4,
		HeapID:          0x717,
		CrashTracking:   true,
	}
}

func TestTrimMetadataShrinksEmptyLevels(t *testing.T) {
	h, err := Create(trimOptions())
	if err != nil {
		t.Fatal(err)
	}
	th, err := h.Thread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()

	// Force the hash table to extend: allocate many small blocks.
	var ptrs []NVMPtr
	for {
		p, err := th.Alloc(64)
		if errors.Is(err, ErrOutOfMemory) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	s := h.subheaps[0]
	levelsBefore := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		n, err := s.mgr.ActiveLevels(s.win)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}()
	if levelsBefore < 2 {
		t.Fatalf("test needs a level extension; active levels = %d", levelsBefore)
	}

	// Free everything and coalesce it back into one block.
	for _, p := range ptrs {
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	big, err := th.Alloc(trimOptions().SubheapUserSize)
	if err != nil {
		t.Fatalf("coalescing alloc: %v", err)
	}
	if err := th.Free(big); err != nil {
		t.Fatal(err)
	}

	punched, err := h.TrimMetadata()
	if err != nil {
		t.Fatal(err)
	}
	if punched == 0 {
		t.Fatal("nothing punched")
	}
	levelsAfter := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		n, err := s.mgr.ActiveLevels(s.win)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}()
	if levelsAfter != 1 {
		t.Fatalf("active levels after trim = %d, want 1", levelsAfter)
	}

	// The heap still works and can grow its table again.
	var again []NVMPtr
	for i := 0; i < 800; i++ {
		p, err := th.Alloc(64)
		if errors.Is(err, ErrOutOfMemory) {
			break
		}
		if err != nil {
			t.Fatalf("alloc after trim: %v", err)
		}
		again = append(again, p)
	}
	if len(again) < 800 {
		t.Fatalf("only %d allocations after trim", len(again))
	}
	for _, p := range again {
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	auditHeap(t, h)
}

func TestTrimMetadataOnFreshHeap(t *testing.T) {
	h, err := Create(trimOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Unformatted sub-heaps are untouched.
	punched, err := h.TrimMetadata()
	if err != nil {
		t.Fatal(err)
	}
	if punched != 0 {
		t.Fatalf("punched %d bytes of an unformatted heap", punched)
	}
	// Formatted but barely used: the inactive levels are punchable.
	th, err := h.Thread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	if _, err := th.Alloc(64); err != nil {
		t.Fatal(err)
	}
	punched, err = h.TrimMetadata()
	if err != nil {
		t.Fatal(err)
	}
	if punched == 0 {
		t.Fatal("inactive levels not punched")
	}
	auditHeap(t, h)
}

func TestDefragmentFullPass(t *testing.T) {
	h, err := Create(trimOptions())
	if err != nil {
		t.Fatal(err)
	}
	th, err := h.Thread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	// Fragment the heap: many small blocks, all freed (no demand-driven
	// defrag runs because nothing asks for a large block). TxAllocs take
	// the locked path, so no magazine keeps any of them.
	var ptrs []NVMPtr
	for i := 0; i < 512; i++ {
		p, err := th.TxAlloc(64, true)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	merges, err := h.Defragment()
	if err != nil {
		t.Fatal(err)
	}
	if merges == 0 {
		t.Fatal("no merges performed")
	}
	// Fully coalesced: the whole region is one free block again, so a
	// whole-region allocation succeeds without further defragmentation.
	info, err := h.InspectSubheap(0)
	if err != nil {
		t.Fatal(err)
	}
	if info.FreeBlocks != 1 {
		t.Fatalf("free blocks after full defrag = %d, want 1", info.FreeBlocks)
	}
	p, err := th.Alloc(trimOptions().SubheapUserSize)
	if err != nil {
		t.Fatalf("whole-region alloc: %v", err)
	}
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
	auditHeap(t, h)
}

func TestDefragmentIdleHeapIsNoop(t *testing.T) {
	h, err := Create(trimOptions())
	if err != nil {
		t.Fatal(err)
	}
	merges, err := h.Defragment()
	if err != nil {
		t.Fatal(err)
	}
	if merges != 0 {
		t.Fatalf("merged %d on an untouched heap", merges)
	}
}

// TestTrimSkipsQuarantinedSubheap: a quarantined sub-heap's level count is
// not to be trusted. Here the media says 5 where 6 levels hold records; a
// trim that believed it would punch the sixth level, and with it the
// records of blocks Repair's mirror restore (6 levels) must find. The trim
// skips the sub-heap, so Repair restores it from the mirror and every
// block still resolves.
func TestTrimSkipsQuarantinedSubheap(t *testing.T) {
	opts := trimOptions()
	opts.Subheaps = 2
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	// Locked TxAllocs: the commit records Load replays are carves that do
	// not hold the level count.
	ptrs := make([]NVMPtr, 500)
	for i := range ptrs {
		if ptrs[i], err = th.TxAlloc(64, true); err != nil {
			t.Fatal(err)
		}
	}
	s := h.subheaps[0]
	s.mu.Lock()
	levels, err := s.mgr.ActiveLevels(s.win)
	s.mu.Unlock()
	if err != nil || levels != 6 {
		t.Fatalf("sub-heap 0 has %d active levels (%v), want 6", levels, err)
	}
	if err := h.SyncMirrors(); err != nil {
		t.Fatal(err)
	}
	// 6 -> 5 on the media.
	for _, bit := range []uint8{0, 1} {
		if err := h.Device().InjectBitFlip(s.mgr.Geometry().HeaderOff, bit); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	h.Close()
	opts.ScrubOnLoad = true
	h2, err := Load(h.Device(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if !h2.subheaps[0].isQuarantined() {
		t.Fatal("ScrubOnLoad left sub-heap 0 with a corrupt level count in service")
	}
	if _, err := h2.TrimMetadata(); err != nil {
		t.Fatalf("TrimMetadata: %v", err)
	}
	if err := h2.Repair(0); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if n := h2.Stats().MirrorRestores; n != 1 {
		t.Fatalf("MirrorRestores = %d, want 1", n)
	}
	th2 := newThread(t, h2)
	defer th2.Close()
	lost := 0
	for _, p := range ptrs {
		if size, err := th2.BlockSize(p); err != nil || size != 64 {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d blocks no longer resolve to 64 B", lost, len(ptrs))
	}
	auditHeap(t, h2)
}

// TestMaintenanceAttribution: each maintenance op charges its device
// traffic to its own class, whatever class the sub-heap's recorder was
// left at: Defragment and TrimMetadata to defrag, SyncMirrors to other.
// free, the class of the last Free, gains nothing.
func TestMaintenanceAttribution(t *testing.T) {
	opts := trimOptions()
	opts.Telemetry = obs.New()
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	th := newThread(t, h)
	var ptrs []NVMPtr
	for {
		p, err := th.Alloc(64)
		if errors.Is(err, ErrOutOfMemory) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	th.Close() // returns the magazine's blocks: the whole region is free
	attr := opts.Telemetry.Attribution()
	for _, step := range []struct {
		name string
		cls  nvm.OpClass
		run  func() error
	}{
		{"Defragment", nvm.ClassDefrag, func() error { _, err := h.Defragment(); return err }},
		{"TrimMetadata", nvm.ClassDefrag, func() error { _, err := h.TrimMetadata(); return err }},
		{"SyncMirrors", nvm.ClassOther, h.SyncMirrors},
	} {
		a0 := attr.Snapshot()
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		a1 := attr.Snapshot()
		var flushes, fences uint64
		for c := range a1 {
			flushes += a1[c].Flushes - a0[c].Flushes
			fences += a1[c].Fences - a0[c].Fences
		}
		got := [2]uint64{a1[step.cls].Flushes - a0[step.cls].Flushes, a1[step.cls].Fences - a0[step.cls].Fences}
		if flushes == 0 || got != [2]uint64{flushes, fences} {
			t.Fatalf("%s: %d flushes and %d fences, %v of them charged to %v", step.name, flushes, fences, got, step.cls)
		}
		if a1[nvm.ClassFree] != a0[nvm.ClassFree] {
			t.Fatalf("%s charged free: %+v -> %+v", step.name, a0[nvm.ClassFree], a1[nvm.ClassFree])
		}
	}
}
