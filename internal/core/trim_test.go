package core

import (
	"errors"
	"testing"
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
