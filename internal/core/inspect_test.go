package core

import (
	"strings"
	"testing"
)

func TestInspectSubheap(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	defer th.Close()
	// Sub-heap 0 gets two allocations, sub-heap 1 stays untouched.
	t0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	// Locked-path carves: a magazine refill would carve a whole batch.
	if _, err := t0.TxAlloc(64, true); err != nil {
		t.Fatal(err)
	}
	if _, err := t0.TxAlloc(4096, true); err != nil {
		t.Fatal(err)
	}
	info, err := h.InspectSubheap(0)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Initialized {
		t.Fatal("sub-heap 0 should be formatted")
	}
	if info.AllocatedBlocks != 2 {
		t.Fatalf("allocated blocks = %d", info.AllocatedBlocks)
	}
	if info.AllocatedBytes != 64+4096 {
		t.Fatalf("allocated bytes = %d", info.AllocatedBytes)
	}
	if info.FreeBlocks == 0 || info.FreeBytes == 0 {
		t.Fatal("no free blocks tracked")
	}
	if info.AllocatedBytes+info.FreeBytes != testOptions().SubheapUserSize {
		t.Fatalf("bytes don't tile the region: %d + %d",
			info.AllocatedBytes, info.FreeBytes)
	}
	if info.ClassHistogram[64] != 1 || info.ClassHistogram[4096] != 1 {
		t.Fatalf("histogram = %v", info.ClassHistogram)
	}
	if info.UndoLogEntries != 0 {
		t.Fatalf("undo log entries = %d on an idle heap", info.UndoLogEntries)
	}

	info1, err := h.InspectSubheap(1)
	if err != nil {
		t.Fatal(err)
	}
	if info1.Initialized {
		t.Fatal("sub-heap 1 should be lazy-unformatted")
	}
	if _, err := h.InspectSubheap(99); err == nil {
		t.Fatal("out-of-range sub-heap accepted")
	}
}

func TestInspectDump(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	defer th.Close()
	p, err := th.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetRoot(p); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
	// A rejected free shows up in the counters.
	_ = th.Free(p)

	var sb strings.Builder
	if err := h.Inspect(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Poseidon heap", "sub-heaps:", "root:", "allocated blocks",
		"1 allocs", "1 frees", "1 double frees",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, out)
		}
	}
}
