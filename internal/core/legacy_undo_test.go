package core

import (
	"testing"

	"poseidon/internal/nvm"
)

// rewriteUndoLegacy turns every undo log of a crashed image into the
// pre-checksum format: no format word and no sum, a clean log with count 0,
// a dirty (sealed, untruncated) log with count and cursor as its seal left
// them. It reports whether any log was dirty.
func rewriteUndoLegacy(t *testing.T, h *Heap) bool {
	t.Helper()
	dev := h.Device()
	bases := []uint64{sbUndoOff}
	for i := range h.subheaps {
		bases = append(bases, h.lay.undoBase(i))
	}
	var zero [8]byte
	dirty := false
	for _, base := range bases {
		sum, err := dev.ReadU64(base + 16)
		if err != nil {
			t.Fatal(err)
		}
		offs := []uint64{base + 16, base + 24} // sum, format word
		if sum == 0 {
			offs = append(offs, base) // truncated: legacy clears count
		} else {
			dirty = true
		}
		for _, off := range offs {
			if err := dev.Write(off, zero[:]); err != nil {
				t.Fatal(err)
			}
		}
		if err := dev.Flush(base, 32); err != nil {
			t.Fatal(err)
		}
	}
	return dirty
}

// TestLegacyUndoImageRollsBack stops an Alloc at every device store, rewrites
// the crashed image's undo logs in the legacy format, and loads it: a dirty
// legacy log must roll the Alloc back by trusting count, and every image
// must audit clean.
func TestLegacyUndoImageRollsBack(t *testing.T) {
	rolledBack := 0
	for budget := int64(1); ; budget++ {
		h := newTestHeap(t)
		th := newThread(t, h)
		for i := 0; i < 4; i++ {
			if _, err := th.Alloc(256); err != nil {
				t.Fatal(err)
			}
		}
		h.Device().FailAfter(budget)
		_, allocErr := th.Alloc(256)
		h.Device().DisarmFailpoint()
		th.Close()
		if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
			t.Fatal(err)
		}
		dirty := rewriteUndoLegacy(t, h)
		_ = h.Close()
		h2, err := Load(h.Device(), testOptions())
		if err != nil {
			t.Fatalf("budget %d: load legacy image: %v", budget, err)
		}
		rep, err := h2.Check()
		if err != nil || !rep.OK() {
			t.Fatalf("budget %d: check: %v %v", budget, err, rep.Problems)
		}
		if want := uint64(4); dirty && rep.AllocatedBlocks != want {
			t.Fatalf("budget %d: dirty legacy log left %d blocks, want %d", budget, rep.AllocatedBlocks, want)
		}
		if dirty {
			rolledBack++
		}
		_ = h2.Close()
		if allocErr == nil {
			break
		}
	}
	if rolledBack == 0 {
		t.Fatal("no crash point left a dirty undo log")
	}
}
