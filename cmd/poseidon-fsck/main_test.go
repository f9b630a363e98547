package main

import (
	"path/filepath"
	"runtime"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/nvm"
)

// corruptImage builds a heap image with one media bit flip in sub-heap 0's
// metadata and saves it to a temp file.
func corruptImage(t *testing.T) string {
	t.Helper()
	h, err := core.Create(core.Options{
		Subheaps:        2,
		SubheapUserSize: 1 << 20,
		SubheapMetaSize: 256 << 10,
		UndoLogSize:     64 << 10,
		MaxThreads:      8,
		HeapID:          0xF5C4,
		CrashTracking:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for w := 0; w < 2; w++ {
		th, err := h.ThreadOn(w)
		if err != nil {
			t.Fatal(err)
		}
		p, err := th.Alloc(128)
		if err != nil {
			t.Fatal(err)
		}
		if w == 0 {
			// Two more commits, so the two commit records Load replays no
			// longer hold p's record: replay would undo the flip.
			q, err := th.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if err := th.Free(q); err != nil {
				t.Fatal(err)
			}
			slot, err := h.RecordSlot(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Device().InjectBitFlip(slot+8, 0); err != nil {
				t.Fatal(err)
			}
		}
		th.Close()
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corrupt.img")
	if err := h.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFsckRepairRoundTrip drives the CLI engine end to end: a scrub audit
// classifies the corrupt image as degraded, -repair heals it and saves it
// back, and a fresh scrub of the same file comes up clean.
func TestFsckRepairRoundTrip(t *testing.T) {
	path := corruptImage(t)

	rep, err := run(path, false, true, false, false)
	if err != nil {
		t.Fatalf("scrub run: %v", err)
	}
	if !rep.Report.OK() {
		t.Fatalf("scrub audit must absorb quarantined problems: %v", rep.Report.Problems)
	}
	if rep.Report.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1 (degraded, exit 3)", rep.Report.Quarantined)
	}

	// Repair through a 4-way recovery, scrub and repair walk (the pool is
	// GOMAXPROCS wide); the healed image must come up clean all the same.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rep, err = run(path, false, false, true, false)
	if err != nil {
		t.Fatalf("repair run: %v", err)
	}
	if rep.Repaired != 1 {
		t.Fatalf("Repaired = %d, want 1", rep.Repaired)
	}
	if !rep.Report.OK() || !rep.Report.Healthy() {
		t.Fatalf("post-repair report: OK=%v Healthy=%v problems=%v",
			rep.Report.OK(), rep.Report.Healthy(), rep.Report.Problems)
	}

	// The healed image was written back: a fresh audit is clean.
	rep, err = run(path, false, true, false, false)
	if err != nil {
		t.Fatalf("re-audit run: %v", err)
	}
	if !rep.Report.OK() || !rep.Report.Healthy() {
		t.Fatalf("saved-back image not clean: OK=%v Healthy=%v quarantined=%d",
			rep.Report.OK(), rep.Report.Healthy(), rep.Report.Quarantined)
	}
}
