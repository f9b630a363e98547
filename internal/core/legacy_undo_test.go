package core

import (
	"encoding/binary"
	"math/bits"
	"testing"

	"poseidon/internal/nvm"
)

// legacyUndoSum is the checksum the undo code sealed its UNDOSUM1 logs
// with: xxHash64-style rounds over every entry word, then count and
// cursor, avalanched and kept off zero.
func legacyUndoSum(entries []byte, count, cursor uint64) uint64 {
	round := func(h, w uint64) uint64 {
		return bits.RotateLeft64(h+w*0xC2B2AE3D27D4EB4F, 31) * 0x9E3779B185EBCA87
	}
	h := uint64(0x243F6A8885A308D3)
	for ; len(entries) >= 8; entries = entries[8:] {
		h = round(h, binary.LittleEndian.Uint64(entries))
	}
	h = round(round(h, count), cursor)
	h ^= h >> 33
	h *= 0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0x165667B19E3779F9
	h ^= h >> 32
	return max(h, 1)
}

// writeLegacyUndo replaces sub-heap i's log region with a sealed undo log
// in the format the undo code wrote — pre-checksum when pre is set,
// UNDOSUM1 otherwise — holding old's words as one 8-byte entry each.
func writeLegacyUndo(t *testing.T, h *Heap, i int, old map[uint64]uint64, pre bool) {
	t.Helper()
	dev := h.Device()
	base := h.lay.undoBase(i)
	if err := dev.Zero(base, h.lay.undoSize); err != nil {
		t.Fatal(err)
	}
	if err := dev.Flush(base, h.lay.undoSize); err != nil {
		t.Fatal(err)
	}
	var entries []byte
	for off, v := range old {
		entries = binary.LittleEndian.AppendUint64(entries, off)
		entries = binary.LittleEndian.AppendUint64(entries, 8)
		entries = binary.LittleEndian.AppendUint64(entries, v)
	}
	count, cursor := uint64(len(old)), uint64(len(entries))
	hdr := binary.LittleEndian.AppendUint64(nil, count)
	hdr = binary.LittleEndian.AppendUint64(hdr, cursor)
	if !pre {
		hdr = binary.LittleEndian.AppendUint64(hdr, legacyUndoSum(entries, count, cursor))
		hdr = binary.LittleEndian.AppendUint64(hdr, 0x314d55534f444e55) // "UNDOSUM1"
	}
	if err := dev.Persist(base+64, entries); err != nil {
		t.Fatal(err)
	}
	if err := dev.Persist(base, hdr); err != nil {
		t.Fatal(err)
	}
}

// metaWords reads sub-heap i's metadata words outside its log region.
func metaWords(t *testing.T, h *Heap, i int) map[uint64]uint64 {
	t.Helper()
	base, end := h.lay.subheapBase(i), h.lay.subheapBase(i)+h.lay.metaSize
	logLo, logHi := h.lay.undoBase(i), h.lay.undoBase(i)+h.lay.undoSize
	buf := make([]byte, end-base)
	if err := h.Device().Read(base, buf); err != nil {
		t.Fatal(err)
	}
	out := map[uint64]uint64{}
	for k := 0; k < len(buf); k += 8 {
		if off := base + uint64(k); off < logLo || off >= logHi {
			out[off] = binary.LittleEndian.Uint64(buf[k:])
		}
	}
	return out
}

// TestLegacyUndoImageRollsBack loads images whose sub-heap log holds a
// dirty undo log of either format, covering a fifth Alloc whose metadata
// stores are all durable: Load must roll the Alloc back, audit clean, and
// leave a log that commits and recovers in the current format.
func TestLegacyUndoImageRollsBack(t *testing.T) {
	for _, pre := range []bool{false, true} {
		h := newTestHeap(t)
		th := newThread(t, h)
		for i := 0; i < 4; i++ { // TxAllocs: one locked carve each
			if _, err := th.TxAlloc(256, true); err != nil {
				t.Fatal(err)
			}
		}
		shard := th.Shard()
		before := metaWords(t, h, shard)
		if _, err := th.TxAlloc(256, true); err != nil {
			t.Fatal(err)
		}
		old := map[uint64]uint64{}
		for off, v := range metaWords(t, h, shard) {
			if before[off] != v {
				old[off] = before[off]
			}
		}
		if len(old) == 0 {
			t.Fatal("the fifth Alloc changed no metadata word")
		}
		th.Close()
		writeLegacyUndo(t, h, shard, old, pre)
		if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
			t.Fatal(err)
		}
		_ = h.Close()
		h2, err := Load(h.Device(), testOptions())
		if err != nil {
			t.Fatalf("pre=%v: load legacy image: %v", pre, err)
		}
		rep, err := h2.Check()
		if err != nil || !rep.OK() {
			t.Fatalf("pre=%v: check: %v %v", pre, err, rep.Problems)
		}
		if rep.AllocatedBlocks != 4 || rep.PendingUndo != 0 {
			t.Fatalf("pre=%v: %d blocks allocated, %d pending; want 4 and 0", pre, rep.AllocatedBlocks, rep.PendingUndo)
		}
		th2 := newThread(t, h2)
		if _, err := th2.Alloc(256); err != nil {
			t.Fatal(err)
		}
		th2.Close()
		h3 := reload(t, h2, nvm.CrashPolicy{Mode: nvm.EvictNone})
		if rep, err := h3.Check(); err != nil || !rep.OK() || rep.AllocatedBlocks != 5 {
			t.Fatalf("pre=%v: after a commit on the converted log: %v, %d blocks, %v", pre, err, rep.AllocatedBlocks, rep.Problems)
		}
		_ = h3.Close()
	}
}

// TestLegacyMicroLaneRollsBack loads an image whose lane holds an open
// transaction in the count-based format — a count word and [offset][size]
// entries: Load must free both allocations and convert the lane.
func TestLegacyMicroLaneRollsBack(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	var locs []uint64
	for i := 0; i < 2; i++ {
		p, err := th.TxAlloc(256, false)
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, p.Loc())
	}
	base := h.lay.laneBase(th.laneI)
	lane := make([]byte, 64+16*len(locs))
	binary.LittleEndian.PutUint64(lane, uint64(len(locs)))
	for i, loc := range locs {
		binary.LittleEndian.PutUint64(lane[64+16*i:], loc)
		binary.LittleEndian.PutUint64(lane[64+16*i+8:], 256)
	}
	if err := h.Device().Persist(base, lane); err != nil {
		t.Fatal(err)
	}
	h2 := reload(t, h, nvm.CrashPolicy{Mode: nvm.EvictNone})
	defer h2.Close()
	if got := h2.Stats().RecoveredBlocks; got != 2 {
		t.Fatalf("RecoveredBlocks = %d, want 2", got)
	}
	rep, err := h2.Check()
	if err != nil || !rep.OK() || rep.AllocatedBlocks != 0 || rep.PendingTx != 0 {
		t.Fatalf("check: %v, %d allocated, %d pending tx, %v", err, rep.AllocatedBlocks, rep.PendingTx, rep.Problems)
	}
	if word, _ := h2.Device().ReadU64(base); word != 0 {
		t.Fatalf("lane count word = %d after recovery, want 0", word)
	}
}
