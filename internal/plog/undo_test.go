package plog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
)

// legacyUndo writes undo logs at logBase the way the undo code did, so the
// legacy read path can be tested: snapshot appends an entry holding a
// range's current bytes, and seal persists the entries and a committing
// header — the UNDOSUM1 format word and checksum, or with pre the
// pre-checksum count and cursor alone.
type legacyUndo struct {
	t       *testing.T
	w       mpk.Window
	pre     bool
	entries []byte
	n       uint64
}

func (u *legacyUndo) snapshot(target, n uint64) {
	u.t.Helper()
	e := make([]byte, entryHeader+(n+7)&^7)
	binary.LittleEndian.PutUint64(e[0:], target)
	binary.LittleEndian.PutUint64(e[8:], n)
	if err := u.w.Read(target, e[entryHeader:entryHeader+n]); err != nil {
		u.t.Fatal(err)
	}
	u.entries = append(u.entries, e...)
	u.n++
}

func (u *legacyUndo) seal() {
	u.t.Helper()
	cursor := uint64(len(u.entries))
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], u.n)
	binary.LittleEndian.PutUint64(hdr[8:], cursor)
	if !u.pre {
		binary.LittleEndian.PutUint64(hdr[undoSumOff:], sealSum(sumWords(sumSeed, u.entries), u.n, cursor))
		binary.LittleEndian.PutUint64(hdr[undoFormatOff:], undoFormatSum)
	}
	if err := u.w.Persist(logBase+undoHeaderSize, u.entries); err != nil {
		u.t.Fatal(err)
	}
	if err := u.w.Persist(logBase, hdr[:]); err != nil {
		u.t.Fatal(err)
	}
	u.entries, u.n = nil, 0
}

// sealShape is one undo transaction: a fill byte per target range, applied
// to the targets before the snapshot so every transaction's entries differ.
type sealShape struct {
	fill    byte
	lengths []uint64 // one target range per entry, 256 bytes apart
}

// sealTx persists the shape's target bytes, snapshots every range and
// seals a checksummed log. It returns the targets' pre-seal bytes.
func sealTx(t *testing.T, w mpk.Window, s sealShape) [][]byte {
	t.Helper()
	u := &legacyUndo{t: t, w: w}
	var orig [][]byte
	for i, n := range s.lengths {
		b := bytes.Repeat([]byte{s.fill + byte(i)}, int(n))
		if err := w.Persist(dataBase+uint64(i)*256, b); err != nil {
			t.Fatal(err)
		}
		u.snapshot(dataBase+uint64(i)*256, n)
		orig = append(orig, b)
	}
	u.seal()
	return orig
}

func readLog(t *testing.T, w mpk.Window, n uint64) []byte {
	t.Helper()
	b := make([]byte, n)
	if err := w.Read(logBase, b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestUndoSealTornAtWordGranularity crashes a multi-line seal with every
// subset of {count, cursor, sum, each entry line} persisted, and then with
// every single entry word missing. The log must open either complete or
// empty — never as a partial log that replays stale bytes. The stale state
// behind the seal is a truncated earlier transaction, once with the same
// shape (so a torn seal keeps a matching count and cursor) and once with a
// different one.
func TestUndoSealTornAtWordGranularity(t *testing.T) {
	cur := sealShape{fill: 0x50, lengths: []uint64{40, 40, 40}} // 168 B: 3 entry lines
	for _, prev := range []sealShape{
		{fill: 0x10, lengths: []uint64{40, 40, 40}},
		{fill: 0x20, lengths: []uint64{8, 64}},
	} {
		t.Run(fmt.Sprintf("after-%d-entries", len(prev.lengths)), func(t *testing.T) {
			w := newLogWindow(t)
			sealTx(t, w, prev)
			if err := mustUndo(t, w).truncate(); err != nil {
				t.Fatal(err)
			}
			const span = undoHeaderSize + 3*64
			pre := readLog(t, w, span)
			orig := sealTx(t, w, cur)
			post := readLog(t, w, span)

			check := func(what string, img []byte) {
				t.Helper()
				if err := w.Persist(logBase, img); err != nil {
					t.Fatal(err)
				}
				l2 := mustUndo(t, w)
				if l2.Count() == 0 {
					return
				}
				if !bytes.Equal(img, post) {
					t.Fatalf("%s: partial seal opened with %d entries", what, l2.Count())
				}
				if l2.Count() != uint64(len(cur.lengths)) {
					t.Fatalf("%s: complete seal opened with %d entries", what, l2.Count())
				}
				if err := l2.Replay(); err != nil {
					t.Fatalf("%s: replay: %v", what, err)
				}
				for i, want := range orig {
					got := make([]byte, len(want))
					if err := w.Read(dataBase+uint64(i)*256, got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: target %d replayed to %x", what, i, got)
					}
				}
			}

			// Header words at 8-byte granularity, entries by line.
			parts := [][2]uint64{{0, 8}, {8, 8}, {undoSumOff, 8}}
			for off := uint64(undoHeaderSize); off < span; off += 64 {
				parts = append(parts, [2]uint64{off, 64})
			}
			for mask := 0; mask < 1<<len(parts); mask++ {
				img := bytes.Clone(pre)
				for i, p := range parts {
					if mask&(1<<i) != 0 {
						copy(img[p[0]:p[0]+p[1]], post[p[0]:p[0]+p[1]])
					}
				}
				check(fmt.Sprintf("mask %#b", mask), img)
			}
			// Everything but one entry word.
			for off := uint64(undoHeaderSize); off < span; off += 8 {
				img := bytes.Clone(post)
				copy(img[off:off+8], pre[off:off+8])
				check(fmt.Sprintf("entry word +%d stale", off), img)
			}
			// The complete seal itself must open and replay.
			if err := w.Persist(logBase, post); err != nil {
				t.Fatal(err)
			}
			if mustUndo(t, w).Count() == 0 {
				t.Fatal("complete seal opened empty")
			}
		})
	}
}

// writeLegacyLog lays out a dirty undo log the way logs were written before
// checksummed seals: entries, cursor and count, with no sum and no format
// word.
func writeLegacyLog(t *testing.T, w mpk.Window, targets map[uint64][]byte, order []uint64) {
	t.Helper()
	var entries []byte
	for _, target := range order {
		data := targets[target]
		e := make([]byte, entryHeader+(len(data)+7)&^7)
		binary.LittleEndian.PutUint64(e[0:], target)
		binary.LittleEndian.PutUint64(e[8:], uint64(len(data)))
		copy(e[entryHeader:], data)
		entries = append(entries, e...)
	}
	if err := w.Persist(logBase+undoHeaderSize, entries); err != nil {
		t.Fatal(err)
	}
	if err := w.PersistU64(logBase+8, uint64(len(entries))); err != nil {
		t.Fatal(err)
	}
	if err := w.PersistU64(logBase, uint64(len(order))); err != nil {
		t.Fatal(err)
	}
}

// TestUndoLegacyLogReplays loads a dirty log in the pre-checksum format: it
// must replay by trusting count and then reopen empty.
func TestUndoLegacyLogReplays(t *testing.T) {
	w := newLogWindow(t)
	targets := map[uint64][]byte{
		dataBase:       []byte("legacy metadata!"),
		dataBase + 256: []byte("second range"),
	}
	writeLegacyLog(t, w, targets, []uint64{dataBase, dataBase + 256})
	for target, orig := range targets {
		if err := w.Persist(target, bytes.Repeat([]byte{'X'}, len(orig))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	l := mustUndo(t, w)
	if l.Count() != 2 {
		t.Fatalf("legacy log opened with %d entries, want 2", l.Count())
	}
	if err := l.Replay(); err != nil {
		t.Fatal(err)
	}
	for target, orig := range targets {
		got := make([]byte, len(orig))
		if err := w.Read(target, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, orig) {
			t.Fatalf("target %#x = %q, want %q", target, got, orig)
		}
	}
	if mustUndo(t, w).Count() != 0 {
		t.Fatal("replayed legacy log reopened dirty")
	}
}

// A legacy header whose count cannot fit in its cursor is corrupt: Open
// must refuse it rather than let Replay size a slice by it.
func TestUndoOpenRejectsImpossibleCount(t *testing.T) {
	w := newLogWindow(t)
	if err := w.PersistU64(logBase+8, 64); err != nil {
		t.Fatal(err)
	}
	if err := w.PersistU64(logBase, 1<<62); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenUndoLog(w, logBase, logSize); !errors.Is(err, errCorrupt) {
		t.Fatalf("open: %v, want errCorrupt", err)
	}
}

// fuzzLogSize is the undo region FuzzUndoLogOpen decodes.
const fuzzLogSize = 1024

// FuzzUndoLogOpen feeds arbitrary bytes as an undo log region through
// OpenUndoLog and Replay: each must end in an error or a replay, never a
// panic or a hang. The seed corpus holds a sealed checksummed log, a legacy
// log and a torn seal.
func FuzzUndoLogOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, region []byte) {
		w := newLogWindow(t)
		buf := make([]byte, fuzzLogSize)
		copy(buf, region)
		if err := w.Write(logBase, buf); err != nil {
			t.Fatal(err)
		}
		l, err := OpenUndoLog(w, logBase, fuzzLogSize)
		if err != nil {
			return
		}
		if err := l.Replay(); err != nil {
			return
		}
		if l.Count() != 0 {
			t.Fatal("replay left committed entries")
		}
	})
}
