package plog

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
)

// sealShape is one undo transaction: a fill byte per target range, applied
// to the targets before the snapshot so every transaction's entries differ.
type sealShape struct {
	fill    byte
	lengths []uint64 // one target range per entry, 256 bytes apart
}

// sealTx persists the shape's target bytes, snapshots every range and
// seals. It returns the targets' pre-seal bytes.
func sealTx(t *testing.T, w mpk.Window, l *UndoLog, s sealShape) [][]byte {
	t.Helper()
	var orig [][]byte
	for i, n := range s.lengths {
		b := bytes.Repeat([]byte{s.fill + byte(i)}, int(n))
		if err := w.Persist(dataBase+uint64(i)*256, b); err != nil {
			t.Fatal(err)
		}
		if err := l.Snapshot(dataBase+uint64(i)*256, n); err != nil {
			t.Fatal(err)
		}
		orig = append(orig, b)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
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
			l := mustUndo(t, w)
			sealTx(t, w, l, prev)
			if err := l.Truncate(); err != nil {
				t.Fatal(err)
			}
			const span = undoHeaderSize + 3*64
			pre := readLog(t, w, span)
			orig := sealTx(t, w, l, cur)
			post := readLog(t, w, span)

			check := func(what string, img []byte) {
				t.Helper()
				if err := w.Persist(logBase, img); err != nil {
					t.Fatal(err)
				}
				l2 := mustUndo(t, w)
				if l2.IsEmpty() {
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
			if mustUndo(t, w).IsEmpty() {
				t.Fatal("complete seal opened empty")
			}
		})
	}
}

// TestUndoSealAndTruncateFenceOnce pins the persistence cost of the undo
// protocol: after a log's one-time format seal, Seal is one fence and
// entry-lines+1 flushes, Truncate one fence and one flush.
func TestUndoSealAndTruncateFenceOnce(t *testing.T) {
	w := newLogWindow(t)
	l := mustUndo(t, w)
	shape := sealShape{fill: 1, lengths: []uint64{40, 40, 40}}
	sealTx(t, w, l, shape)
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		s0 := w.Device().StatsSnapshot()
		sealTx(t, w, l, shape)
		s1 := w.Device().StatsSnapshot()
		if err := l.Truncate(); err != nil {
			t.Fatal(err)
		}
		s2 := w.Device().StatsSnapshot()
		// sealTx persists its three targets first: one flush and fence each.
		if f, fl := s1.Fences-s0.Fences-3, s1.Flushes-s0.Flushes-3; f != 1 || fl != 3+1 {
			t.Fatalf("seal: %d fences, %d flushes; want 1 and 4", f, fl)
		}
		if f, fl := s2.Fences-s1.Fences, s2.Flushes-s1.Flushes; f != 1 || fl != 1 {
			t.Fatalf("truncate: %d fences, %d flushes; want 1 and 1", f, fl)
		}
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
		putU64(e[0:], target)
		putU64(e[8:], uint64(len(data)))
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
// must replay by trusting count, and adopt the format word on its next seal.
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
	if !mustUndo(t, w).IsEmpty() {
		t.Fatal("replayed legacy log reopened dirty")
	}
	sealTx(t, w, l, sealShape{fill: 7, lengths: []uint64{8}})
	if v, _ := w.ReadU64(logBase + undoFormatOff); v != undoFormatSum {
		t.Fatalf("format word after first seal = %#x", v)
	}
	if l2 := mustUndo(t, w); l2.Count() != 1 {
		t.Fatalf("upgraded log opened with %d entries, want 1", l2.Count())
	}
}

func TestUndoSealOverCommittedEntriesFails(t *testing.T) {
	w := newLogWindow(t)
	l := mustUndo(t, w)
	sealTx(t, w, l, sealShape{fill: 1, lengths: []uint64{8}})
	if err := l.Snapshot(dataBase, 8); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); !errors.Is(err, ErrLogDirty) {
		t.Fatalf("second seal: %v, want ErrLogDirty", err)
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
		if !l.IsEmpty() {
			t.Fatal("replay left committed entries")
		}
	})
}
