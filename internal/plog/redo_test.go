package plog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
)

// redoWords stages n words at dataBase, runs consecutive words long and
// runs a line apart, with values derived from tag.
func redoWords(n, run int, tag uint64) []Word {
	var ws []Word
	for i := 0; i < n; i++ {
		off := uint64(dataBase + (i/run)*64 + (i%run)*8)
		ws = append(ws, Word{Off: off, Val: tag<<32 | uint64(i)})
	}
	return ws
}

func mustRedo(t *testing.T, w mpk.Window, replay bool) *RedoLog {
	t.Helper()
	l := NewRedoLog(w, logBase, logSize)
	if err := l.Open(replay); err != nil {
		t.Fatal(err)
	}
	return l
}

func checkWords(t *testing.T, w mpk.Window, ws []Word) {
	t.Helper()
	for _, x := range ws {
		if v, err := w.ReadU64(x.Off); err != nil || v != x.Val {
			t.Fatalf("word %#x = %#x (%v), want %#x", x.Off, v, err, x.Val)
		}
	}
}

// TestRedoCommitFencesOnce pins the persistence cost of a commit: Commit
// is one store, a flush of the record's lines and one fence; Apply is one
// store per run and a flush of the applied lines, without a fence.
func TestRedoCommitFencesOnce(t *testing.T) {
	w := newLogWindow(t)
	l := mustRedo(t, w, false)
	for _, c := range []struct {
		n, run             int
		recLines, appLines uint64
	}{
		{1, 1, 1, 1},   // 32+16+8 = 56 B
		{5, 3, 2, 2},   // 32+2*16+40 = 104 B
		{6, 4, 2, 2},   // 32+2*16+48 = 112 B
		{16, 1, 7, 16}, // 32+16*24 = 416 B
	} {
		for round := uint64(0); round < 3; round++ {
			ws := redoWords(c.n, c.run, round)
			s0 := w.Device().StatsSnapshot()
			if err := l.Commit(ws, nil); err != nil {
				t.Fatal(err)
			}
			s1 := w.Device().StatsSnapshot()
			if err := l.Apply(); err != nil {
				t.Fatal(err)
			}
			s2 := w.Device().StatsSnapshot()
			if d := s1.Writes - s0.Writes; d != 1 || s1.Flushes-s0.Flushes != c.recLines || s1.Fences-s0.Fences != 1 {
				t.Errorf("%d words in runs of %d: commit %d writes, %d flushes, %d fences; want 1, %d, 1",
					c.n, c.run, d, s1.Flushes-s0.Flushes, s1.Fences-s0.Fences, c.recLines)
			}
			runs := uint64((c.n + c.run - 1) / c.run)
			if s2.Writes-s1.Writes != runs || s2.Flushes-s1.Flushes != c.appLines || s2.Fences != s1.Fences {
				t.Errorf("%d words in runs of %d: apply %d writes, %d flushes, %d fences; want %d, %d, 0",
					c.n, c.run, s2.Writes-s1.Writes, s2.Flushes-s1.Flushes, s2.Fences-s1.Fences, runs, c.appLines)
			}
			checkWords(t, w, ws)
		}
	}
	if n, b := l.Commits(); n != 12 || b == 0 {
		t.Fatalf("Commits() = %d records, %d bytes; want 12 records", n, b)
	}
}

// TestRedoApplyFlushesSharedLine: two runs that share a line (a gap word
// between them) are applied with the line flushed after both stores, so
// a crash that drops every unflushed line keeps both words. The line is
// still flushed once.
func TestRedoApplyFlushesSharedLine(t *testing.T) {
	w := newLogWindow(t)
	l := mustRedo(t, w, false)
	ws := []Word{{Off: dataBase, Val: 1}, {Off: dataBase + 16, Val: 2}, {Off: dataBase + 64, Val: 3}}
	if err := l.Commit(ws, nil); err != nil {
		t.Fatal(err)
	}
	s0 := w.Device().StatsSnapshot()
	if err := l.Apply(); err != nil {
		t.Fatal(err)
	}
	if d := w.Device().StatsSnapshot().Flushes - s0.Flushes; d != 2 {
		t.Fatalf("apply flushed %d lines, want 2", d)
	}
	if _, err := w.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	checkWords(t, w, ws)
}

// TestRedoRecordFull pins the capacity rule: MaxWords words fit in one
// record however they are spread, and a record over a slot's capacity
// fails with ErrLogFull without touching the device.
func TestRedoRecordFull(t *testing.T) {
	w := newLogWindow(t)
	l := NewRedoLog(w, logBase, 2*4096)
	if err := l.Open(false); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(redoWords(l.MaxWords(), 1, 1), nil); err != nil {
		t.Fatalf("%d single-word runs: %v", l.MaxWords(), err)
	}
	over := redoWords(l.MaxWords()+1, 1, 2)
	before := w.Device().StatsSnapshot()
	ran := false
	if err := l.Commit(over, func() error { ran = true; return nil }); !errors.Is(err, ErrLogFull) {
		t.Fatalf("commit of %d words: %v, want ErrLogFull", len(over), err)
	}
	if ran || w.Device().StatsSnapshot() != before {
		t.Fatal("an oversized commit ran its hook or touched the device")
	}
	// Consecutive words cost 8 bytes each, so many more fit in one run.
	if err := l.Commit(redoWords(2*l.MaxWords(), 2*l.MaxWords(), 3), nil); err != nil {
		t.Fatalf("one run of %d words: %v", 2*l.MaxWords(), err)
	}
}

// TestRedoReplay crashes after the commit point with nothing applied:
// Open(replay) must put the record's words in place with one fence, count
// them as pending before, and a second replay must write nothing.
func TestRedoReplay(t *testing.T) {
	w := newLogWindow(t)
	l := mustRedo(t, w, false)
	old := redoWords(6, 3, 1)
	if err := l.Commit(old, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Apply(); err != nil {
		t.Fatal(err)
	}
	ws := redoWords(6, 3, 2)
	if err := l.Commit(ws, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	raw := mustRedo(t, w, false)
	if n, err := raw.Pending(); err != nil || n != 6 {
		t.Fatalf("pending before replay = %d (%v), want 6", n, err)
	}
	s0 := w.Device().StatsSnapshot()
	l2 := mustRedo(t, w, true)
	s1 := w.Device().StatsSnapshot()
	checkWords(t, w, ws)
	if s1.Fences-s0.Fences != 1 {
		t.Fatalf("replay fenced %d times, want 1", s1.Fences-s0.Fences)
	}
	if n, err := l2.Pending(); err != nil || n != 0 {
		t.Fatalf("pending after replay = %d (%v), want 0", n, err)
	}
	mustRedo(t, w, true)
	if s2 := w.Device().StatsSnapshot(); s2 != s1 {
		t.Fatal("replaying a record already in place wrote to the device")
	}
	// The next commit takes the slot of the generation before the replayed
	// one, so both the replayed record and the new one stay readable.
	next := redoWords(2, 1, 3)
	if err := l2.Commit(next, nil); err != nil {
		t.Fatal(err)
	}
	if gen, _, _ := l2.slots.Read(w.Read); gen != 3 {
		t.Fatalf("newest generation after replay and commit = %d, want 3", gen)
	}
}

// TestRedoUnreadableSlotFailsReplay fails the read of the newest record's
// payload: Open(replay) must surface the error rather than take the slot
// for torn, replay the older record alone and seed the generation from it.
func TestRedoUnreadableSlotFailsReplay(t *testing.T) {
	w := newLogWindow(t)
	l := mustRedo(t, w, false)
	for tag := uint64(1); tag <= 2; tag++ {
		if err := l.Commit(redoWords(2, 1, tag), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Generation 2 is in slot 0.
	w.Device().ArmTransientFaults(nvm.TransientFaults{Off: logBase + SlotHeader, Len: 8, Reads: true})
	err := NewRedoLog(w, logBase, logSize).Open(true)
	w.Device().DisarmTransientFaults()
	if !errors.Is(err, nvm.ErrTransient) {
		t.Fatalf("Open(replay) with an unreadable slot = %v, want the read error", err)
	}
	if l2 := mustRedo(t, w, true); l2.gen != 2 {
		t.Fatalf("generation after replay = %d, want 2", l2.gen)
	}
	checkWords(t, w, redoWords(2, 1, 2))
}

// TestRedoOpenIgnoresForeignHeaders loads a region holding a well-formed
// undo log of the pre-checksum form — count, cursor, then one entry with
// the old bytes of a target. No slot header carries the redo magic, so the
// region holds no record: Pending must read 0, Open(replay) must leave
// every device byte as it was, and the log must then commit and replay
// normally.
func TestRedoOpenIgnoresForeignHeaders(t *testing.T) {
	w := newLogWindow(t)
	old := []byte("original bytes!!")
	undo := binary.LittleEndian.AppendUint64(nil, 1)  // count
	undo = binary.LittleEndian.AppendUint64(undo, 32) // cursor
	undo = append(undo, make([]byte, 48)...)          // rest of the header
	undo = binary.LittleEndian.AppendUint64(undo, dataBase)
	undo = binary.LittleEndian.AppendUint64(undo, uint64(len(old)))
	undo = append(undo, old...)
	if err := w.Persist(logBase, undo); err != nil {
		t.Fatal(err)
	}
	if err := w.Persist(dataBase, bytes.Repeat([]byte{'X'}, len(old))); err != nil {
		t.Fatal(err)
	}
	image := func() []byte {
		b := make([]byte, w.Device().Capacity())
		if err := w.Read(0, b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := image()
	if n, err := mustRedo(t, w, false).Pending(); err != nil || n != 0 {
		t.Fatalf("foreign region pending %d (%v), want 0", n, err)
	}
	l := mustRedo(t, w, true)
	if l.gen != 0 {
		t.Fatalf("foreign region opened at generation %d, want 0", l.gen)
	}
	if !bytes.Equal(image(), before) {
		t.Fatal("Open(replay) changed the device")
	}
	ws := redoWords(4, 2, 9)
	if err := l.Commit(ws, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	mustRedo(t, w, true)
	checkWords(t, w, ws)
}
