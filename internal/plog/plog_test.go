package plog

import (
	"encoding/binary"
	"errors"
	"testing"

	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
)

const (
	logBase  = 0
	logSize  = 16 * 1024
	dataBase = 64 * 1024 // metadata being protected lives here in the tests
)

func newLogWindow(t *testing.T) mpk.Window {
	t.Helper()
	d, err := nvm.NewDevice(nvm.Options{Capacity: 1 << 20, CrashTracking: true, Stats: true})
	if err != nil {
		t.Fatal(err)
	}
	u := mpk.NewUnit(d.Capacity())
	return mpk.NewWindow(d, u.NewThread(mpk.RightsRW))
}

func TestMicroLogAppendEntriesTruncate(t *testing.T) {
	w := newLogWindow(t)
	l, err := OpenMicroLog(w, logBase, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if l.Count() != 0 {
		t.Fatal("fresh micro log not empty")
	}
	want := []uint64{4096, 8192}
	for _, e := range want {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("entries = %+v", got)
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if l.Count() != 0 {
		t.Fatal("truncate left entries")
	}
}

func TestMicroLogSurvivesCrash(t *testing.T) {
	w := newLogWindow(t)
	l, err := OpenMicroLog(w, logBase, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(111); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenMicroLog(w, logBase, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Count() != 1 {
		t.Fatalf("count after crash = %d, want 1", l2.Count())
	}
	got, err := l2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 111 {
		t.Fatalf("entry = %d", got[0])
	}
}

func TestMicroLogCommitDropsHistory(t *testing.T) {
	w := newLogWindow(t)
	l, err := OpenMicroLog(w, logBase, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenMicroLog(w, logBase, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Count() != 0 {
		t.Fatal("committed transaction resurfaced after crash")
	}
}

func TestMicroLogFull(t *testing.T) {
	w := newLogWindow(t)
	l, err := OpenMicroLog(w, logBase, microHeaderSize+2*microEntrySize)
	if err != nil {
		t.Fatal(err)
	}
	if l.Capacity() != 2 {
		t.Fatalf("capacity = %d, want 2", l.Capacity())
	}
	for i := uint64(0); i < 2; i++ {
		if err := l.Append(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append(9); !errors.Is(err, ErrLogFull) {
		t.Fatalf("err = %v, want ErrLogFull", err)
	}
}

func TestMicroLogTooSmall(t *testing.T) {
	w := newLogWindow(t)
	if _, err := OpenMicroLog(w, 0, 8); err == nil {
		t.Fatal("want error for tiny region")
	}
}

// microImage builds a lane region of size bytes: epoch, then one entry per
// loc, each checksummed under sums[i] as its epoch.
func microImage(size int, epoch uint64, locs, sums []uint64) []byte {
	img := make([]byte, size)
	binary.LittleEndian.PutUint64(img[microEpochOff:], epoch)
	for i, loc := range locs {
		at := microHeaderSize + i*microEntrySize
		binary.LittleEndian.PutUint64(img[at:], loc)
		binary.LittleEndian.PutUint64(img[at+8:], microSum(sums[i], uint64(i), loc))
	}
	return img
}

// TestMicroLogTornAndStaleEntriesReadAbsent pins the self-validating
// entries: an entry whose checksum word never reached the media ends the
// log, and so does one written under an earlier epoch.
func TestMicroLogTornAndStaleEntriesReadAbsent(t *testing.T) {
	w := newLogWindow(t)
	l, err := OpenMicroLog(w, logBase, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for loc := uint64(1); loc <= 3; loc++ {
		if err := l.Append(loc << 12); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(7 << 12); err != nil {
		t.Fatal(err)
	}
	// A torn append: the location word persisted, its checksum did not.
	if err := w.PersistU64(logBase+microHeaderSize+2*microEntrySize, 9<<12); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenMicroLog(w, logBase, 4096)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 7<<12 {
		t.Fatalf("entries = %#x, want only the current epoch's first", got)
	}
	// Cut retracts a failed hook's entry durably.
	if err := l2.Cut(0); err != nil {
		t.Fatal(err)
	}
	if l3, err := OpenMicroLog(w, logBase, 4096); err != nil || l3.Count() != 0 {
		t.Fatalf("after Cut(0): %v, %d entries", err, l3.Count())
	}
}

const fuzzLaneSize = 512

// FuzzMicroLogOpen feeds arbitrary bytes as a micro-log lane through
// OpenMicroLog, Entries and Truncate: each must end in an error or a
// bounded result, never a panic, and a truncated lane must reopen empty.
// The seeds are a set header word the log does not use, a torn append,
// an entry of an earlier epoch and, in testdata, an entry of the next
// epoch in an otherwise empty lane.
func FuzzMicroLogOpen(f *testing.F) {
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x1000000000000001))
	f.Add(microImage(128, 5, []uint64{1 << 12, 2 << 12}, []uint64{5, 0}))
	f.Add(microImage(128, 3, []uint64{1 << 12, 2 << 12}, []uint64{3, 2}))
	f.Fuzz(func(t *testing.T, region []byte) {
		w := newLogWindow(t)
		buf := make([]byte, fuzzLaneSize)
		copy(buf, region)
		if err := w.Write(logBase, buf); err != nil {
			t.Fatal(err)
		}
		l, err := OpenMicroLog(w, logBase, fuzzLaneSize)
		if err != nil {
			return
		}
		if l.Count() > l.Capacity() {
			t.Fatalf("%d entries over capacity %d", l.Count(), l.Capacity())
		}
		locs, err := l.Entries()
		if err != nil || uint64(len(locs)) != l.Count() {
			t.Fatalf("Entries: %d of %d (%v)", len(locs), l.Count(), err)
		}
		if err := l.Truncate(); err != nil {
			t.Fatal(err)
		}
		if l2, err := OpenMicroLog(w, logBase, fuzzLaneSize); err != nil || l2.Count() != 0 {
			t.Fatalf("truncated lane reopened: %v", err)
		}
	})
}
