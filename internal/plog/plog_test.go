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
	got := l.Entries()
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
	if got := l2.Entries(); got[0] != 111 {
		t.Fatalf("entry = %d", got[0])
	}
}

// TestMicroLogCommitDropsHistory commits a two-entry transaction and
// crashes: the lane must reopen empty, and so must it with any one bit of
// its epoch word flipped, which must also read as damaged (a flip of the
// low bit is the committed transaction's epoch in the bare counter the
// word held up to image version 3).
func TestMicroLogCommitDropsHistory(t *testing.T) {
	w := newLogWindow(t)
	l, err := OpenMicroLog(w, logBase, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for loc := uint64(1); loc <= 2; loc++ {
		if err := l.Append(loc << 12); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	for bit := -1; bit < 64; bit++ {
		word := epochWord(1)
		if bit >= 0 {
			word ^= 1 << bit
		}
		if err := w.PersistU64(logBase+microEpochOff, word); err != nil {
			t.Fatal(err)
		}
		l2, err := OpenMicroLog(w, logBase, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if l2.Count() != 0 || l2.Damaged() != (bit >= 0) {
			t.Fatalf("epoch word bit %d flipped: %d entries, damaged %v", bit, l2.Count(), l2.Damaged())
		}
	}
}

// TestEpochWordDetectsDamage pins the epoch word's code: every error of up
// to three bits and every burst of up to 16 bits fails the check.
func TestEpochWordDetectsDamage(t *testing.T) {
	valid := func(w uint64) bool { return epochWord(w>>16) == w }
	for _, epoch := range []uint64{0, 1, 5, 0xABCDEF123456, maxMicroEpoch} {
		w := epochWord(epoch)
		if !valid(w) {
			t.Fatalf("epoch %#x: word %#x fails its own check", epoch, w)
		}
		for a := range 64 {
			for b := a; b < 64; b++ {
				for c := b; c < 64; c++ {
					if e := uint64(1)<<a ^ 1<<b ^ 1<<c; valid(w ^ e) {
						t.Fatalf("epoch %#x: error %#x undetected", epoch, e)
					}
				}
			}
		}
		for pat := uint64(1); pat < 1<<16; pat += 2 {
			for shift := 0; pat<<shift>>shift == pat; shift++ {
				if valid(w ^ pat<<shift) {
					t.Fatalf("epoch %#x: burst %#x undetected", epoch, pat<<shift)
				}
			}
		}
	}
}

// TestMicroLogDamagedLaneResets leaves a three-entry transaction of epoch
// 0 in a lane. A flip of its epoch word must open the lane damaged and
// empty; a lane brought to the last 48-bit epoch must commit one entry
// there. Either way the next Append runs at epoch 0 again, and after a
// crash the lane must hold that entry alone: the rewrite must have zeroed
// the stale entries, which would validate again at epoch 0.
func TestMicroLogDamagedLaneResets(t *testing.T) {
	for _, damage := range []string{"flip", "wrap"} {
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
		word := epochWord(0) ^ 0x100
		if damage == "wrap" {
			word = epochWord(maxMicroEpoch)
		}
		if err := w.PersistU64(logBase+microEpochOff, word); err != nil {
			t.Fatal(err)
		}
		if l, err = OpenMicroLog(w, logBase, 4096); err != nil || l.Damaged() != (damage == "flip") || l.Count() != 0 {
			t.Fatalf("%s: err %v, damaged %v, %d entries", damage, err, l.Damaged(), l.Count())
		}
		if damage == "wrap" {
			if err := l.Append(4 << 12); err != nil {
				t.Fatal(err)
			}
			if err := l.Truncate(); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Append(9 << 12); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
			t.Fatal(err)
		}
		l2, err := OpenMicroLog(w, logBase, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if got := l2.Entries(); l2.Damaged() || l2.epoch != 0 || len(got) != 1 || got[0] != 9<<12 {
			t.Fatalf("%s: damaged %v, epoch %d, entries %#x; want the new entry alone at epoch 0",
				damage, l2.Damaged(), l2.epoch, got)
		}
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
	binary.LittleEndian.PutUint64(img[microEpochOff:], epochWord(epoch))
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
	got := l2.Entries()
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
// bounded result, never a panic, and a truncated lane must reopen empty
// and undamaged. The seeds are a set header word the log does not use, a
// torn append, an entry of an earlier epoch, a damaged epoch word over a
// valid entry and, in testdata, an entry of the next epoch in an
// otherwise empty lane.
func FuzzMicroLogOpen(f *testing.F) {
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x1000000000000001))
	f.Add(microImage(128, 5, []uint64{1 << 12, 2 << 12}, []uint64{5, 0}))
	f.Add(microImage(128, 3, []uint64{1 << 12, 2 << 12}, []uint64{3, 2}))
	damaged := microImage(128, 3, []uint64{1 << 12}, []uint64{3})
	damaged[microEpochOff] ^= 0x01
	f.Add(damaged)
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
		if locs := l.Entries(); uint64(len(locs)) != l.Count() {
			t.Fatalf("Entries: %d of %d", len(locs), l.Count())
		}
		if err := l.Truncate(); err != nil {
			t.Fatal(err)
		}
		if l2, err := OpenMicroLog(w, logBase, fuzzLaneSize); err != nil || l2.Count() != 0 || l2.Damaged() {
			t.Fatalf("truncated lane reopened: %v", err)
		}
	})
}
