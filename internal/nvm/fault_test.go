package nvm

import (
	"bytes"
	"errors"
	"testing"
)

func TestInjectBitFlipCorruptsBothImages(t *testing.T) {
	d := newTestDevice(t, ChunkSize, true)
	if err := d.Persist(100, []byte{0x0F}); err != nil {
		t.Fatal(err)
	}
	if err := d.InjectBitFlip(100, 4); err != nil {
		t.Fatal(err)
	}
	v, err := d.ReadU8(100)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1F {
		t.Fatalf("after flip: %#x, want 0x1f", v)
	}
	// The corruption is on the media: it survives a crash that drops every
	// dirty line, because the flip never marked the line dirty.
	if _, err := d.Crash(CrashPolicy{Mode: EvictNone}); err != nil {
		t.Fatal(err)
	}
	v, err = d.ReadU8(100)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1F {
		t.Fatalf("flip lost at crash: %#x, want 0x1f", v)
	}
}

func TestInjectBitFlipValidation(t *testing.T) {
	d := newTestDevice(t, ChunkSize, false)
	if err := d.InjectBitFlip(ChunkSize, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out of range: %v", err)
	}
	if err := d.InjectBitFlip(0, 8); err == nil {
		t.Fatal("bit 8 accepted")
	}
}

func TestInjectRandomBitFlipDeterminism(t *testing.T) {
	d1 := newTestDevice(t, ChunkSize, false)
	d2 := newTestDevice(t, ChunkSize, false)
	off1, bit1, err := d1.InjectRandomBitFlip(4096, 512, 42)
	if err != nil {
		t.Fatal(err)
	}
	off2, bit2, err := d2.InjectRandomBitFlip(4096, 512, 42)
	if err != nil {
		t.Fatal(err)
	}
	if off1 != off2 || bit1 != bit2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", off1, bit1, off2, bit2)
	}
	if off1 < 4096 || off1 >= 4096+512 {
		t.Fatalf("flip at %d outside requested range", off1)
	}
}

func TestTransientFaultsScopedWrites(t *testing.T) {
	d := newTestDevice(t, ChunkSize, false)
	d.ArmTransientFaults(TransientFaults{Off: 1024, Len: 1024, MaxFaults: 2})
	// Outside the range: unaffected.
	if err := d.Write(0, []byte{1}); err != nil {
		t.Fatalf("out-of-scope write: %v", err)
	}
	// Inside: the first two fail, then the budget is spent.
	if err := d.Write(1500, []byte{1}); !errors.Is(err, ErrTransient) {
		t.Fatalf("fault 1: %v", err)
	}
	if err := d.WriteU64(1024, 7); !errors.Is(err, ErrTransient) {
		t.Fatalf("fault 2: %v", err)
	}
	if err := d.Write(1500, []byte{1}); err != nil {
		t.Fatalf("after budget spent: %v", err)
	}
	if got := d.TransientFaultsInjected(); got != 2 {
		t.Fatalf("injected = %d, want 2", got)
	}
	// Reads were not selected: they never fault.
	var b [8]byte
	if err := d.Read(1500, b[:]); err != nil {
		t.Fatalf("read: %v", err)
	}
	d.DisarmTransientFaults()
	if got := d.TransientFaultsInjected(); got != 0 {
		t.Fatalf("injected after disarm = %d", got)
	}
}

func TestTransientFaultsReads(t *testing.T) {
	d := newTestDevice(t, ChunkSize, false)
	d.ArmTransientFaults(TransientFaults{Reads: true, MaxFaults: 1})
	if _, err := d.ReadU64(64); !errors.Is(err, ErrTransient) {
		t.Fatalf("read fault: %v", err)
	}
	// Writes were not selected.
	if err := d.Write(0, []byte{1}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := d.ReadU64(64); err != nil {
		t.Fatalf("read after budget: %v", err)
	}
}

func TestTransientFaultsProbDeterministic(t *testing.T) {
	outcomes := func() []bool {
		d := newTestDevice(t, ChunkSize, false)
		d.ArmTransientFaults(TransientFaults{Prob: 0.5, Seed: 7})
		var out []bool
		for i := 0; i < 64; i++ {
			err := d.Write(uint64(i)*8, []byte{1})
			out = append(out, errors.Is(err, ErrTransient))
		}
		return out
	}
	a, b := outcomes(), outcomes()
	var faults int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: same seed diverged", i)
		}
		if a[i] {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("prob 0.5 injected %d/%d faults", faults, len(a))
	}
}

// TestEvictTornPersistsWholeWords verifies the torn-write adversary: a
// dirty line either survives whole or tears, and a torn line keeps some
// but not all of its 8-byte words, each wholly old or wholly new — never a
// torn word. Some tear must not be a 32-byte half, so a 16- or 24-byte
// store can tear too.
func TestEvictTornPersistsWholeWords(t *testing.T) {
	const lines = 64
	d := newTestDevice(t, ChunkSize, true)
	old := bytes.Repeat([]byte{0xAA}, CachelineSize)
	fresh := bytes.Repeat([]byte{0xBB}, CachelineSize)
	for i := 0; i < lines; i++ {
		if err := d.Persist(uint64(i)*CachelineSize, old); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < lines; i++ {
		if err := d.Write(uint64(i)*CachelineSize, fresh); err != nil {
			t.Fatal(err)
		}
	}
	report, err := d.Crash(CrashPolicy{Mode: EvictTorn, Prob: 0.4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if report.DirtyLines != lines {
		t.Fatalf("dirty lines = %d, want %d", report.DirtyLines, lines)
	}
	if report.TornLines == 0 || report.PersistedLines == 0 {
		t.Fatalf("want a mix of torn and persisted lines, got %+v", report)
	}
	if report.DroppedLines != 0 {
		t.Fatalf("torn mode dropped %d whole lines", report.DroppedLines)
	}
	if got := report.PersistedLines + report.TornLines; got != lines {
		t.Fatalf("accounted %d lines, want %d", got, lines)
	}
	var torn, whole, unlikeHalves int
	buf := make([]byte, CachelineSize)
	for i := 0; i < lines; i++ {
		if err := d.Read(uint64(i)*CachelineSize, buf); err != nil {
			t.Fatal(err)
		}
		var kept uint // bit w: word w is new
		for w := 0; w < CachelineSize/8; w++ {
			switch word := buf[8*w : 8*w+8]; {
			case bytes.Equal(word, fresh[:8]):
				kept |= 1 << w
			case !bytes.Equal(word, old[:8]):
				t.Fatalf("line %d: word %d torn: % x", i, w, word)
			}
		}
		switch kept {
		case 0xFF:
			whole++
		case 0:
			t.Fatalf("line %d: torn line kept no word", i)
		default:
			torn++
			if kept != 0x0F && kept != 0xF0 {
				unlikeHalves++
			}
		}
	}
	if uint64(torn) != report.TornLines || uint64(whole) != report.PersistedLines {
		t.Fatalf("observed %d torn/%d whole, report says %d/%d",
			torn, whole, report.TornLines, report.PersistedLines)
	}
	if unlikeHalves == 0 {
		t.Fatalf("all %d tears kept a 32-byte half", torn)
	}
}

// TestEvictTornDeterminism pins that the torn adversary is reproducible:
// identical dirty sets and seeds leave identical media images.
func TestEvictTornDeterminism(t *testing.T) {
	image := func() []byte {
		d := newTestDevice(t, ChunkSize, true)
		for i := 0; i < 128; i++ {
			if err := d.WriteU64(uint64(i)*8, uint64(i)*0x9E3779B9); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.Crash(CrashPolicy{Mode: EvictTorn, Prob: 0.3, Seed: 1234}); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 128*8)
		if err := d.Read(0, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if !bytes.Equal(image(), image()) {
		t.Fatal("same seed + same dirty set produced different torn images")
	}
}

// TestEvictRandomDeterminism guards the sweep engine's reproducer lines:
// the same seed over the same dirty set must select the identical
// surviving-line set, even if chunk iteration order were ever refactored.
func TestEvictRandomDeterminism(t *testing.T) {
	image := func() ([]byte, CrashReport) {
		// Two chunks touched, to cover cross-chunk iteration order.
		d := newTestDevice(t, 2*ChunkSize, true)
		for i := 0; i < 256; i++ {
			if err := d.WriteU64(uint64(i)*CachelineSize, uint64(i)+1); err != nil {
				t.Fatal(err)
			}
			if err := d.WriteU64(ChunkSize+uint64(i)*CachelineSize, uint64(i)+7); err != nil {
				t.Fatal(err)
			}
		}
		report, err := d.Crash(CrashPolicy{Mode: EvictRandom, Prob: 0.5, Seed: 4242})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 2*ChunkSize)
		if err := d.Read(0, buf); err != nil {
			t.Fatal(err)
		}
		return buf, report
	}
	img1, rep1 := image()
	img2, rep2 := image()
	if rep1 != rep2 {
		t.Fatalf("crash reports diverged: %+v vs %+v", rep1, rep2)
	}
	if rep1.PersistedLines == 0 || rep1.DroppedLines == 0 {
		t.Fatalf("prob 0.5 produced a degenerate split: %+v", rep1)
	}
	if !bytes.Equal(img1, img2) {
		t.Fatal("same seed + same dirty set persisted different line sets")
	}
}

// TestCrashReportCounts pins the report arithmetic for the simple modes.
func TestCrashReportCounts(t *testing.T) {
	d := newTestDevice(t, ChunkSize, true)
	for i := 0; i < 10; i++ {
		if err := d.WriteU64(uint64(i)*CachelineSize, 1); err != nil {
			t.Fatal(err)
		}
	}
	report, err := d.Crash(CrashPolicy{Mode: EvictNone})
	if err != nil {
		t.Fatal(err)
	}
	if report.DirtyLines != 10 || report.DroppedLines != 10 || report.PersistedLines != 0 {
		t.Fatalf("EvictNone report: %+v", report)
	}
	for i := 0; i < 6; i++ {
		if err := d.WriteU64(uint64(i)*CachelineSize, 2); err != nil {
			t.Fatal(err)
		}
	}
	report, err = d.Crash(CrashPolicy{Mode: EvictAll})
	if err != nil {
		t.Fatal(err)
	}
	if report.DirtyLines != 6 || report.PersistedLines != 6 || report.DroppedLines != 0 {
		t.Fatalf("EvictAll report: %+v", report)
	}
}
