package plog

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"poseidon/internal/nvm"
)

// testSlots is a line-aligned record with room for a several-line payload.
func testSlots() Slots {
	return Slots{Base: 4096, Size: 512, Magic: siteMagic, Legacy: siteLegacyMagic}
}

// genPayload is generation gen's n-byte payload: every byte differs from
// the same byte of any other generation's payload.
func genPayload(gen uint64, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(gen*37) + byte(i)
	}
	return p
}

// TestSlotsCrashSweep fails the device at every op of three consecutive
// writes after a first complete one, so both slots get overwritten, then
// crashes under every eviction mode. Read must return exactly the last
// completed generation or the one being written, with its payload, and
// never report the record torn.
func TestSlotsCrashSweep(t *testing.T) {
	rec := testSlots()
	policies := []nvm.CrashPolicy{
		{Mode: nvm.EvictNone},
		{Mode: nvm.EvictAll},
		{Mode: nvm.EvictRandom, Prob: 0.5},
		{Mode: nvm.EvictTorn, Prob: 0.5},
	}
	for _, n := range []int{0, 16, 32, 200, rec.Cap()} {
		for _, pol := range policies {
			t.Run(fmt.Sprintf("%dB/%v", n, pol.Mode), func(t *testing.T) {
				for budget := int64(0); ; budget++ {
					w := newLogWindow(t)
					var buf []byte
					if err := rec.Write(w, 1, genPayload(1, n), &buf); err != nil {
						t.Fatal(err)
					}
					w.Device().FailAfter(budget)
					done := uint64(1)
					var werr error
					for gen := uint64(2); gen <= 4 && werr == nil; gen++ {
						if werr = rec.Write(w, gen, genPayload(gen, n), &buf); werr == nil {
							done = gen
						}
					}
					w.Device().DisarmFailpoint()
					if werr != nil && !errors.Is(werr, nvm.ErrDeviceFailed) {
						t.Fatalf("budget %d: %v", budget, werr)
					}
					pol.Seed = budget
					if _, err := w.Device().Crash(pol); err != nil {
						t.Fatal(err)
					}
					gen, p, torn := rec.Read(w.Read)
					if torn || gen != done && (werr == nil || gen != done+1) {
						t.Fatalf("budget %d: read generation %d (torn %v) after generation %d completed", budget, gen, torn, done)
					}
					if !bytes.Equal(p, genPayload(gen, n)) {
						t.Fatalf("budget %d: generation %d read back a mixed payload", budget, gen)
					}
					if werr == nil {
						return
					}
				}
			})
		}
	}
}

// TestSlotsWriteBudget pins one Write's persistence cost: one store, a
// flush of the image's lines only, one fence.
func TestSlotsWriteBudget(t *testing.T) {
	rec := testSlots()
	w := newLogWindow(t)
	var buf []byte
	for i, n := range []int{0, 16, 32, 33, 200, rec.Cap()} {
		s0 := w.Device().StatsSnapshot()
		if err := rec.Write(w, uint64(i+1), genPayload(1, n), &buf); err != nil {
			t.Fatal(err)
		}
		s1 := w.Device().StatsSnapshot()
		lines := uint64(SlotHeader+n+63) / 64
		if s1.Writes-s0.Writes != 1 || s1.Flushes-s0.Flushes != lines || s1.Fences-s0.Fences != 1 {
			t.Errorf("%d-byte payload: %d writes, %d flushes, %d fences; want 1, %d, 1",
				n, s1.Writes-s0.Writes, s1.Flushes-s0.Flushes, s1.Fences-s0.Fences, lines)
		}
	}
	if err := rec.Write(w, 9, make([]byte, rec.Cap()+1), &buf); err == nil {
		t.Error("payload over capacity accepted")
	}
	if err := rec.Write(w, 0, nil, &buf); err == nil {
		t.Error("generation 0 accepted")
	}
}

// TestSlotsReadRules pins which generation Read adopts and when a record
// is torn.
func TestSlotsReadRules(t *testing.T) {
	rec := testSlots()
	w := newLogWindow(t)
	var buf []byte
	read := func() (uint64, []byte, bool) { return rec.Read(w.Read) }
	corrupt := func(slot int, word uint64, v uint64) {
		t.Helper()
		if err := w.WriteU64(rec.Off(slot)+8*word, v); err != nil {
			t.Fatal(err)
		}
	}

	if gen, p, torn := read(); gen != 0 || p != nil || torn {
		t.Fatalf("blank record: gen %d, %d bytes, torn %v", gen, len(p), torn)
	}
	for gen := uint64(1); gen <= 2; gen++ {
		if err := rec.Write(w, gen, genPayload(gen, 40), &buf); err != nil {
			t.Fatal(err)
		}
	}
	if gen, p, torn := read(); gen != 2 || !bytes.Equal(p, genPayload(2, 40)) || torn {
		t.Fatalf("round trip: gen %d, payload %x, torn %v", gen, p, torn)
	}
	corrupt(0, 5, 0xdead) // a payload word of generation 2
	if gen, p, torn := read(); gen != 1 || !bytes.Equal(p, genPayload(1, 40)) || torn {
		t.Fatalf("torn newer slot: gen %d, torn %v", gen, torn)
	}
	corrupt(1, 3, 0xbeef) // generation 1's checksum
	if gen, _, torn := read(); gen != 0 || !torn {
		t.Fatalf("two torn slots: gen %d, torn %v", gen, torn)
	}
	corrupt(1, 0, rec.Legacy)
	if gen, _, torn := read(); gen != 0 || torn {
		t.Fatalf("torn slot beside a legacy slot: gen %d, torn %v", gen, torn)
	}
	if err := w.Zero(rec.Base, 2*rec.Size); err != nil {
		t.Fatal(err)
	}
	unreadable := func(off uint64, b []byte) error {
		if off == rec.Off(1) {
			return nvm.ErrTransient
		}
		return w.Read(off, b)
	}
	if gen, _, torn := rec.Read(unreadable); gen != 0 || !torn {
		t.Fatalf("unreadable slot beside a blank one: gen %d, torn %v", gen, torn)
	}
	if err := rec.Write(w, 3, genPayload(3, 8), &buf); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(rec.Off(0), buf); err != nil { // generation 3 in slot 0
		t.Fatal(err)
	}
	if err := w.Zero(rec.Off(1), rec.Size); err != nil {
		t.Fatal(err)
	}
	if gen, _, torn := read(); gen != 0 || !torn {
		t.Fatalf("image in the wrong slot: gen %d, torn %v", gen, torn)
	}
}

// FuzzSlotsRead decodes arbitrary bytes as a two-slot record. Read must
// never panic, never read outside the record and never return more than
// Cap() bytes; an accepted payload must re-encode to the slot's bytes. The
// seed corpus holds a valid pair, blank slots, a torn newer slot, a legacy
// magic, a length over capacity and an image in the wrong slot.
func FuzzSlotsRead(f *testing.F) {
	rec := SiteTable(0, 256)
	f.Fuzz(func(t *testing.T, region []byte) {
		img := make([]byte, 2*rec.Size)
		copy(img, region)
		gen, p, torn := rec.Read(func(off uint64, b []byte) error {
			if off+uint64(len(b)) > uint64(len(img)) {
				t.Fatalf("read [%d, %d) outside the record", off, off+uint64(len(b)))
			}
			copy(b, img[off:])
			return nil
		})
		if len(p) > rec.Cap() {
			t.Fatalf("%d-byte payload over capacity %d", len(p), rec.Cap())
		}
		if gen == 0 {
			return
		}
		if torn {
			t.Fatal("torn record with a valid generation")
		}
		enc := rec.encode(gen, p, nil)
		if !bytes.Equal(enc, img[rec.Off(int(gen&1)):][:len(enc)]) {
			t.Fatalf("generation %d does not re-encode to its slot", gen)
		}
	})
}
