package memblock

import (
	"math/rand"
	"testing"
)

func TestRingEntryRoundTrip(t *testing.T) {
	rels := []uint64{0, 1, 63, 4096, MaxRingRel}
	for _, rel := range rels {
		for _, epoch := range []uint8{0, 1, 7, 15} {
			word := EncodeRingEntry(rel, epoch)
			if word == 0 {
				t.Fatalf("EncodeRingEntry(%d, %d) = 0; zero must mean empty", rel, epoch)
			}
			gotRel, gotEpoch, ok := DecodeRingEntry(word)
			if !ok {
				t.Fatalf("DecodeRingEntry(%#x) rejected its own encoding", word)
			}
			if gotRel != rel || gotEpoch != epoch {
				t.Fatalf("round trip (%d, %d) -> (%d, %d)", rel, epoch, gotRel, gotEpoch)
			}
		}
	}
}

func TestRingEntryEpochMasked(t *testing.T) {
	// Tickets beyond the epoch field width wrap; only the low bits survive.
	word := EncodeRingEntry(100, 0x37)
	_, epoch, ok := DecodeRingEntry(word)
	if !ok || epoch != 0x7 {
		t.Fatalf("epoch = %#x, ok = %v; want 0x7, true", epoch, ok)
	}
}

func TestRingEntrySingleBitFlipDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		rel := rng.Uint64() % (MaxRingRel + 1)
		word := EncodeRingEntry(rel, uint8(rng.Intn(16)))
		bit := uint(rng.Intn(64))
		flipped := word ^ 1<<bit
		if flipped == 0 {
			continue // became the empty word, which is not decoded at all
		}
		gotRel, _, ok := DecodeRingEntry(flipped)
		if ok && gotRel == rel {
			// A flip that still decodes must at least change the payload —
			// otherwise the checksum failed to protect the entry.
			t.Fatalf("bit %d flip of %#x went undetected", bit, word)
		}
		if ok {
			t.Fatalf("bit %d flip of %#x decoded as valid entry %#x", bit, word, flipped)
		}
	}
}

func TestRingDecodeRejectsZeroBody(t *testing.T) {
	// A word whose offset field is all-zero cannot be a valid entry even if
	// its checksum matches (the bias guarantees valid bodies are nonzero).
	if _, _, ok := DecodeRingEntry(ringChecksum(0) << (ringRelBits + ringEpochBits)); ok {
		t.Fatal("zero-body word decoded as valid")
	}
}
