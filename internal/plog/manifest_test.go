package plog

import "testing"

func TestCacheEntryRoundTrip(t *testing.T) {
	cases := []struct {
		rel   uint64
		shard uint16
	}{
		{0, 0}, {1, 1}, {64, 3}, {MaxCacheRel, 65535}, {1 << 20, 7},
	}
	for _, c := range cases {
		word := EncodeCacheEntry(c.rel, c.shard)
		if word == 0 {
			t.Fatalf("Encode(%d, %d) = 0; zero must mean empty", c.rel, c.shard)
		}
		rel, shard, ok := DecodeCacheEntry(word)
		if !ok || rel != c.rel || shard != c.shard {
			t.Fatalf("Decode(Encode(%d, %d)) = (%d, %d, %v)", c.rel, c.shard, rel, shard, ok)
		}
	}
}

func TestCacheEntryZeroInvalid(t *testing.T) {
	if _, _, ok := DecodeCacheEntry(0); ok {
		t.Fatal("zero word decoded as valid")
	}
}

func TestCacheEntryBitFlipDetected(t *testing.T) {
	word := EncodeCacheEntry(12345, 9)
	for bit := 0; bit < 64; bit++ {
		flipped := word ^ 1<<uint(bit)
		if flipped == 0 {
			continue
		}
		rel, shard, ok := DecodeCacheEntry(flipped)
		if ok && rel == 12345 && shard == 9 {
			t.Fatalf("bit %d flip not detected", bit)
		}
	}
}

func TestManifestGeometry(t *testing.T) {
	m := NewManifest(4096)
	if got := m.WordOff(0); got != 4096 {
		t.Fatalf("WordOff(0) = %d", got)
	}
	if got := m.WordOff(10); got != 4096+80 {
		t.Fatalf("WordOff(10) = %d", got)
	}
}

// FuzzDecodeCacheEntry: every Load decodes every lane's manifest words, so
// any word must decode without panicking, and a word that decodes must be
// exactly the encoding of what it decodes to — no two words name one
// entry. Seeds: the empty word, single-bit flips of a valid word, a shard
// beyond any sub-heap count, and an offset past MaxCacheRel.
func FuzzDecodeCacheEntry(f *testing.F) {
	valid := EncodeCacheEntry(0x1240, 3)
	f.Add(uint64(0))
	f.Add(valid)
	for bit := 0; bit < 64; bit++ {
		f.Add(valid ^ 1<<uint(bit))
	}
	f.Add(EncodeCacheEntry(64, 65535))
	f.Add(EncodeCacheEntry(MaxCacheRel+1, 0))
	f.Fuzz(func(t *testing.T, word uint64) {
		rel, shard, ok := DecodeCacheEntry(word)
		if !ok {
			return
		}
		if rel > MaxCacheRel {
			t.Fatalf("%#x decodes to offset %#x past MaxCacheRel", word, rel)
		}
		if enc := EncodeCacheEntry(rel, shard); enc != word {
			t.Fatalf("%#x decodes to (%#x, %d), which encodes to %#x", word, rel, shard, enc)
		}
	})
}
