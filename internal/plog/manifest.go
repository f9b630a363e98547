package plog

// Cache manifest: the persistent shadow of a thread's DRAM block magazine.
//
// Each micro-log lane owns a fixed arena of 8-byte manifest words right
// after the lane arena in the superblock region. A thread's magazine keeps
// pre-carved blocks in DRAM for lock-free alloc/free fast paths; every
// cached block is also recorded here so a crash can never leak a magazine:
// recovery decodes the surviving words and returns the blocks to their
// free lists idempotently.
//
// Word layout (little endian):
//
//	bits  0..32  rel+1 — block offset relative to the owning sub-heap's
//	             user region base, biased by one so a valid entry is never
//	             the zero word
//	bits 33..48  sub-heap index of the cached block
//	bits 49..63  checksum over bits 0..48
//
// An entry is confined to a single atomically stored 8-byte word: under
// torn eviction a word is either its old value or its new value, never a
// blend, so a pure power failure can only leave zero (empty) or fully
// valid words. A word that decodes to neither is media corruption by
// construction and is left in place for the audit. Manifest words are
// single-writer (the owning thread, or the recovery path with the heap
// quiesced), so they pack eight per cacheline — a whole refill batch
// persists with a handful of line flushes and one fence.
const (
	cacheRelBits   = 33
	cacheShardBits = 16
	cacheBodyBits  = cacheRelBits + cacheShardBits // 49
	cacheRelMask   = 1<<cacheRelBits - 1
	cacheBodyMask  = 1<<cacheBodyBits - 1

	// MaxCacheRel is the largest encodable user-region-relative offset;
	// sub-heap user regions must not exceed it for magazines to be
	// enabled.
	MaxCacheRel = cacheRelMask - 1
)

// cacheChecksum mixes the entry body into a 15-bit check value
// (splitmix64's finalizer — every input bit avalanches, so a single bit
// flip in body or checksum is detected).
func cacheChecksum(body uint64) uint64 {
	x := body + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return x >> cacheBodyBits
}

// EncodeCacheEntry packs a user-region-relative block offset and its
// owning sub-heap index into one manifest word. rel must be ≤ MaxCacheRel.
// The result is never zero (the offset field is biased by one), so the
// zero word always means "empty slot".
func EncodeCacheEntry(rel uint64, shard uint16) uint64 {
	body := (rel + 1) | uint64(shard)<<cacheRelBits
	return body | cacheChecksum(body)<<cacheBodyBits
}

// DecodeCacheEntry unpacks a non-zero manifest word. ok is false when the
// checksum does not match the body — a corrupt entry.
func DecodeCacheEntry(word uint64) (rel uint64, shard uint16, ok bool) {
	body := word & cacheBodyMask
	if word>>cacheBodyBits != cacheChecksum(body) || body&cacheRelMask == 0 {
		return 0, 0, false
	}
	return body&cacheRelMask - 1, uint16(body >> cacheRelBits), true
}

// Manifest is the geometry of one lane's cache-manifest arena: 8-byte
// words at consecutive device offsets. It carries no I/O handle — the
// thread and the sub-heap refill path write the words through their own
// protection windows, and recovery, lane adoption and the audit read the
// whole arena with one device read.
type Manifest struct {
	base uint64
}

// NewManifest describes the manifest arena at device offset base.
func NewManifest(base uint64) Manifest { return Manifest{base: base} }

// WordOff returns the device offset of word i.
func (m Manifest) WordOff(i uint64) uint64 { return m.base + i*8 }
