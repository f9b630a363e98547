package memblock

// Remote-free ring: the slot codec of the fixed-capacity queue of pending
// cross-sub-heap frees that older versions kept inside the owning
// sub-heap's protected metadata region (the spare space of its header
// page). A producer persisted one encoded word per free and returned; the
// owner drained the words later. Frees no longer take that path, but an
// image written with rings on may still hold undrained words, which Load
// and Repair replay and the audit decodes — so the codec and the region's
// footprint stay.
//
// Persistence format: each slot is one 64-byte cacheline holding a single
// 8-byte word at offset 0 (the rest stays zero). Confining an entry to one
// atomically-stored word on its own cacheline is what makes the crash
// argument go through: under torn eviction a slot is either its old value
// or its new value, never a blend, so a pure power failure can only leave
// all-zero (empty) or fully valid slots. A slot that decodes to neither is
// media corruption by construction, and is left in place for the audit.
//
// Word layout (little endian):
//
//	bits  0..43  rel+1 — block offset relative to the user region base,
//	             biased by one so a valid entry is never the zero word
//	bits 44..47  epoch — low bits of the producer's ticket (diagnostics)
//	bits 48..63  checksum over bits 0..47
const (
	// RingSlots is the ring capacity. 32 slots bounded the un-drained
	// backlog a crash could leave while keeping the ring + header word well
	// inside one 4 KiB header page.
	RingSlots = 32
	// RingSlotBytes is one slot's footprint: a full cacheline, so no two
	// slots (and no unrelated metadata) ever share a dirty line.
	RingSlotBytes = 64
	// RingBytes is the persistent footprint of the whole ring.
	RingBytes = RingSlots * RingSlotBytes

	ringRelBits   = 44
	ringRelMask   = 1<<ringRelBits - 1
	ringEpochBits = 4
	ringEpochMask = 1<<ringEpochBits - 1
	ringBodyMask  = 1<<(ringRelBits+ringEpochBits) - 1

	// MaxRingRel is the largest encodable relative block offset.
	MaxRingRel = ringRelMask - 1
)

// ringChecksum mixes the entry body into a 16-bit check value
// (splitmix64's finalizer — every input bit avalanches, so a single bit
// flip in body or checksum is detected).
func ringChecksum(body uint64) uint64 {
	x := body + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return x >> 48
}

// EncodeRingEntry packs a relative block offset and producer epoch into
// one slot word. rel must be ≤ MaxRingRel. The result is never zero (the
// offset field is biased by one), so the zero word always means "empty".
func EncodeRingEntry(rel uint64, epoch uint8) uint64 {
	body := (rel + 1) | uint64(epoch&ringEpochMask)<<ringRelBits
	return body | ringChecksum(body)<<(ringRelBits+ringEpochBits)
}

// DecodeRingEntry unpacks a non-zero slot word. ok is false when the
// checksum does not match the body — a corrupt entry.
func DecodeRingEntry(word uint64) (rel uint64, epoch uint8, ok bool) {
	body := word & ringBodyMask
	if word>>(ringRelBits+ringEpochBits) != ringChecksum(body) || body&ringRelMask == 0 {
		return 0, 0, false
	}
	return body&ringRelMask - 1, uint8(body >> ringRelBits & ringEpochMask), true
}
