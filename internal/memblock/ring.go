package memblock

import "sync/atomic"

// Remote-free ring: a fixed-capacity MPSC queue of pending cross-sub-heap
// frees, persisted inside the owning sub-heap's protected metadata region
// (the spare space of its header page). A thread freeing a block owned by
// another sub-heap CAS-reserves a slot, persists one encoded word with a
// single flush+fence, and returns — no owner lock taken. The owner drains
// published entries in batches under its own lock, and recovery replays
// un-drained entries idempotently.
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
	// RingSlots is the ring capacity. 32 slots bounds the un-drained
	// backlog a crash can leave while keeping the ring + header word well
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

	// MaxRingRel is the largest encodable relative block offset; sub-heap
	// user regions must not exceed it for rings to be enabled.
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

// Ring is the DRAM coordination state of one sub-heap's remote-free ring.
// Producers (any thread) reserve tickets with a CAS on tail and publish
// after persisting their slot; the single consumer (the owning sub-heap,
// under its lock) drains published tickets in order and releases the slots
// once their persistent clearing is durable. The publish/release atomics
// carry the happens-before edges that make the device-byte accesses of
// different threads race-free.
type Ring struct {
	base      uint64 // device offset of slot 0
	armed     atomic.Bool
	head      atomic.Uint64            // next ticket to drain (consumer-owned)
	tail      atomic.Uint64            // next ticket to reserve
	published [RingSlots]atomic.Uint64 // ticket+1 once the slot is persisted
}

// NewRing wires the DRAM state over the ring region at device offset base.
// The ring starts disarmed; Arm it only once the persistent region is in a
// known state (freshly formatted, or replayed clean after a restart).
func NewRing(base uint64) *Ring { return &Ring{base: base} }

// Base returns the device offset of slot 0.
func (r *Ring) Base() uint64 { return r.base }

// Arm opens the ring for producers. Disarm closes it (producers fall back
// to the locked free path); a ring left holding corrupt entries stays
// disarmed forever so producers cannot overwrite the evidence.
func (r *Ring) Arm()        { r.armed.Store(true) }
func (r *Ring) Disarm()     { r.armed.Store(false) }
func (r *Ring) Armed() bool { return r.armed.Load() }

// Reset clears the DRAM state (after recovery replayed and cleared the
// persistent slots). Not safe concurrently with producers.
func (r *Ring) Reset() {
	r.head.Store(0)
	r.tail.Store(0)
	for i := range r.published {
		r.published[i].Store(0)
	}
}

// Reserve claims the next producer ticket, or reports a full ring.
func (r *Ring) Reserve() (ticket uint64, ok bool) {
	for {
		t := r.tail.Load()
		if t-r.head.Load() >= RingSlots {
			return 0, false
		}
		if r.tail.CompareAndSwap(t, t+1) {
			return t, true
		}
	}
}

// SlotOff returns the device offset of the ticket's slot word.
func (r *Ring) SlotOff(ticket uint64) uint64 {
	return r.base + ticket%RingSlots*RingSlotBytes
}

// Publish marks the ticket's slot persisted and visible to the consumer.
func (r *Ring) Publish(ticket uint64) {
	r.published[ticket%RingSlots].Store(ticket + 1)
}

// PeekDrain returns the skip-th ticket past head if its producer has
// published, letting a drain batch walk forward without advancing head
// (head only moves at Release, once the batch's clears are durable).
// Consumer only.
func (r *Ring) PeekDrain(skip int) (ticket uint64, ok bool) {
	h := r.head.Load() + uint64(skip)
	return h, r.published[h%RingSlots].Load() == h+1
}

// Release hands the n oldest drained slots back to producers. Call only
// after the slots' persistent clearing is durable: releasing earlier would
// let a producer overwrite a slot whose old entry could still replay after
// a crash — against a block that may have been re-allocated meanwhile.
// Consumer only.
func (r *Ring) Release(n int) {
	h := r.head.Load()
	for i := 0; i < n; i++ {
		r.published[h%RingSlots].Store(0)
		h++
	}
	r.head.Store(h)
}

// Pending returns the approximate number of reserved-but-undrained tickets.
func (r *Ring) Pending() uint64 { return r.tail.Load() - r.head.Load() }
