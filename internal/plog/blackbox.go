package plog

import (
	"encoding/binary"
	"sort"
)

// Black-box flight recorder ring (the crash-surviving mirror of the DRAM
// event journal plus a sampled stream of op spans).
//
// Arena layout:
//
//	+0      header: a double-buffered record (slots.go) of two 64-byte
//	        slots; payload u64 boot epoch, u64 record-sequence high-water
//	+128    record ring: capacity() slots of BoxRecordSize bytes each
//
// The header is NOT the publish commit point. Each ring record is
// individually self-checksummed and sequence-congruent (record seq s lives
// at slot s % capacity, always), so a batch of records becomes durable with
// one flush pass over the written range and a single fence — no header
// write per publish. Replay validates every slot independently; a record
// whose store was torn by a crash simply fails its checksum and drops out.
// The header only carries boot metadata and is rewritten at open (bumping
// the epoch) and at clean close.
const (
	// boxMagic marks a header slot ("POSBLBX2" little endian).
	boxMagic = 0x3258424c42534f50
	// boxHeaderSize is one header slot (a cacheline).
	boxHeaderSize = 64
	// BoxRecMagic marks a record slot.
	BoxRecMagic uint32 = 0xb1ac_b0c5
	// BoxRecordSize is the fixed encoded record size: 64 bytes of fields +
	// BoxDetailCap bytes of detail text, two cachelines total.
	BoxRecordSize = 128
	// BoxDetailCap bounds the detail string carried by one record; longer
	// details are truncated at encode time.
	BoxDetailCap = BoxRecordSize - 64
)

// Box record types.
const (
	// BoxEvent mirrors a DRAM journal event; Kind is the obs.EventKind.
	BoxEvent uint8 = 1
	// BoxSpan carries a sampled op span; Kind is the obs.Op.
	BoxSpan uint8 = 2
)

// BoxRecord is one decoded flight-recorder entry.
type BoxRecord struct {
	Seq     uint64 // ring sequence; slot = Seq % capacity
	Type    uint8  // BoxEvent or BoxSpan
	Kind    uint8  // obs.EventKind (events) or obs.Op (spans)
	Subheap int32  // -1 when not sub-heap scoped
	Lane    int32  // span lane; -1 for events
	WallNS  int64  // wall-clock emission time, UnixNano
	DurNS   int64  // span duration; 0 for events
	Aux0    uint64 // span flushes; 0 for events
	Aux1    uint64 // span fences; 0 for events
	Detail  string // event detail text, truncated to BoxDetailCap
}

// BoxArena describes the black-box region inside the heap image.
type BoxArena struct {
	base uint64
	size uint64
}

// NewBoxArena wraps a device range.
func NewBoxArena(base, size uint64) BoxArena { return BoxArena{base: base, size: size} }

// Capacity returns the record-slot count.
func (a BoxArena) Capacity() uint64 {
	if a.size < 2*boxHeaderSize+BoxRecordSize {
		return 0
	}
	return (a.size - 2*boxHeaderSize) / BoxRecordSize
}

// Header returns the double-buffered boot header record.
func (a BoxArena) Header() Slots {
	return Slots{Base: a.base, Size: boxHeaderSize, Magic: boxMagic}
}

// RecordsOff returns the device offset of record slot 0.
func (a BoxArena) RecordsOff() uint64 { return a.base + 2*boxHeaderSize }

// SlotOff returns the device offset of the slot record seq occupies.
func (a BoxArena) SlotOff(seq uint64) uint64 {
	return a.RecordsOff() + (seq%a.Capacity())*BoxRecordSize
}

// boxChecksum mixes a record's sequence number and bytes into its check
// value (FNV-1a seeded with seq, finalized with splitmix64 so every input
// bit avalanches; a torn or bit-flipped record fails the check).
func boxChecksum(seq uint64, b []byte) uint64 {
	h := uint64(0xCBF29CE484222325) ^ seq*0x9E3779B97F4A7C15
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001B3
	}
	h += 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

// EncodeBoxRecord serializes one record. The checksum is seeded with the
// record's own sequence number and covers every other byte of the slot, so
// a torn store, a stale slot claiming a new sequence, or a record flushed
// to the wrong slot all fail validation on replay.
func EncodeBoxRecord(r BoxRecord) [BoxRecordSize]byte {
	detail := r.Detail
	if len(detail) > BoxDetailCap {
		detail = detail[:BoxDetailCap]
	}
	var buf [BoxRecordSize]byte
	binary.LittleEndian.PutUint32(buf[0:], BoxRecMagic)
	buf[4] = r.Type
	buf[5] = r.Kind
	binary.LittleEndian.PutUint16(buf[6:], uint16(len(detail)))
	binary.LittleEndian.PutUint64(buf[8:], r.Seq)
	// buf[16:24] is the checksum word, computed last over the zeroed slot.
	binary.LittleEndian.PutUint64(buf[24:], uint64(r.WallNS))
	binary.LittleEndian.PutUint32(buf[32:], uint32(r.Subheap))
	binary.LittleEndian.PutUint32(buf[36:], uint32(r.Lane))
	binary.LittleEndian.PutUint64(buf[40:], uint64(r.DurNS))
	binary.LittleEndian.PutUint64(buf[48:], r.Aux0)
	binary.LittleEndian.PutUint64(buf[56:], r.Aux1)
	copy(buf[64:], detail)
	sum := boxChecksum(r.Seq, buf[:])
	binary.LittleEndian.PutUint64(buf[16:], sum)
	return buf
}

// DecodeBoxRecord validates and decodes one record slot.
func DecodeBoxRecord(buf []byte) (BoxRecord, bool) {
	if len(buf) < BoxRecordSize {
		return BoxRecord{}, false
	}
	if binary.LittleEndian.Uint32(buf[0:]) != BoxRecMagic {
		return BoxRecord{}, false
	}
	r := BoxRecord{
		Type:    buf[4],
		Kind:    buf[5],
		Seq:     binary.LittleEndian.Uint64(buf[8:]),
		WallNS:  int64(binary.LittleEndian.Uint64(buf[24:])),
		Subheap: int32(binary.LittleEndian.Uint32(buf[32:])),
		Lane:    int32(binary.LittleEndian.Uint32(buf[36:])),
		DurNS:   int64(binary.LittleEndian.Uint64(buf[40:])),
		Aux0:    binary.LittleEndian.Uint64(buf[48:]),
		Aux1:    binary.LittleEndian.Uint64(buf[56:]),
	}
	detailLen := int(binary.LittleEndian.Uint16(buf[6:]))
	if detailLen > BoxDetailCap {
		return BoxRecord{}, false
	}
	sum := binary.LittleEndian.Uint64(buf[16:])
	var scratch [BoxRecordSize]byte
	copy(scratch[:], buf[:BoxRecordSize])
	for i := 16; i < 24; i++ {
		scratch[i] = 0
	}
	if sum != boxChecksum(r.Seq, scratch[:]) {
		return BoxRecord{}, false
	}
	r.Detail = string(buf[64 : 64+detailLen])
	return r, true
}

// ReplayBox reconstructs the timeline from the raw record region (capacity
// slots of BoxRecordSize bytes). Every slot is validated independently:
// a valid record must also sit at its sequence-congruent slot, so a record
// that was being relocated by a buggy writer cannot masquerade. Returns the
// surviving records in ascending sequence order, plus the count of torn
// slots — non-blank slots that failed validation, i.e. the crash-torn tail
// of an unsealed batch (or media damage). Blank slots are neither.
func ReplayBox(region []byte, capacity uint64) (records []BoxRecord, torn int) {
	for slot := uint64(0); slot < capacity; slot++ {
		buf := region[slot*BoxRecordSize : (slot+1)*BoxRecordSize]
		r, ok := DecodeBoxRecord(buf)
		if ok && r.Seq%capacity == slot {
			records = append(records, r)
			continue
		}
		if !allZero(buf) {
			torn++
		}
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Seq < records[j].Seq })
	return records, torn
}

// allZero reports whether buf is entirely zero bytes (a never-written slot).
func allZero(buf []byte) bool {
	for _, b := range buf {
		if b != 0 {
			return false
		}
	}
	return true
}
