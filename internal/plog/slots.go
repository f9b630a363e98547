package plog

import (
	"encoding/binary"
	"fmt"

	"poseidon/internal/mpk"
)

// Double-buffered record: a small best-effort value (a sub-heap's metadata
// mirror, the profile site table, the black-box boot header) kept in two
// fixed-size slots, so a crash during an update always leaves a complete
// earlier value behind.
//
// Slot image (little-endian u64 words, then the payload):
//
//	+0   magic  the record's format
//	+8   gen    generation, ≥ 1; generation g always lives in slot g&1
//	+16  len    payload byte length
//	+24  sum    the undo log's word checksum over the payload (zero-padded
//	            to whole words), then gen and len
//	+32  payload
//
// Write stores the image in one store, flushes its lines and fences once.
// Generation g+1 never shares a slot with generation g, so a write never
// touches the newest complete value: until the fence any subset of the new
// image's words may reach the media, every subset but the whole image fails
// its checksum, and the other slot is untouched. A reader sees the previous
// generation or the new one, never a mix.
//
// A slot whose header is all zero is blank. A slot holding the record's
// parent-format magic is legacy and reads as blank too. Read reports a
// record torn when no slot validates and some slot is neither blank nor
// legacy, counting an unreadable slot as written. A record with a legacy
// slot is never torn: until its first write in this format completes, its
// other slot holds the parent format's bytes or that write's torn image,
// and neither is damage.
const SlotHeader = 32

// Slots is a double-buffered record occupying [Base, Base+2*Size). Like
// Manifest it carries no I/O handle; callers pass their own window.
type Slots struct {
	Base   uint64 // device offset of slot 0; slot 1 follows at Base+Size
	Size   uint64 // bytes per slot, header included
	Magic  uint64 // marks a slot written in this format
	Legacy uint64 // the parent format's magic; such a slot reads as blank
}

// Cap returns the largest payload one slot holds.
func (s Slots) Cap() int {
	if s.Size < SlotHeader {
		return 0
	}
	return int(s.Size-SlotHeader) &^ 7
}

// Off returns the device offset of slot i.
func (s Slots) Off(i int) uint64 { return s.Base + uint64(i)*s.Size }

// Write persists payload as generation gen (≥ 1) into slot gen&1: one
// store, a flush of the image's lines, one fence. buf holds the image
// between calls, so a steady writer allocates nothing.
func (s Slots) Write(w mpk.Window, gen uint64, payload []byte, buf *[]byte) error {
	if gen == 0 || len(payload) > s.Cap() {
		return fmt.Errorf("plog: slot write of generation %d, %d bytes (capacity %d)", gen, len(payload), s.Cap())
	}
	*buf = s.encode(gen, payload, *buf)
	off := s.Off(int(gen & 1))
	if err := w.Write(off, *buf); err != nil {
		return err
	}
	if err := w.Flush(off, uint64(len(*buf))); err != nil {
		return err
	}
	w.Fence()
	return nil
}

// encode builds generation gen's slot image in buf's storage.
func (s Slots) encode(gen uint64, payload, buf []byte) []byte {
	n := SlotHeader + (len(payload)+7)&^7
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	img := buf[:n]
	copy(img[SlotHeader:], payload)
	clear(img[SlotHeader+len(payload):])
	putU64(img[0:], s.Magic)
	putU64(img[8:], gen)
	putU64(img[16:], uint64(len(payload)))
	putU64(img[24:], sealSum(sumWords(sumSeed, img[SlotHeader:]), gen, uint64(len(payload))))
	return img
}

// Read returns the newest valid generation (0 when none) and its payload,
// reading each slot through read so each caller keeps its own retry
// policy. torn follows the rules above.
func (s Slots) Read(read func(off uint64, b []byte) error) (gen uint64, payload []byte, torn bool) {
	written, legacy := false, false
	buf := make([]byte, 2*s.Size)
	for i := range 2 {
		img := buf[uint64(i)*s.Size:][:s.Size]
		if read(s.Off(i), img) != nil {
			written = true
			continue
		}
		magic := binary.LittleEndian.Uint64(img[0:])
		switch {
		case allZero(img[:SlotHeader]):
			continue
		case magic == s.Legacy:
			legacy = true
			continue
		}
		written = true
		g, n := binary.LittleEndian.Uint64(img[8:]), binary.LittleEndian.Uint64(img[16:])
		if magic != s.Magic || g&1 != uint64(i) || g <= gen || n > uint64(s.Cap()) {
			continue
		}
		p := img[SlotHeader:][:(n+7)&^7]
		if sealSum(sumWords(sumSeed, p), g, n) == binary.LittleEndian.Uint64(img[24:]) {
			gen, payload = g, p[:n:n]
		}
	}
	return gen, payload, gen == 0 && written && !legacy
}
