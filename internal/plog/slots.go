package plog

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"poseidon/internal/mpk"
)

// Double-buffered record: a value (a commit record, the superblock's
// geometry or root record, a sub-heap's metadata mirror, the profile site
// table, the black-box boot header) kept in two fixed-size slots, so a
// crash during an update always leaves a complete earlier value behind.
//
// Slot image (little-endian u64 words, then the payload):
//
//	+0   magic  the record's format
//	+8   gen    generation, ≥ 1; generation g always lives in slot g&1
//	+16  len    payload byte length
//	+24  sum    sumWords over the payload (zero-padded to whole words),
//	            finished by sealSum with gen and len
//	+32  payload
//
// Write stores the image in one store, flushes its lines and fences once.
// Generation g+1 never shares a slot with generation g, so a write never
// touches the newest complete value: until the fence any subset of the new
// image's words may reach the media, every subset but the whole image fails
// its checksum, and the other slot is untouched. A reader sees the previous
// generation or the new one, never a mix.
//
// A slot whose header is all zero is blank; any other slot is written,
// whatever its magic, and so is an unreadable one. Read reports a record
// torn when no slot validates and some slot is written.
const SlotHeader = 32

// Slots is a double-buffered record occupying [Base, Base+2*Size). Like
// Manifest it carries no I/O handle; callers pass their own window.
type Slots struct {
	Base  uint64 // device offset of slot 0; slot 1 follows at Base+Size
	Size  uint64 // bytes per slot, header included
	Magic uint64 // marks a slot written in this format
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
	binary.LittleEndian.PutUint64(img[0:], s.Magic)
	binary.LittleEndian.PutUint64(img[8:], gen)
	binary.LittleEndian.PutUint64(img[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(img[24:], sealSum(sumWords(sumSeed, img[SlotHeader:]), gen, uint64(len(payload))))
	return img
}

// Read returns the newest valid generation (0 when none) and its payload,
// reading each slot through read so each caller keeps its own retry
// policy: first the header, then only the bytes its length names. torn
// follows the rules above.
func (s Slots) Read(read func(off uint64, b []byte) error) (gen uint64, payload []byte, torn bool) {
	written := false
	for i := range 2 {
		g, p, w, _ := s.readSlot(read, i)
		written = written || w
		if g > gen {
			gen, payload = g, p
		}
	}
	return gen, payload, gen == 0 && written
}

// readSlot returns slot i's generation and payload if it holds a valid
// image (gen 0 otherwise), whether the slot is written rather than blank,
// and the error of a failed read.
func (s Slots) readSlot(read func(off uint64, b []byte) error, i int) (gen uint64, payload []byte, written bool, err error) {
	var hdr [SlotHeader]byte
	if err := read(s.Off(i), hdr[:]); err != nil {
		return 0, nil, true, err
	}
	if allZero(hdr[:]) {
		return 0, nil, false, nil
	}
	g, n := binary.LittleEndian.Uint64(hdr[8:]), binary.LittleEndian.Uint64(hdr[16:])
	if binary.LittleEndian.Uint64(hdr[0:]) != s.Magic || g == 0 || g&1 != uint64(i) || n > uint64(s.Cap()) {
		return 0, nil, true, nil
	}
	p := make([]byte, (n+7)&^7)
	if len(p) > 0 {
		if err := read(s.Off(i)+SlotHeader, p); err != nil {
			return 0, nil, true, err
		}
	}
	if sealSum(sumWords(sumSeed, p), g, n) != binary.LittleEndian.Uint64(hdr[24:]) {
		return 0, nil, true, nil
	}
	return g, p[:n:n], true, nil
}

// Checksum constants: a nonzero seed and the xxHash64 primes.
const (
	sumSeed   = 0x243F6A8885A308D3
	sumPrime1 = 0x9E3779B185EBCA87
	sumPrime2 = 0xC2B2AE3D27D4EB4F
	sumPrime3 = 0x165667B19E3779F9
)

// sumRound folds one word into the running checksum. Each round is a
// bijection of both the state and the word, so an image differing from the
// written one in any single word always fails the check.
func sumRound(h, w uint64) uint64 {
	return bits.RotateLeft64(h+w*sumPrime2, 31) * sumPrime1
}

// sumWords folds every whole 8-byte word of b into h, in order.
func sumWords(h uint64, b []byte) uint64 {
	for ; len(b) >= 8; b = b[8:] {
		h = sumRound(h, binary.LittleEndian.Uint64(b))
	}
	return h
}

// sealSum finishes a running checksum with two header words, avalanches
// it, and keeps it off zero (a zero sum marks an empty log or entry).
func sealSum(h, count, cursor uint64) uint64 {
	h = sumRound(sumRound(h, count), cursor)
	h ^= h >> 33
	h *= sumPrime2
	h ^= h >> 29
	h *= sumPrime3
	h ^= h >> 32
	return max(h, 1)
}
