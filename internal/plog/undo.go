// Package plog implements Poseidon's persistent logs and records over an
// NVMM window: the undo log that makes every metadata mutation
// failure-atomic, the micro log that records the allocations of an open
// transactional allocation (paper §4.5, §5.2, §5.3, §5.8), and the
// double-buffered record (Slots) that keeps best-effort state: the
// sub-heap metadata mirror, the profile site table and the black-box
// header.
//
// Both logs live inside the MPK-protected metadata region of a sub-heap (or
// the superblock), so they are guarded by the same protection discipline as
// the metadata they protect.
package plog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"poseidon/internal/mpk"
)

// Undo log persistent layout (all offsets relative to the log base):
//
//	+0   count   u64  — number of committed entries
//	+8   cursor  u64  — byte length of the committed entries
//	+16  sum     u64  — the commit word: a checksum over count, cursor and
//	                    every entry word, never zero; zero means empty
//	+24  format  u64  — undoFormatSum once the log uses checksummed seals
//	+64  entry area — entries appended back to back:
//	       [target u64][length u64][data … padded to 8 bytes]
//
// Protocol: Snapshot appends entries (volatile) and folds their words into a
// running checksum; Seal writes cursor, count and sum and makes the entry
// lines and the header line durable under ONE fence; the caller then mutates
// the target metadata and flushes it; Truncate zeroes sum (one fence). A
// crash between Seal and Truncate replays the entries in reverse, restoring
// the pre-mutation bytes. Replay is idempotent: crashing during recovery and
// replaying again is safe (§5.8).
//
// Why one seal fence suffices: before the fence any subset of the header
// words and entry words may have reached the media. Open accepts a log only
// if sum is nonzero and matches a recomputation over the persisted count,
// cursor and entries, so a partially persisted seal reads as the empty log.
// That is the right answer: target stores begin only after the fence, so
// nothing needs undoing. The previous transaction cannot come back either:
// its Truncate zeroed sum with one atomic store, so a torn seal that keeps
// the old count, cursor and entries also keeps sum=0, and a new sum matches
// only the new transaction's complete log.
//
// Legacy logs (written before checksummed seals) have no format word and
// replay by the old rule: count≠0 means committed, and Truncate zeroes count.
// A log's first seal writes the format word (and a zero sum) and fences it
// while count is zero, before any checksummed seal; nothing writes it again,
// so the choice between the two rules never depends on a word a torn seal
// can leave half-written.
const (
	undoHeaderSize = 64
	entryHeader    = 16
	undoSumOff     = 16
	undoFormatOff  = 24

	// undoFormatSum is "UNDOSUM1" little endian.
	undoFormatSum uint64 = 0x314d55534f444e55
)

// Common log errors.
var (
	ErrLogFull  = errors.New("plog: log capacity exceeded")
	ErrLogDirty = errors.New("plog: log contains committed entries (crash recovery required)")
	errCorrupt  = errors.New("plog: corrupt log header")
)

// UndoLog is a write-ahead log of original metadata bytes.
type UndoLog struct {
	w    mpk.Window
	base uint64
	size uint64

	// Volatile mirrors of the persistent header.
	count  uint64
	cursor uint64 // end of committed entries, relative to entry area
	tail   uint64 // end of appended (possibly unsealed) entries
	unseal uint64 // entries appended since the last Seal
	sum    uint64 // running checksum over the appended entry words
	format bool   // the format word is durable: sum is the commit word

	// Volatile accounting: how many Seal/Truncate commit points this log
	// has issued since open (each costs one fence).
	seals     uint64
	truncates uint64

	scratch []byte // reused entry-assembly buffer
}

// OpenUndoLog attaches to (or initialises) the undo log stored at
// [base, base+size) behind w. The region must be zeroed at first use; a
// zeroed header is the empty log. Open never writes the device.
func OpenUndoLog(w mpk.Window, base, size uint64) (*UndoLog, error) {
	if size < undoHeaderSize+entryHeader+8 {
		return nil, fmt.Errorf("plog: undo log region too small (%d bytes)", size)
	}
	var hdr [32]byte
	if err := w.Read(base, hdr[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint64(hdr[0:])
	cursor := binary.LittleEndian.Uint64(hdr[8:])
	if cursor > size-undoHeaderSize {
		return nil, fmt.Errorf("%w: cursor %d beyond capacity", errCorrupt, cursor)
	}
	l := &UndoLog{
		w: w, base: base, size: size,
		sum:    sumSeed,
		format: binary.LittleEndian.Uint64(hdr[undoFormatOff:]) == undoFormatSum,
	}
	if count != 0 && l.format {
		// A zero sum is a truncated log; a mismatched one is a seal that
		// never reached its fence, so nothing was applied. Both are empty.
		ok, err := l.sealValid(count, cursor, binary.LittleEndian.Uint64(hdr[undoSumOff:]))
		if err != nil {
			return nil, err
		}
		if !ok {
			count = 0
		}
	}
	if count > cursor/(entryHeader+8) {
		return nil, fmt.Errorf("%w: %d entries cannot fit in %d bytes", errCorrupt, count, cursor)
	}
	if count == 0 {
		// The log is empty whatever cursor says: appending restarts at zero.
		cursor = 0
	}
	l.count, l.cursor, l.tail = count, cursor, cursor
	return l, nil
}

// sealValid reports whether sum is nonzero and matches count, cursor and the
// persisted entry words — i.e. whether the last seal completed and no
// truncate followed it.
func (l *UndoLog) sealValid(count, cursor, sum uint64) (bool, error) {
	if sum == 0 || cursor%8 != 0 {
		return false, nil
	}
	buf := make([]byte, cursor)
	if err := l.w.Read(l.entryArea(), buf); err != nil {
		return false, err
	}
	return sealSum(sumWords(sumSeed, buf), count, cursor) == sum, nil
}

// IsEmpty reports whether the log holds no committed entries — i.e. the last
// operation completed and truncated it.
func (l *UndoLog) IsEmpty() bool { return l.count == 0 }

// Count returns the number of committed entries.
func (l *UndoLog) Count() uint64 { return l.count }

// Seals returns how many non-empty Seal commit points the log has issued
// since open (volatile).
func (l *UndoLog) Seals() uint64 { return l.seals }

// Truncates returns how many Truncate commit points the log has issued
// since open (volatile).
func (l *UndoLog) Truncates() uint64 { return l.truncates }

// entryArea returns the device offset of the entry area.
func (l *UndoLog) entryArea() uint64 { return l.base + undoHeaderSize }

// Snapshot appends the current contents of [target, target+n) to the log.
// The entry is volatile until Seal. Callers snapshot every metadata range
// they are about to mutate, seal once, then mutate.
func (l *UndoLog) Snapshot(target, n uint64) error {
	if n == 0 {
		return nil
	}
	padded := (n + 7) &^ 7
	need := entryHeader + padded
	if l.tail+need > l.size-undoHeaderSize {
		return fmt.Errorf("%w: undo log (%d bytes appended)", ErrLogFull, l.tail)
	}
	if uint64(cap(l.scratch)) < need {
		l.scratch = make([]byte, need*2)
	}
	buf := l.scratch[:need]
	clear(buf[entryHeader+n:]) // zero the padding tail of the reused buffer
	putU64(buf[0:], target)
	putU64(buf[8:], n)
	if err := l.w.Read(target, buf[entryHeader:entryHeader+n]); err != nil {
		return err
	}
	if err := l.w.Write(l.entryArea()+l.tail, buf); err != nil {
		return err
	}
	l.sum = sumWords(l.sum, buf)
	l.tail += need
	l.unseal++
	return nil
}

// Seal makes every appended entry durable and commits them with one persist
// barrier. After Seal returns, a crash will undo the mutations the caller is
// about to make. A log holds one transaction at a time: sealing a log that
// already holds committed entries fails with ErrLogDirty.
func (l *UndoLog) Seal() error {
	if l.unseal == 0 {
		return nil
	}
	if l.count != 0 {
		return fmt.Errorf("%w: seal over %d committed entries", ErrLogDirty, l.count)
	}
	var hdr [32]byte
	if !l.format {
		// Once per log, while count is zero: adopt checksummed seals.
		putU64(hdr[undoFormatOff:], undoFormatSum)
		if err := l.w.Write(l.base+undoSumOff, hdr[undoSumOff:]); err != nil {
			return err
		}
		if err := l.w.Flush(l.base, 32); err != nil {
			return err
		}
		l.w.Fence()
		l.format = true
	}
	// One store for the three header words: their order does not matter,
	// the checksum rejects any mix of old and new.
	putU64(hdr[0:], l.unseal)
	putU64(hdr[8:], l.tail)
	putU64(hdr[undoSumOff:], sealSum(l.sum, l.unseal, l.tail))
	if err := l.w.Write(l.base, hdr[:undoFormatOff]); err != nil {
		return err
	}
	if err := l.w.Flush(l.entryArea(), l.tail); err != nil {
		return err
	}
	if err := l.w.Flush(l.base, 32); err != nil {
		return err
	}
	l.w.Fence()
	l.count, l.cursor, l.unseal = l.unseal, l.tail, 0
	l.seals++
	return nil
}

// Truncate discards all entries, marking the protected mutation complete.
// The caller must have flushed its metadata mutations first. It zeroes the
// commit word with one atomic store — sum, or count on a legacy log — and
// leaves the other header words stale: the commit word makes them
// meaningless.
func (l *UndoLog) Truncate() error {
	commit := l.base + undoSumOff
	if !l.format {
		commit = l.base
	}
	if err := l.w.WriteU64(commit, 0); err != nil {
		return err
	}
	if err := l.w.Flush(commit, 8); err != nil {
		return err
	}
	l.w.Fence()
	l.count, l.cursor, l.tail, l.unseal, l.sum = 0, 0, 0, 0, sumSeed
	l.truncates++
	return nil
}

// Replay restores every committed entry in reverse order, persists the
// restored bytes, then truncates the log. Replaying an empty log is a no-op.
// Replay is idempotent.
func (l *UndoLog) Replay() error {
	if l.count == 0 {
		// Drop any unsealed garbage.
		l.tail, l.unseal, l.sum = l.cursor, 0, sumSeed
		return nil
	}
	// Walk forward collecting entry positions, then restore in reverse.
	type entry struct {
		pos    uint64 // offset of data within entry area
		target uint64
		length uint64
	}
	entries := make([]entry, 0, l.count)
	pos := uint64(0)
	for i := uint64(0); i < l.count; i++ {
		target, err := l.w.ReadU64(l.entryArea() + pos)
		if err != nil {
			return err
		}
		length, err := l.w.ReadU64(l.entryArea() + pos + 8)
		if err != nil {
			return err
		}
		padded := (length + 7) &^ 7
		if length == 0 || length > l.cursor || pos+entryHeader+padded > l.cursor {
			return fmt.Errorf("%w: entry %d overruns committed area", errCorrupt, i)
		}
		entries = append(entries, entry{pos: pos + entryHeader, target: target, length: length})
		pos += entryHeader + padded
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		buf := make([]byte, e.length)
		if err := l.w.Read(l.entryArea()+e.pos, buf); err != nil {
			return err
		}
		if err := l.w.Write(e.target, buf); err != nil {
			return err
		}
		if err := l.w.Flush(e.target, e.length); err != nil {
			return err
		}
	}
	l.w.Fence()
	return l.Truncate()
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// Checksum constants: a nonzero seed and the xxHash64 primes.
const (
	sumSeed   = 0x243F6A8885A308D3
	sumPrime1 = 0x9E3779B185EBCA87
	sumPrime2 = 0xC2B2AE3D27D4EB4F
	sumPrime3 = 0x165667B19E3779F9
)

// sumRound folds one word into the running checksum. Each round is a
// bijection of both the state and the word, so a log differing from the
// sealed one in any single word always fails the check.
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

// sealSum finishes a running entry checksum with the header words it
// commits, avalanches it, and keeps it off zero (a zero sum is the empty
// log).
func sealSum(h, count, cursor uint64) uint64 {
	h = sumRound(sumRound(h, count), cursor)
	h ^= h >> 33
	h *= sumPrime2
	h ^= h >> 29
	h *= sumPrime3
	h ^= h >> 32
	return max(h, 1)
}
