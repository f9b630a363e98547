// Package plog implements Poseidon's persistent logs and records over an
// NVMM window: the commit-record log that makes every metadata mutation
// failure-atomic (RedoLog; paper §5.2 uses an undo log, see DESIGN.md's
// known deviations), the micro log that records the allocations of an open
// transactional allocation (paper §4.5, §5.3, §5.8), the double-buffered
// record (Slots) that holds commit records and best-effort state — the
// sub-heap metadata mirror, the profile site table, the black-box header —
// and the read path of the legacy undo log.
//
// The logs live inside the MPK-protected metadata region of a sub-heap (or
// the superblock), so they are guarded by the same protection discipline as
// the metadata they protect.
package plog

import (
	"encoding/binary"
	"errors"
	"fmt"

	"poseidon/internal/mpk"
)

// Legacy undo log: the format this log region held before commit records
// (redo.go). Only its read path remains, to roll back images the undo code
// wrote; RedoLog.Open calls it and then blanks the region. Layout (offsets
// relative to the log base):
//
//	+0   count   u64  — number of committed entries
//	+8   cursor  u64  — byte length of the committed entries
//	+16  sum     u64  — a checksum over count, cursor and every entry word,
//	                    never zero; zero means empty
//	+24  format  u64  — undoFormatSum once the log used checksummed seals
//	+64  entry area — entries back to back:
//	       [target u64][length u64][old bytes … padded to 8 bytes]
//
// A sealed log holds the bytes its transaction was about to overwrite, and
// Replay restores them in reverse order. A checksummed log counts as sealed
// only if sum is nonzero and matches its count, cursor and entries, so a
// torn seal reads as empty; a log without the format word (the first,
// pre-checksum form) is sealed whenever count is nonzero.
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
	ErrLogFull = errors.New("plog: log capacity exceeded")
	errCorrupt = errors.New("plog: corrupt log header")
)

// UndoLog is a legacy write-ahead log of original metadata bytes.
type UndoLog struct {
	w    mpk.Window
	base uint64
	size uint64

	count  uint64 // committed entries
	cursor uint64 // end of committed entries, relative to entry area
	format bool   // the format word is present: sum is the commit word
}

// OpenUndoLog attaches to the legacy undo log stored at [base, base+size)
// behind w. A zeroed header is the empty log. Open never writes the device.
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
		format: binary.LittleEndian.Uint64(hdr[undoFormatOff:]) == undoFormatSum,
	}
	if sum := binary.LittleEndian.Uint64(hdr[undoSumOff:]); count != 0 && l.format {
		// A zero sum is a truncated log; a mismatched one is a seal that
		// never reached its fence, so nothing was applied. Both are empty.
		buf := make([]byte, cursor&^7)
		if err := w.Read(base+undoHeaderSize, buf); err != nil {
			return nil, err
		}
		if sum == 0 || cursor%8 != 0 || sealSum(sumWords(sumSeed, buf), count, cursor) != sum {
			count = 0
		}
	}
	if count > cursor/(entryHeader+8) {
		return nil, fmt.Errorf("%w: %d entries cannot fit in %d bytes", errCorrupt, count, cursor)
	}
	if count == 0 {
		cursor = 0
	}
	l.count, l.cursor = count, cursor
	return l, nil
}

// Count returns the number of committed entries.
func (l *UndoLog) Count() uint64 { return l.count }

// truncate discards all entries by zeroing the commit word — sum, or count
// on a pre-checksum log — with one atomic persist.
func (l *UndoLog) truncate() error {
	commit := l.base + undoSumOff
	if !l.format {
		commit = l.base
	}
	if err := l.w.PersistU64(commit, 0); err != nil {
		return err
	}
	l.count, l.cursor = 0, 0
	return nil
}

// Replay restores every committed entry in reverse order, persists the
// restored bytes, then truncates the log. Replaying an empty log is a no-op.
// Replay is idempotent.
func (l *UndoLog) Replay() error {
	if l.count == 0 {
		return nil
	}
	buf := make([]byte, l.cursor)
	if err := l.w.Read(l.base+undoHeaderSize, buf); err != nil {
		return err
	}
	// Walk forward collecting the entries, then restore in reverse.
	entries := make([][]byte, 0, l.count)
	for pos, i := uint64(0), uint64(0); i < l.count; i++ {
		var length uint64
		if pos+entryHeader <= l.cursor {
			length = binary.LittleEndian.Uint64(buf[pos+8:])
		}
		padded := (length + 7) &^ 7
		if length == 0 || length > l.cursor || pos+entryHeader+padded > l.cursor {
			return fmt.Errorf("%w: entry %d overruns committed area", errCorrupt, i)
		}
		entries = append(entries, buf[pos:pos+entryHeader+length])
		pos += entryHeader + padded
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		target := binary.LittleEndian.Uint64(e)
		if err := l.w.Write(target, e[entryHeader:]); err != nil {
			return err
		}
		if err := l.w.Flush(target, uint64(len(e)-entryHeader)); err != nil {
			return err
		}
	}
	l.w.Fence()
	return l.truncate()
}
