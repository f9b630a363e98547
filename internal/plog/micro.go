package plog

import (
	"encoding/binary"
	"fmt"

	"poseidon/internal/mpk"
)

// Micro log persistent layout (offsets relative to the log base):
//
//	+0   unused
//	+8   epoch u64 — bumped by every Truncate
//	+64  entry area: 16-byte entries, one per transactional allocation:
//	     [loc u64][sum u64], loc the block's sub-heap-qualified offset and
//	     sum a checksum of (epoch, index, loc)
//
// The micro log is the history of memory allocations inside an open
// transactional allocation (poseidon_tx_alloc). It is truncated when the
// transaction commits (is_end == true); a non-empty micro log at restart
// means the transaction never committed, so recovery frees every logged
// address to prevent a persistent memory leak (paper §4.5, §5.3).
//
// Entries validate themselves, so the log is the valid prefix of the entry
// area, an append is one store, flush and fence, and a torn append reads
// as absent. Truncate persists a bumped epoch, so no older entry validates
// again.
const (
	microHeaderSize = 64
	microEntrySize  = 16
	microEpochOff   = 8
)

// MicroLog is the per-thread transactional-allocation log.
type MicroLog struct {
	w    mpk.Window
	base uint64
	size uint64

	epoch uint64
	count uint64 // valid entries
}

// OpenMicroLog attaches to the micro log stored at [base, base+size)
// behind w and finds its entries. A zeroed region is the empty log.
func OpenMicroLog(w mpk.Window, base, size uint64) (*MicroLog, error) {
	if size < microHeaderSize+microEntrySize {
		return nil, fmt.Errorf("plog: micro log region too small (%d bytes)", size)
	}
	epoch, err := w.ReadU64(base + microEpochOff)
	if err != nil {
		return nil, err
	}
	l := &MicroLog{w: w, base: base, size: size, epoch: epoch}
	var e [microEntrySize]byte
	for ; l.count < l.Capacity(); l.count++ {
		if err := w.Read(l.entryOff(l.count), e[:]); err != nil {
			return nil, err
		}
		loc := binary.LittleEndian.Uint64(e[:])
		if binary.LittleEndian.Uint64(e[8:]) != microSum(l.epoch, l.count, loc) {
			break
		}
	}
	return l, nil
}

// microSum is an entry's checksum: never zero, so a zeroed entry is absent.
func microSum(epoch, index, loc uint64) uint64 {
	return sealSum(sumRound(sumRound(sumSeed, epoch), index), loc, microEntrySize)
}

func (l *MicroLog) entryOff(i uint64) uint64 { return l.base + microHeaderSize + i*microEntrySize }

// Count returns the number of logged allocations.
func (l *MicroLog) Count() uint64 { return l.count }

// Capacity returns how many allocations one transaction can log.
func (l *MicroLog) Capacity() uint64 { return (l.size - microHeaderSize) / microEntrySize }

// Append durably logs one allocation with one store, one flush and one
// fence. After Append returns, a crash rolls the allocation back.
func (l *MicroLog) Append(loc uint64) error {
	if l.count >= l.Capacity() {
		return fmt.Errorf("%w: micro log (%d entries)", ErrLogFull, l.count)
	}
	var e [microEntrySize]byte
	binary.LittleEndian.PutUint64(e[0:], loc)
	binary.LittleEndian.PutUint64(e[8:], microSum(l.epoch, l.count, loc))
	if err := l.w.Persist(l.entryOff(l.count), e[:]); err != nil {
		return err
	}
	l.count++
	return nil
}

// Cut retracts every entry from index n on — the entry a failed commit's
// hook appended, durable or not — by persisting zeroed entries over them.
func (l *MicroLog) Cut(n uint64) error {
	if n >= l.Capacity() {
		return nil
	}
	end := min(max(l.count, n+1), l.Capacity())
	if err := l.w.Persist(l.entryOff(n), make([]byte, (end-n)*microEntrySize)); err != nil {
		return err
	}
	l.count = min(l.count, n)
	return nil
}

// Entries returns the logged allocations' locations, oldest first.
func (l *MicroLog) Entries() ([]uint64, error) {
	out := make([]uint64, 0, l.count)
	for i := uint64(0); i < l.count; i++ {
		loc, err := l.w.ReadU64(l.entryOff(i))
		if err != nil {
			return nil, err
		}
		out = append(out, loc)
	}
	return out, nil
}

// Truncate commits the transaction: it persists the next epoch in one
// store. A nonempty lane's entry 0 validates under this epoch, so under
// no other; an empty lane's entry 0 holds bytes no append of this epoch
// wrote, so Truncate reads it first and skips an epoch it validates under.
func (l *MicroLog) Truncate() error {
	next := l.epoch + 1
	if l.count == 0 {
		var e [microEntrySize]byte
		if err := l.w.Read(l.entryOff(0), e[:]); err != nil {
			return err
		}
		for binary.LittleEndian.Uint64(e[8:]) == microSum(next, 0, binary.LittleEndian.Uint64(e[:])) {
			next++
		}
	}
	if err := l.w.PersistU64(l.base+microEpochOff, next); err != nil {
		return err
	}
	l.epoch, l.count = next, 0
	return nil
}
