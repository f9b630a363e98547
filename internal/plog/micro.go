package plog

import (
	"encoding/binary"
	"fmt"

	"poseidon/internal/mpk"
)

// Micro log persistent layout (offsets relative to the log base):
//
//	+0   unused
//	+8   epoch word: the epoch, 48 bits, above its 16-bit check (epochWord)
//	+16  entry area: 16-byte entries, one per transactional allocation:
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
// as absent. Truncate commits by persisting the next epoch's word in one
// 8-byte store, the widest a crash keeps whole, so no older entry
// validates again. An epoch word that fails its check makes the log
// Damaged and empty, whatever its entries hold, so damage the check sees
// hides an open transaction, whose blocks then leak, and revives no
// committed one. The next Append or Truncate rewrites the lane empty.
const (
	microHeaderSize = 16
	microEntrySize  = 16
	microEpochOff   = 8
	maxMicroEpoch   = 1<<48 - 1
	// damagedEpoch is a Damaged log's epoch: past every epoch a word
	// holds, so Truncate rewrites the lane as it does at maxMicroEpoch.
	damagedEpoch = maxMicroEpoch + 1
)

// epochWord returns epoch's word: the epoch above the CRC-16 (generator
// 0x1021, initial value 0, unreflected) of its six bytes, most significant
// first. The words form a code of Hamming distance 4 that detects every
// burst of up to 16 bits, so no flip of up to three bits, nor any damage
// within two adjacent bytes, turns one word into another. Epoch 0's word
// is 0: a zeroed lane is the empty log.
func epochWord(epoch uint64) uint64 {
	var c uint16
	for s := 40; s >= 0; s -= 8 {
		c = c<<8 ^ crc16Table[byte(c>>8)^byte(epoch>>s)]
	}
	return epoch<<16 | uint64(c)
}

// crc16Table holds the CRC-16 of each byte value.
var crc16Table = func() (t [256]uint16) {
	for i := range t {
		c := uint16(i) << 8
		for range 8 {
			c = c<<1 ^ -(c>>15)&0x1021
		}
		t[i] = c
	}
	return t
}()

// MicroLog is the per-thread transactional-allocation log.
type MicroLog struct {
	w    mpk.Window
	base uint64
	size uint64

	epoch uint64
	locs  []uint64 // the valid entries' locations, oldest first
}

// OpenMicroLog attaches to the micro log stored at [base, base+size)
// behind w and reads its entries. A zeroed region is the empty log.
func OpenMicroLog(w mpk.Window, base, size uint64) (*MicroLog, error) {
	if size < microHeaderSize+microEntrySize {
		return nil, fmt.Errorf("plog: micro log region too small (%d bytes)", size)
	}
	word, err := w.ReadU64(base + microEpochOff)
	if err != nil {
		return nil, err
	}
	l := &MicroLog{w: w, base: base, size: size, epoch: word >> 16}
	if epochWord(l.epoch) != word {
		l.epoch = damagedEpoch
		return l, nil
	}
	var e [microEntrySize]byte
	for i := uint64(0); i < l.Capacity(); i++ {
		if err := w.Read(l.entryOff(i), e[:]); err != nil {
			return nil, err
		}
		loc := binary.LittleEndian.Uint64(e[:])
		if binary.LittleEndian.Uint64(e[8:]) != microSum(l.epoch, i, loc) {
			break
		}
		l.locs = append(l.locs, loc)
	}
	return l, nil
}

// microSum is an entry's checksum: never zero, so a zeroed entry is absent.
func microSum(epoch, index, loc uint64) uint64 {
	return sealSum(sumRound(sumRound(sumSeed, epoch), index), loc, microEntrySize)
}

func (l *MicroLog) entryOff(i uint64) uint64 { return l.base + microHeaderSize + i*microEntrySize }

// Count returns the number of logged allocations.
func (l *MicroLog) Count() uint64 { return uint64(len(l.locs)) }

// Capacity returns how many allocations one transaction can log.
func (l *MicroLog) Capacity() uint64 { return (l.size - microHeaderSize) / microEntrySize }

// Damaged reports that the epoch word failed its check at open and no
// Append or Truncate has rewritten the lane since: the log reads empty.
func (l *MicroLog) Damaged() bool { return l.epoch == damagedEpoch }

// Append durably logs one allocation with one store, one flush and one
// fence. After Append returns, a crash rolls the allocation back.
func (l *MicroLog) Append(loc uint64) error {
	if l.Damaged() {
		if err := l.reset(); err != nil {
			return err
		}
	}
	n := l.Count()
	if n >= l.Capacity() {
		return fmt.Errorf("%w: micro log (%d entries)", ErrLogFull, n)
	}
	var e [microEntrySize]byte
	binary.LittleEndian.PutUint64(e[0:], loc)
	binary.LittleEndian.PutUint64(e[8:], microSum(l.epoch, n, loc))
	if err := l.w.Persist(l.entryOff(n), e[:]); err != nil {
		return err
	}
	l.locs = append(l.locs, loc)
	return nil
}

// Cut retracts every entry from index n on — the entry a failed commit's
// hook appended, durable or not — by persisting zeroed entries over them.
func (l *MicroLog) Cut(n uint64) error {
	if n >= l.Capacity() {
		return nil
	}
	end := min(max(l.Count(), n+1), l.Capacity())
	if err := l.w.Persist(l.entryOff(n), make([]byte, (end-n)*microEntrySize)); err != nil {
		return err
	}
	l.locs = l.locs[:min(l.Count(), n)]
	return nil
}

// Entries returns the logged allocations' locations, oldest first, with no
// device read. The slice is the log's own; the next Append, Cut or
// Truncate may change it.
func (l *MicroLog) Entries() []uint64 { return l.locs }

// On returns the log writing through w, for a caller that read it through
// another protection thread's window. The two share their entries, so use
// only one of them after.
func (l *MicroLog) On(w mpk.Window) *MicroLog {
	c := *l
	c.w = w
	return &c
}

// Truncate commits the transaction: it persists the next epoch's word in
// one store, one flush and one fence. An empty log has nothing to commit,
// and Truncate writes nothing to it unless it is damaged.
func (l *MicroLog) Truncate() error {
	switch {
	case l.epoch >= maxMicroEpoch:
		return l.reset()
	case l.Count() == 0:
		return nil
	}
	if err := l.w.PersistU64(l.base+microEpochOff, epochWord(l.epoch+1)); err != nil {
		return err
	}
	l.epoch++
	l.locs = l.locs[:0]
	return nil
}

// reset rewrites the lane as the empty log at epoch 0, each step its own
// store, flush and fence: entry 0 zeroed, which alone empties a log whose
// epoch word checks, then every entry, then the epoch word. Once entry 0
// is zero, a crash leaves the log empty or damaged, and after the last
// step no entry of any earlier epoch remains to validate again.
func (l *MicroLog) reset() error {
	for _, n := range []uint64{1, l.Capacity()} {
		if err := l.w.Persist(l.entryOff(0), make([]byte, n*microEntrySize)); err != nil {
			return err
		}
	}
	if err := l.w.PersistU64(l.base+microEpochOff, epochWord(0)); err != nil {
		return err
	}
	l.epoch, l.locs = 0, l.locs[:0]
	return nil
}
