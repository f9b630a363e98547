// Package txn provides failure-atomic metadata mutation batches.
//
// A cacheline may be evicted (and thus persisted) at any moment after it is
// written, so no metadata word may change in place before the operation's
// commit point is durable. A Batch enforces that mechanically: the
// operation stages its writes in DRAM (read-your-writes); Commit writes
// their new values as one redo record (plog.RedoLog) with one fence, the
// single atomic commit point; only then are they applied in place, flushed
// without a fence — recovery replays the record until the next commit's
// fence has ordered them. Paper §5.2 undo-logs instead; DESIGN.md lists
// the deviation.
//
// Metadata in this codebase is mutated exclusively through aligned 8-byte
// words, which keeps staging exact and cheap: a batch is a slice of
// (offset, value) pairs. Single allocator operations touch a few dozen
// words, so lookups scan linearly; batches that outgrow that (magazine
// refill and flush-back, recovery rollback, repair's chunked commits)
// switch to a hash index.
package txn

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"poseidon/internal/mpk"
	"poseidon/internal/plog"
)

// Reader is the read surface shared by a raw window and an open batch.
// Code that only inspects metadata accepts a Reader so it can run either
// against the device directly or inside a transaction seeing staged state.
type Reader interface {
	ReadU64(off uint64) (uint64, error)
}

// Window satisfies Reader.
var _ Reader = mpk.Window{}

// Batch stages metadata word writes and commits them failure-atomically
// through a redo log. A Batch is single-goroutine (callers hold the
// sub-heap lock). The zero Batch is not usable; call NewBatch.
type Batch struct {
	w   mpk.Window
	log *plog.RedoLog

	words []plog.Word

	// idx is an open-addressed offset→words-index table, active only once
	// the batch outgrows findIndexMin words (magazine refills and repair
	// chunks stage hundreds of words; a linear find would make staging
	// quadratic). Empty = linear.
	idx []int32
}

// NewBatch creates a reusable batch bound to a window and its redo log.
func NewBatch(w mpk.Window, log *plog.RedoLog) *Batch {
	return &Batch{w: w, log: log, words: make([]plog.Word, 0, 64)}
}

// findIndexMin is the staged-word count past which find switches from a
// linear scan to the open-addressed index. Single allocator ops stage a few
// dozen words (the scan wins there); multi-block batches go far beyond.
const findIndexMin = 32

// find returns the staged index of off, or -1.
func (b *Batch) find(off uint64) int {
	if len(b.idx) > 0 {
		mask := uint64(len(b.idx) - 1)
		h := off * 0x9E3779B97F4A7C15
		for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask {
			j := b.idx[i]
			if j < 0 {
				return -1
			}
			if b.words[j].Off == off {
				return int(j)
			}
		}
	}
	for i := len(b.words) - 1; i >= 0; i-- {
		if b.words[i].Off == off {
			return i
		}
	}
	return -1
}

// idxPut inserts off→j into the active index (a slot must be free).
func (b *Batch) idxPut(off uint64, j int32) {
	mask := uint64(len(b.idx) - 1)
	h := off * 0x9E3779B97F4A7C15
	i := (h ^ h>>32) & mask
	for b.idx[i] >= 0 {
		i = (i + 1) & mask
	}
	b.idx[i] = j
}

// idxRebuild (re)builds the index at ≤25% load so probes stay short.
func (b *Batch) idxRebuild() {
	n := 1
	for n < 4*len(b.words) {
		n <<= 1
	}
	if cap(b.idx) >= n {
		b.idx = b.idx[:n]
	} else {
		b.idx = make([]int32, n)
	}
	for i := range b.idx {
		b.idx[i] = -1
	}
	for j, w := range b.words {
		b.idxPut(w.Off, int32(j))
	}
}

// ReadU64 returns the staged value of the word at off, or the device value
// (read-your-writes).
func (b *Batch) ReadU64(off uint64) (uint64, error) {
	if i := b.find(off); i >= 0 {
		return b.words[i].Val, nil
	}
	return b.w.ReadU64(off)
}

// WriteU64 stages an aligned 8-byte store. Nothing reaches the device until
// Commit.
func (b *Batch) WriteU64(off uint64, v uint64) error {
	if off%8 != 0 {
		return fmt.Errorf("txn: unaligned metadata word write at %#x", off)
	}
	if i := b.find(off); i >= 0 {
		b.words[i].Val = v
		return nil
	}
	b.words = append(b.words, plog.Word{Off: off, Val: v})
	if len(b.words) >= findIndexMin {
		if 2*len(b.words) > len(b.idx) {
			b.idxRebuild()
		} else {
			b.idxPut(off, int32(len(b.words)-1))
		}
	}
	return nil
}

// Len returns the number of staged words.
func (b *Batch) Len() int { return len(b.words) }

// Abort drops all staged writes.
func (b *Batch) Abort() {
	b.words = b.words[:0]
	b.idx = b.idx[:0]
}

// Commit applies the batch failure-atomically. See CommitWith.
func (b *Batch) Commit() error { return b.CommitWith(nil) }

// CommitWith applies the batch failure-atomically. A non-nil hook runs once
// the record is known to fit, before it is written: transactional
// allocation persists its micro-log entry there and a magazine refill its
// manifest entries (paper §5.3), each with its own fence, so a committed
// carve is always named durably. A failure after the record's store is
// settled by plog.RedoLog.Replay; if that fails too, the error wraps
// plog.ErrInDoubt. Any other error leaves the metadata untouched, and the
// caller must retract what the hook persisted before another commit can
// reuse its blocks.
func (b *Batch) CommitWith(hook func() error) error {
	if len(b.words) == 0 {
		if hook != nil {
			return hook()
		}
		return nil
	}
	// Sorting invalidates the staged-word index.
	b.idx = b.idx[:0]
	slices.SortFunc(b.words, func(x, y plog.Word) int { return cmp.Compare(x.Off, y.Off) })
	err := b.log.Commit(b.words, hook)
	if err != nil && !errors.Is(err, plog.ErrInDoubt) {
		return err
	}
	if err != nil || b.log.Apply() != nil {
		if err := b.log.Replay(); err != nil {
			return fmt.Errorf("txn: replay after a failed commit: %w: %w", plog.ErrInDoubt, err)
		}
	}
	b.Abort()
	return nil
}
