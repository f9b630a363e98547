// Package txn provides failure-atomic metadata mutation batches.
//
// The undo-logging discipline on NVMM requires strict write-ahead ordering:
// a cacheline may be evicted (and thus persisted) at any moment after it is
// written, so the original bytes must be durable in the undo log before the
// first mutating store is issued. A Batch enforces that mechanically:
//
//  1. The operation stages all its writes in DRAM (read-your-writes).
//  2. Commit snapshots every to-be-mutated range into the undo log and
//     seals it (log durable).
//  3. Only then are the staged stores applied to NVMM, flushed, and the
//     log truncated — the operation's single atomic commit point.
//
// A crash anywhere before truncation replays the undo log and restores the
// pre-operation metadata (paper §5.2).
//
// Metadata in this codebase is mutated exclusively through aligned 8-byte
// words, which keeps staging exact and cheap: a batch is a slice of
// (offset, value) pairs. Single allocator operations touch a few dozen
// words, so lookups scan linearly; batches that outgrow that (magazine
// refill and flush-back, repair's chunked commits) switch to a hash index.
package txn

import (
	"fmt"

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

type stagedWord struct {
	off uint64
	val uint64
}

// Batch stages metadata word writes and commits them failure-atomically
// under an undo log. A Batch is single-goroutine (callers hold the sub-heap
// lock). The zero Batch is not usable; call NewBatch.
type Batch struct {
	w   mpk.Window
	log *plog.UndoLog

	words []stagedWord

	// idx is an open-addressed offset→words-index table, active only once
	// the batch outgrows findIndexMin words (magazine refills and repair
	// chunks stage hundreds of words; a linear find would make staging
	// quadratic). Empty = linear.
	idx []int32

	// Reused commit scratch.
	spans []span
}

type span struct{ start, end uint64 }

// NewBatch creates a reusable batch bound to a window and its undo log.
func NewBatch(w mpk.Window, log *plog.UndoLog) *Batch {
	return &Batch{
		w:     w,
		log:   log,
		words: make([]stagedWord, 0, 64),
		spans: make([]span, 0, 16),
	}
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
			if b.words[j].off == off {
				return int(j)
			}
		}
	}
	for i := len(b.words) - 1; i >= 0; i-- {
		if b.words[i].off == off {
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
		b.idxPut(w.off, int32(j))
	}
}

// ReadU64 returns the staged value of the word at off, or the device value
// (read-your-writes).
func (b *Batch) ReadU64(off uint64) (uint64, error) {
	if i := b.find(off); i >= 0 {
		return b.words[i].val, nil
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
		b.words[i].val = v
		return nil
	}
	b.words = append(b.words, stagedWord{off: off, val: v})
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

// CommitWith applies the batch failure-atomically. If preTruncate is
// non-nil it runs after the staged stores are durable but before the undo
// log truncates — the hook transactional allocation uses to persist its
// micro-log entry so that either both the allocation and its log record
// survive, or neither does (paper §5.3).
func (b *Batch) CommitWith(preTruncate func() error) error {
	if len(b.words) == 0 {
		if preTruncate != nil {
			return preTruncate()
		}
		return nil
	}
	// Insertion sort: batches are small and staged nearly in order. Sorting
	// invalidates the staged-word index.
	b.idx = b.idx[:0]
	for i := 1; i < len(b.words); i++ {
		w := b.words[i]
		j := i - 1
		for j >= 0 && b.words[j].off > w.off {
			b.words[j+1] = b.words[j]
			j--
		}
		b.words[j+1] = w
	}

	// Coalesce into spans so the log holds few, larger entries. Words
	// within one cacheline-ish gap share an entry.
	b.spans = b.spans[:0]
	cur := span{start: b.words[0].off, end: b.words[0].off + 8}
	for _, w := range b.words[1:] {
		if w.off <= cur.end+56 { // bridge gaps inside the same cacheline region
			cur.end = w.off + 8
		} else {
			b.spans = append(b.spans, cur)
			cur = span{start: w.off, end: w.off + 8}
		}
	}
	b.spans = append(b.spans, cur)

	// 1. WAL: snapshot the original bytes of every span, then seal.
	for _, s := range b.spans {
		if err := b.log.Snapshot(s.start, s.end-s.start); err != nil {
			return fmt.Errorf("txn: snapshot: %w", err)
		}
	}
	if err := b.log.Seal(); err != nil {
		return fmt.Errorf("txn: seal: %w", err)
	}

	// 2. Apply the staged stores and flush them.
	for _, sw := range b.words {
		if err := b.w.WriteU64(sw.off, sw.val); err != nil {
			return fmt.Errorf("txn: apply: %w", err)
		}
	}
	for _, s := range b.spans {
		if err := b.w.Flush(s.start, s.end-s.start); err != nil {
			return fmt.Errorf("txn: flush: %w", err)
		}
	}
	b.w.Fence()

	// 3. Optional hook (micro-log append), then the atomic commit point.
	if preTruncate != nil {
		if err := preTruncate(); err != nil {
			// The staged stores are already durable; the undo log is still
			// sealed, so the caller's recovery path will revert them.
			return err
		}
	}
	if err := b.log.Truncate(); err != nil {
		return fmt.Errorf("txn: truncate: %w", err)
	}
	b.Abort()
	return nil
}
