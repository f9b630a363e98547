// Package plog implements Poseidon's persistent logs and records over an
// NVMM window: the commit-record log that makes every metadata mutation
// failure-atomic (RedoLog; paper §5.2 uses an undo log, see DESIGN.md's
// known deviations), the micro log that records the allocations of an open
// transactional allocation (paper §4.5, §5.3, §5.8), and the
// double-buffered record (Slots) that holds commit records, the
// superblock's geometry and root records, and best-effort state — the
// sub-heap metadata mirror, the profile site table, the black-box header.
//
// A commit-record log lives inside its sub-heap's MPK-protected metadata
// region and the micro logs inside the superblock's, so they are guarded by
// the same protection discipline as the metadata they protect.
package plog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
)

// Redo record log: every metadata commit of a sub-heap is one record — the
// new value of each word it changes, as runs of consecutive words
// [target u64][len u64][values] — written as the next generation of a
// two-slot record (Slots) splitting the log region.
//
// Commit stores the record, flushes its lines and fences once: the commit
// point. Apply then stores the words in place and flushes them without a
// fence; commit g+1's fence orders them, and only record g+2 overwrites
// record g's slot. Recovery replays the two newest valid records, the
// newer winning a shared word: eviction may carry record g+1 to the media
// before its fence while record g's applied lines are lost, and record g
// is still in its slot then. Replay is idempotent — the values are
// absolute — and at load writes only words that differ from the device; a
// commit failing in a running process is settled by rewriting every word
// (Replay). The generation counter lives in DRAM; Open seeds it. A slot
// without redoMagic holds no record, like a torn one. DESIGN.md,
// "Redo-record commit", has the full argument.
const redoMagic uint64 = 0x31304f4445525350 // "PSREDO01" little endian

// Common log errors.
var (
	ErrLogFull = errors.New("plog: log capacity exceeded")
	errCorrupt = errors.New("plog: corrupt log header")

	// ErrInDoubt marks a commit that failed after its record reached the
	// slot: the record may be durable and its words not in place until
	// replayed.
	ErrInDoubt = errors.New("plog: commit in doubt")
)

// Word is one staged metadata word: an 8-byte-aligned device offset and the
// value a commit gives it.
type Word struct{ Off, Val uint64 }

// RedoLog is the commit-record log in [base, base+size) behind w. It is
// not goroutine-safe: callers hold the lock of the metadata it covers.
type RedoLog struct {
	w     mpk.Window
	slots Slots

	gen   uint64 // newest generation on the device, 0 when none
	doubt bool   // a commit failed after its store and is not yet settled
	pay   []byte // the last committed payload, for Apply
	img   []byte // slot-image scratch

	commits, bytes atomic.Uint64
}

// NewRedoLog describes the log region [base, base+size); Open attaches it.
func NewRedoLog(w mpk.Window, base, size uint64) *RedoLog {
	return &RedoLog{w: w, slots: Slots{Base: base, Size: size / 2 &^ 7, Magic: redoMagic}}
}

// Open attaches to the device region and seeds the generation counter.
// With replay it also puts the two newest records' words in place; after
// a commit of this log failed unsettled, it settles it as Replay does.
// Without replay it writes nothing.
func (l *RedoLog) Open(replay bool) error {
	if replay {
		_, err := l.walk(true, l.doubt)
		return err
	}
	l.gen = 0
	for i := range 2 {
		g, _, _, err := l.slots.readSlot(l.w.Read, i)
		if err != nil {
			return err
		}
		l.gen = max(l.gen, g)
	}
	return nil
}

// Replay settles a commit that failed inside the running process: it
// persists the newest record, then rewrites and flushes every word of the
// two newest, even one whose cached value matches — its line may never
// have been flushed. The older record needs no flush: a sub-heap settles
// each commit before its next.
func (l *RedoLog) Replay() error {
	_, err := l.walk(true, true)
	return err
}

// Pending counts the words of the two newest records that differ from the
// device — 0 after any replay.
func (l *RedoLog) Pending() (uint64, error) { return l.walk(false, false) }

// walk reads the two newest records and counts the words whose device
// value differs from the value they give it. With fix it also seeds the
// generation counter and writes the differing words — every word, after
// persisting the newest record, with force — flushing them and fencing
// once if it wrote any.
func (l *RedoLog) walk(fix, force bool) (uint64, error) {
	var gens [2]uint64
	var pays [2][]byte
	for i := range 2 {
		var err error
		if gens[i], pays[i], _, err = l.slots.readSlot(l.w.Read, i); err != nil {
			return 0, err
		}
	}
	newer := 0
	if gens[1] > gens[0] {
		newer = 1
	}
	slots := []int{newer}
	if older := 1 - newer; gens[older] != 0 && gens[older]+1 == gens[newer] {
		slots = append(slots, older)
	}
	if fix {
		l.gen = gens[newer]
	}
	if force && gens[newer] != 0 {
		if err := l.w.Flush(l.slots.Off(newer), SlotHeader+uint64(len(pays[newer]))); err != nil {
			return 0, err
		}
		l.w.Fence()
	}
	set := map[uint64]bool{} // words a newer record gives
	var differ uint64
	var cur []byte
	for _, i := range slots {
		err := forEachRun(pays[i], func(target uint64, vals []byte) error {
			cur = slices.Grow(cur[:0], len(vals))[:len(vals)]
			if err := l.w.Read(target, cur); err != nil {
				return err
			}
			for k := 0; k < len(vals); k += 8 {
				off := target + uint64(k)
				if set[off] {
					continue
				}
				set[off] = true
				if !force && binary.LittleEndian.Uint64(cur[k:]) == binary.LittleEndian.Uint64(vals[k:]) {
					continue
				}
				differ++
				if !fix {
					continue
				}
				if err := l.w.Write(off, vals[k:k+8]); err != nil {
					return err
				}
				if err := l.w.Flush(off, 8); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	if fix && differ > 0 {
		l.w.Fence()
	}
	l.doubt = l.doubt && !force
	return differ, nil
}

// forEachRun calls fn for every run of a record payload, rejecting a
// payload whose runs do not tile it exactly with aligned, non-empty runs.
func forEachRun(pay []byte, fn func(target uint64, vals []byte) error) error {
	for len(pay) > 0 {
		if len(pay) < 16 {
			return fmt.Errorf("%w: record run header overruns payload", errCorrupt)
		}
		target, n := binary.LittleEndian.Uint64(pay), binary.LittleEndian.Uint64(pay[8:])
		pay = pay[16:]
		if target%8 != 0 || n == 0 || n%8 != 0 || n > uint64(len(pay)) {
			return fmt.Errorf("%w: record run of %d bytes at %#x", errCorrupt, n, target)
		}
		if err := fn(target, pay[:n]); err != nil {
			return err
		}
		pay = pay[n:]
	}
	return nil
}

// MaxWords returns how many staged words one record holds however they
// group into runs: the bound callers size multi-word batches by.
func (l *RedoLog) MaxWords() int { return l.slots.Cap() / 24 }

// Commit writes words — sorted by offset, without duplicates — as the next
// record generation: one store, a flush of its lines and one fence, the
// commit point. If before is non-nil it runs once the record is known to
// fit one slot, just before the store. A failure up to the store leaves
// the log as it was; one after it wraps ErrInDoubt, since a crash may keep
// the record.
func (l *RedoLog) Commit(words []Word, before func() error) error {
	p := l.pay[:0]
	for i := 0; i < len(words); {
		j := i + 1
		for j < len(words) && words[j].Off == words[j-1].Off+8 {
			j++
		}
		p = binary.LittleEndian.AppendUint64(p, words[i].Off)
		p = binary.LittleEndian.AppendUint64(p, uint64(j-i)*8)
		for _, w := range words[i:j] {
			p = binary.LittleEndian.AppendUint64(p, w.Val)
		}
		i = j
	}
	l.pay = p
	if len(p) > l.slots.Cap() {
		return fmt.Errorf("%w: record of %d words over %d bytes", ErrLogFull, len(words), l.slots.Cap())
	}
	if before != nil {
		if err := before(); err != nil {
			return err
		}
	}
	l.img = l.slots.encode(l.gen+1, p, l.img)
	off := l.slots.Off(int(l.gen+1) & 1)
	if err := l.w.Write(off, l.img); err != nil {
		return err
	}
	if err := l.w.Flush(off, uint64(len(l.img))); err != nil {
		l.doubt = true
		return fmt.Errorf("%w: %w", ErrInDoubt, err)
	}
	l.w.Fence()
	l.gen++
	l.commits.Add(1)
	l.bytes.Add(uint64(len(p)))
	return nil
}

// Apply stores the last committed record's words in place and flushes
// each of their lines once, without a fence. A failure leaves the commit
// to be settled by Replay.
//
// Runs ascend, so the runs sharing a line come in a row, and a line is
// flushed only once the runs have moved past it: a flush between two
// stores to one line would leave the second store unflushed, and once two
// newer records displace this one, Replay could no longer restore it.
func (l *RedoLog) Apply() error {
	const none = ^uint64(0)
	pending := none // the line stored last, not yet flushed
	flush := func() error {
		if pending == none {
			return nil
		}
		return l.w.Flush(pending, nvm.CachelineSize)
	}
	err := forEachRun(l.pay, func(target uint64, vals []byte) error {
		if err := l.w.Write(target, vals); err != nil {
			return err
		}
		for line := target &^ (nvm.CachelineSize - 1); line < target+uint64(len(vals)); line += nvm.CachelineSize {
			if line != pending {
				if err := flush(); err != nil {
					return err
				}
				pending = line
			}
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	l.doubt = l.doubt || err != nil
	return err
}

// Commits returns how many records this log has written since it was
// created, and their payload bytes.
func (l *RedoLog) Commits() (n, bytes uint64) { return l.commits.Load(), l.bytes.Load() }
