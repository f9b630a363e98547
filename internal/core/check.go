package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"poseidon/internal/memblock"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

// SubheapReport is the audit result of one sub-heap, the classification
// unit of the degrade-don't-die path: a sub-heap whose metadata fails audit
// is quarantined individually instead of condemning the whole heap.
type SubheapReport struct {
	ID        int
	Formatted bool
	// Quarantined marks a sub-heap taken out of service by recovery; its
	// Problems (if any) describe what the quarantining audit saw, and
	// QuarantineReason records why recovery benched it.
	Quarantined      bool
	QuarantineReason string `json:",omitempty"`
	AllocatedBlocks  uint64
	FreeBlocks       uint64
	PendingUndo      uint64
	Problems         []string `json:",omitempty"`
}

// CheckReport is the result of a full heap consistency audit.
type CheckReport struct {
	Subheaps         int
	Formatted        int
	Quarantined      int    // sub-heaps out of service
	QuarantinedBytes uint64 // user capacity lost to quarantine
	AllocatedBlocks  uint64 // allocated blocks no lane manifest names: the application's
	FreeBlocks       uint64
	PendingUndo      uint64 // newest commit-record words not yet in place
	PendingTx        uint64 // valid micro-log entries of open transactions: the blocks Load rolls back
	PendingCached    uint64 // blocks valid lane manifest words name, each once: the blocks Load returns
	Problems         []string
	SubheapReports   []SubheapReport
}

// OK reports whether the audit found no structural problems in any
// in-service sub-heap. Pending logs are not problems — they mean recovery
// has work to do, which Load performs. Quarantined sub-heaps are not
// counted here either: quarantine is the *handled* state of a problem, and
// is surfaced separately (Quarantined, QuarantinedBytes) so callers that
// require a fully healthy heap can check both.
func (r CheckReport) OK() bool { return len(r.Problems) == 0 }

// Healthy reports a clean audit AND no quarantined capacity.
func (r CheckReport) Healthy() bool { return r.OK() && r.Quarantined == 0 }

// Check audits the whole heap: every formatted sub-heap's blocks must tile
// its user region exactly (no gaps, no overlaps, power-of-two sizes,
// size-aligned offsets), free lists and the hash table must agree, log
// headers must be sane, and the root record must decode. It is the engine
// of cmd/poseidon-fsck and the invariant oracle of the crash-injection
// tests. Quarantined sub-heaps are reported but not audited — their
// metadata is already known bad.
// AllocatedBlocks leaves out the blocks the magazines cache: every pop and
// push persists its manifest word, so in a running process the census is
// exactly the blocks the application holds.
func (h *Heap) Check() (CheckReport, error) {
	report := CheckReport{Subheaps: len(h.subheaps)}
	cached, err := h.checkLanes(&report)
	if err != nil {
		return report, err
	}
	for _, s := range h.subheaps {
		if s.isQuarantined() {
			report.Quarantined++
			report.QuarantinedBytes += h.lay.userSize
			report.SubheapReports = append(report.SubheapReports, SubheapReport{
				ID:               s.id,
				Quarantined:      true,
				QuarantineReason: s.quarantineReason(),
			})
			continue
		}
		sub, err := s.check(cached, 0)
		if err != nil {
			return report, err
		}
		report.merge(sub)
	}
	switch _, err := h.Root(); {
	case err == nil:
	case quarantinable(err):
		report.Problems = append(report.Problems, fmt.Sprintf("superblock: %v", err))
	default:
		return report, err
	}
	return report, nil
}

// checkLanes audits every lane through the lane scan (scanLane): each
// invalid micro-log entry and manifest word is a problem, and no block may
// be cached twice across all lanes (two magazines claiming the same block
// would double-allocate it). Valid entries are counted, not flagged — they
// are the work Load performs — and the cached blocks are returned, keyed
// by device offset.
func (h *Heap) checkLanes(report *CheckReport) (map[uint64]string, error) {
	cached := map[uint64]string{}
	buf := make([]byte, 8*h.lay.magSlots)
	for i := range h.lay.laneCount {
		sc, err := h.scanLane(h.sbWin, i, buf)
		switch {
		case quarantinable(err):
			report.Problems = append(report.Problems, err.Error())
			continue
		case err != nil:
			return nil, err
		}
		report.Problems = append(report.Problems, slices.Concat(sc.badTx, sc.badMan)...)
		report.PendingTx += uint64(len(sc.tx))
		for _, it := range sc.man {
			at := fmt.Sprintf("lane %d slot %d", i, it.slot)
			if prev, dup := cached[it.dev]; dup {
				report.Problems = append(report.Problems, fmt.Sprintf("%s: block sub=%d off=%#x already cached at %s",
					at, it.sub, it.dev-h.lay.userBase(it.sub), prev))
				continue
			}
			cached[it.dev] = at
			report.PendingCached++
		}
	}
	return cached, nil
}

// merge folds one sub-heap's report into the heap-wide aggregate.
func (r *CheckReport) merge(sub SubheapReport) {
	r.SubheapReports = append(r.SubheapReports, sub)
	if sub.Formatted {
		r.Formatted++
	}
	r.AllocatedBlocks += sub.AllocatedBlocks
	r.FreeBlocks += sub.FreeBlocks
	r.PendingUndo += sub.PendingUndo
	for _, p := range sub.Problems {
		r.Problems = append(r.Problems, fmt.Sprintf("sub-heap %d: %s", sub.ID, p))
	}
}

// check audits one sub-heap and returns its classified report, leaving
// the allocated blocks cached names (checkLanes' device offsets) out of
// the census; take says what its envelope records (the online scrubber's
// audits take their latency). Errors are I/O-level failures (the audit
// could not run), not inconsistencies — those land in the report's
// Problems.
func (s *subheap) check(cached map[uint64]string, take samples) (SubheapReport, error) {
	s.lock(obs.OpScrub, nvm.ClassScrub, take)
	defer s.unlock(nil)
	return s.checkLocked(true, cached)
}

// checkLocked is the audit body; the caller holds s.mu and the metadata
// grant. full=false is the repair-internal mode: it skips the repair-marker
// check (the marker is legitimately set mid-repair).
func (s *subheap) checkLocked(full bool, cached map[uint64]string) (SubheapReport, error) {
	report := SubheapReport{ID: s.id}
	init, err := s.initializedFlag()
	if errors.Is(err, ErrCorruptHeap) {
		report.Formatted = true
		report.Problems = append(report.Problems, err.Error())
		return report, nil
	}
	if err != nil || !init {
		return report, err
	}
	report.Formatted = true
	if full {
		flag, err := s.win.ReadU64(s.base + shRepairingOff)
		if err != nil {
			return report, err
		}
		if flag != 0 {
			report.Problems = append(report.Problems,
				"repair in progress (interrupted repair)")
			return report, nil
		}
	}
	if err := s.ensureReady(); err != nil {
		return report, err
	}
	if report.PendingUndo, err = s.log.Pending(); err != nil {
		return report, err
	}
	g := s.mgr.Geometry()
	problem := func(format string, args ...any) {
		report.Problems = append(report.Problems, fmt.Sprintf(format, args...))
	}

	type blk struct{ off, size, status uint64 }
	var blocks []blk
	err = s.mgr.ForEachRecord(s.win, func(rec memblock.Record) error {
		blocks = append(blocks, blk{rec.BlockOff, rec.Size, rec.Status})
		if err := checkRecord(g, rec); err != nil {
			problem("%v", err)
		}
		switch rec.Status {
		case memblock.StatusAllocated:
			if _, ok := cached[rec.BlockOff]; !ok {
				report.AllocatedBlocks++
			}
		case memblock.StatusFree:
			report.FreeBlocks++
		}
		return nil
	})
	if err != nil {
		return report, err
	}

	// Exact tiling of the user region.
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].off < blocks[j].off })
	at := g.UserBase
	for _, b := range blocks {
		switch {
		case b.off > at:
			problem("gap [%#x,%#x) not covered by any block", at, b.off)
			at = b.off + b.size
		case b.off < at:
			problem("block %#x overlaps previous block ending at %#x", b.off, at)
			if b.off+b.size > at {
				at = b.off + b.size
			}
		default:
			at += b.size
		}
	}
	if at != g.UserBase+g.UserSize {
		problem("blocks cover up to %#x, region ends at %#x", at, g.UserBase+g.UserSize)
	}

	// Free lists ↔ records agreement.
	listed := map[uint64]int{}
	for c := 0; c < g.NumClasses; c++ {
		head, err := s.mgr.FreeHead(s.win, c)
		if err != nil {
			return report, err
		}
		steps := uint64(0)
		for slot := head; slot != 0; {
			rec, err := s.mgr.ReadRecord(s.win, slot)
			if err != nil {
				return report, err
			}
			if rec.Status != memblock.StatusFree {
				problem("class %d free list holds non-free block %#x", c, rec.BlockOff)
			}
			if rec.Size != g.ClassSize(c) {
				problem("class %d free list holds %d-byte block %#x", c, rec.Size, rec.BlockOff)
			}
			listed[rec.BlockOff]++
			slot = rec.NextFree
			if steps++; steps > g.TotalSlots() {
				problem("class %d free list is cyclic", c)
				break
			}
		}
	}
	for _, b := range blocks {
		if b.status == memblock.StatusFree && listed[b.off] != 1 {
			problem("free block %#x appears %d times on free lists", b.off, listed[b.off])
		}
	}
	return report, nil
}

// checkRecord is the one record validator of Check, Repair's rebuild and
// the free path: a block must lie in the user region, have a class size,
// be aligned to it and have a known status. It reads nothing.
func checkRecord(g memblock.Geometry, rec memblock.Record) error {
	end := g.UserBase + g.UserSize
	switch {
	case rec.BlockOff < g.UserBase || rec.BlockOff >= end || rec.Size > end-rec.BlockOff:
		return fmt.Errorf("block [%#x,%#x) outside user region", rec.BlockOff, rec.BlockOff+rec.Size)
	case rec.Size < g.ClassSize(0) || rec.Size&(rec.Size-1) != 0:
		return fmt.Errorf("block %#x has non-class size %d", rec.BlockOff, rec.Size)
	case (rec.BlockOff-g.UserBase)&(rec.Size-1) != 0:
		return fmt.Errorf("block %#x not aligned to its size %d", rec.BlockOff, rec.Size)
	case rec.Status != memblock.StatusFree && rec.Status != memblock.StatusAllocated:
		return fmt.Errorf("block %#x has status %d", rec.BlockOff, rec.Status)
	}
	return nil
}
