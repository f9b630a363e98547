package core

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"poseidon/internal/memblock"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

// Repair rebuilds the metadata of a quarantined sub-heap and returns it to
// service — the second half of degrade-don't-die. Two strategies, tried in
// order:
//
//  1. Mirror restore: if a checksummed metadata mirror (mirror.go) survives,
//     its level count and free-list anchors are written back over the
//     primary header and the result is audited. This is the cheap path for
//     corruption confined to the header page.
//  2. Rebuild by walk: every hash-table record is validated against the
//     tiling invariants; invalid records are dropped, survivors are kept,
//     and gaps left by dropped records are covered with conservatively
//     ALLOCATED blocks (never handed out — a leak, not data loss). Free
//     lists are then rebuilt from the surviving free records.
//
// Either way the repaired state must pass the fsck audit before the
// sub-heap is unquarantined; a failed repair leaves it benched with its
// original reason. Repair is crash-consistent: a persistent repair marker
// is set before the first mutation and cleared only after the rebuilt state
// is durable, so a crash mid-repair re-quarantines the sub-heap at the next
// load instead of serving half-rebuilt metadata. User data in allocated
// blocks is never touched.
func (h *Heap) Repair(subheap int) error {
	if h.closed.Load() {
		return ErrClosed
	}
	if subheap < 0 || subheap >= len(h.subheaps) {
		return fmt.Errorf("%w: sub-heap %d out of range", ErrBadPointer, subheap)
	}
	s := h.subheaps[subheap]
	if !s.isQuarantined() {
		return fmt.Errorf("%w: sub-heap %d", ErrNotQuarantined, subheap)
	}
	var start time.Time
	if h.tel != nil {
		start = time.Now()
	}
	s.mu.Lock()
	h.grant(s.thread)
	s.setClass(nvm.ClassRecovery)
	// Repairs always record a span when tracing is on — they are rare and
	// their flush/fence cost is exactly what an operator wants to see.
	tdone := h.traceForced(obs.OpRepair, subheap)
	mirrored, err := s.repairLocked()
	if tdone != nil {
		tdone(err)
	}
	h.revoke(s.thread)
	s.mu.Unlock()
	if h.tel != nil {
		h.tel.RecordOn(subheap, obs.OpRepair, time.Since(start))
	}
	if err != nil {
		h.tel.Emit(obs.EventRepair, subheap, fmt.Sprintf("repair failed: %v", err))
		return fmt.Errorf("poseidon: repair sub-heap %d: %w", subheap, err)
	}
	how := "rebuilt by table walk"
	if mirrored {
		h.mirrorRestores.Add(1)
		how = "restored from mirror"
	}
	s.unquarantine()
	h.repairedSubheaps.Add(1)
	h.repairedBytes.Add(h.lay.userSize)
	h.tel.Emit(obs.EventRepair, subheap, "repaired: "+how)
	return nil
}

// RepairAll repairs every quarantined sub-heap, continuing past individual
// failures. Returns how many were returned to service and the first (by
// sub-heap index) error. Each repair is self-contained under its sub-heap's
// lock, so the repairs run on the recovery worker pool, runtime.GOMAXPROCS(0)
// wide like Load's.
func (h *Heap) RepairAll() (int, error) {
	if h.closed.Load() {
		return 0, ErrClosed
	}
	var repaired atomic.Int64
	errs := make([]error, len(h.subheaps))
	_ = h.forEachRecovery(len(h.subheaps), runtime.GOMAXPROCS(0), func(_, i int) error {
		s := h.subheaps[i]
		if !s.isQuarantined() {
			return nil
		}
		if err := h.Repair(s.id); err != nil {
			errs[i] = err
			return nil
		}
		repaired.Add(1)
		return nil
	})
	var first error
	for _, err := range errs {
		if err != nil {
			first = err
			break
		}
	}
	return int(repaired.Load()), first
}

// repairLocked is the repair body; the caller holds s.mu with the metadata
// window granted. Reports whether the mirror restore succeeded (vs a full
// rebuild). On success the sub-heap's DRAM state (logs, batch, free mask,
// gauges, mirror) is fully re-seeded and its metadata has passed the audit.
func (s *subheap) repairLocked() (mirrored bool, err error) {
	init, err := s.initializedFlag()
	corrupt := errors.Is(err, ErrCorruptHeap)
	if err != nil && !corrupt {
		return false, err
	}
	if !init && !corrupt {
		// Never formatted (or a format crashed before its commit point):
		// there is nothing to rebuild. Clear any stale repair marker and let
		// ensureReady format lazily on first use.
		s.ready = false
		return false, s.win.PersistU64(s.base+shRepairingOff, 0)
	}

	// Persistent repair marker FIRST: from here until the final clear, a
	// crash leaves the marker set and recoverLogs re-quarantines.
	if err := s.win.PersistU64(s.base+shRepairingOff, 1); err != nil {
		return false, err
	}
	// A damaged initialized word is rewritten, never read as "unformatted":
	// the rebuild below treats the sub-heap as formatted, and if it fails
	// the marker keeps the sub-heap quarantined.
	if corrupt {
		if err := s.win.PersistU64(s.base+shInitializedOff, shFormatted); err != nil {
			return false, err
		}
	}

	// The commit log itself may be the corrupt structure. Try a normal
	// replay; if the log is unreadable, zero the whole region — a zeroed
	// region is a valid empty log, and whatever commit it held is exactly
	// what the rebuild below reconstructs around.
	if uerr := s.open(true); uerr != nil {
		base, size := s.h.lay.undoBase(s.id), s.h.lay.undoSize
		if err := s.win.Zero(base, size); err != nil {
			return false, err
		}
		if err := s.win.Flush(base, size); err != nil {
			return false, err
		}
		s.win.Fence()
		if err := s.open(false); err != nil {
			return false, err
		}
	}

	// Strategy 1: mirror restore, audited before it counts.
	if _, img := s.loadMirrorLocked(); img != nil {
		if rerr := s.restoreMirrorLocked(img); rerr == nil {
			if rep, cerr := s.checkLocked(false, nil); cerr == nil && len(rep.Problems) == 0 {
				mirrored = true
			}
		}
	}

	// Strategy 2: full rebuild by walking the hash table.
	if !mirrored {
		if err := s.rebuildLocked(); err != nil {
			return false, err
		}
		rep, cerr := s.checkLocked(false, nil)
		if cerr != nil {
			return false, cerr
		}
		if len(rep.Problems) > 0 {
			return false, fmt.Errorf("%w: rebuild left %d problems, first: %s",
				ErrCorruptHeap, len(rep.Problems), rep.Problems[0])
		}
	}

	if err := s.reseedFreeMask(); err != nil {
		return mirrored, err
	}
	if err := s.pruneMarks(); err != nil {
		return mirrored, err
	}
	s.seedGauges()
	s.seedMirrorSeq()
	_ = s.updateMirrorLocked()

	// Everything above is durable (batch commits flush+fence); only now may
	// the marker clear — the repair's commit point.
	return mirrored, s.win.PersistU64(s.base+shRepairingOff, 0)
}

// pruneMarks clears the magazine marks of blocks the repair left without
// an allocated record, so a repaired sub-heap keeps no stale marks. Caller
// holds mu with the metadata window granted.
func (s *subheap) pruneMarks() error {
	marks := s.marks.Load()
	if marks == nil {
		return nil
	}
	base := s.h.lay.userBase(s.id)
	for i := range marks.words {
		for j := uint64(0); j < 16 && marks.words[i].Load() != 0; j++ {
			rel := (uint64(i)*16 + j) << memblock.MinClassLog
			if marks.get(rel) == markNone {
				continue
			}
			slot, err := s.mgr.Lookup(s.win, base+rel)
			var rec memblock.Record
			if err == nil {
				rec, err = s.mgr.ReadRecord(s.win, slot)
			}
			if err != nil && !errors.Is(err, memblock.ErrNotFound) {
				return err
			}
			if err != nil || rec.Status != memblock.StatusAllocated {
				marks.set(rel, markNone)
			}
		}
	}
	return nil
}

// repairCand is one surviving hash-table record during a rebuild.
type repairCand struct {
	slot, off, size, status uint64
}

// repairChunkWords bounds how many staged words a rebuild accumulates
// before committing, so chunked commits bound how much work a crash
// mid-repair throws away. A small log bounds a chunk to half what one
// commit record holds, leaving room for the free-list reset's run.
const repairChunkWords = 256

// rebuildLocked reconstructs the hash table and free lists from the
// surviving records. Idempotent and convergent: every pass stages bounded
// chunks and commits them, so a crash at any point leaves a prefix of
// valid work that the re-run (after re-quarantine) redoes harmlessly.
func (s *subheap) rebuildLocked() error {
	g := s.mgr.Geometry()
	b := s.batch
	b.Abort() // start from a clean batch whatever state repair found
	chunk := min(repairChunkWords, s.log.MaxWords()/2)

	commitChunk := func() error {
		if b.Len() == 0 {
			return nil
		}
		return s.commit(nil)
	}
	maybeCommit := func() error {
		if b.Len() >= chunk {
			return commitChunk()
		}
		return nil
	}

	// Pass 1: validate every record; drop the invalid, keep the plausible.
	end := g.UserBase + g.UserSize
	var cands []repairCand
	maxLevel := 1
	err := s.mgr.ForEachSlot(s.win, func(level int, slot, key uint64) error {
		if memblock.IsTombstone(key) {
			return nil
		}
		rec, err := s.mgr.ReadRecord(s.win, slot)
		if err != nil {
			return err
		}
		if checkRecord(g, rec) != nil {
			if err := s.mgr.Delete(b, slot); err != nil {
				return err
			}
			return maybeCommit()
		}
		if level+1 > maxLevel {
			maxLevel = level + 1
		}
		cands = append(cands, repairCand{slot: slot, off: rec.BlockOff,
			size: rec.Size, status: rec.Status})
		return nil
	})
	if err != nil {
		return err
	}

	// Pass 2: resolve overlaps by offset order. Allocated records win ties
	// (they may hold live user data); losers are dropped.
	sort.Slice(cands, func(i, j int) bool {
		a, c := cands[i], cands[j]
		if a.off != c.off {
			return a.off < c.off
		}
		if a.status != c.status {
			return a.status == memblock.StatusAllocated
		}
		return a.slot < c.slot
	})
	kept := cands[:0]
	at := g.UserBase
	for _, c := range cands {
		if c.off < at {
			if err := s.mgr.Delete(b, c.slot); err != nil {
				return err
			}
			if err := maybeCommit(); err != nil {
				return err
			}
			continue
		}
		kept = append(kept, c)
		at = c.off + c.size
	}

	// Pass 3: the active level count must cover every surviving slot; keep
	// a larger (valid) count if the header already has one.
	if cur, lerr := s.mgr.ActiveLevels(s.win); lerr != nil || cur < maxLevel {
		if err := s.mgr.SetActiveLevels(b, maxLevel); err != nil {
			return err
		}
	}

	// Pass 4: cover the gaps left by dropped records with buddy-aligned
	// blocks, inserted ALLOCATED — a dropped record may have described live
	// user data, and handing that space out again would be data loss. The
	// cost is a leak the size of the corruption, reported by occupancy
	// gauges and reclaimable by a future explicit Free.
	insertBlock := func(off, size uint64) error {
		for {
			_, ierr := s.mgr.Insert(b, off, size, memblock.StatusAllocated)
			if errors.Is(ierr, memblock.ErrNoSlot) {
				if xerr := s.mgr.ExtendLevel(b); xerr != nil {
					return fmt.Errorf("%w: repair cannot place block [%#x,%#x): %v",
						ErrCorruptHeap, off, off+size, xerr)
				}
				continue
			}
			if ierr != nil {
				return ierr
			}
			return maybeCommit()
		}
	}
	coverGap := func(at, gapEnd uint64) error {
		for at < gapEnd {
			// Largest power of two that fits the remaining gap...
			size := uint64(1) << (bits.Len64(gapEnd-at) - 1)
			// ...clamped to the buddy alignment of the current offset...
			if rel := at - g.UserBase; rel != 0 {
				if align := rel & (-rel); align < size {
					size = align
				}
			} else if size > g.UserSize {
				size = g.UserSize
			}
			if err := insertBlock(at, size); err != nil {
				return err
			}
			at += size
		}
		return nil
	}
	at = g.UserBase
	for _, c := range kept {
		if c.off > at {
			if err := coverGap(at, c.off); err != nil {
				return err
			}
		}
		at = c.off + c.size
	}
	if at < end {
		if err := coverGap(at, end); err != nil {
			return err
		}
	}

	// Pass 5: rebuild the free lists from scratch out of the surviving free
	// records, in offset order (deterministic, and tail-pushes keep the
	// delayed-reuse property for what it's worth post-repair).
	if err := s.mgr.ResetFreeLists(b); err != nil {
		return err
	}
	for _, c := range kept {
		if c.status != memblock.StatusFree {
			continue
		}
		class, cerr := g.ClassOf(c.size)
		if cerr != nil {
			return fmt.Errorf("%w: free record size %d", ErrCorruptHeap, c.size)
		}
		if err := s.mgr.PushFreeTail(b, class, c.slot); err != nil {
			return err
		}
		if err := maybeCommit(); err != nil {
			return err
		}
	}
	return commitChunk()
}
