package core

import (
	"poseidon/internal/memblock"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

// Defragment runs a full coalescing pass over every in-service sub-heap:
// free buddy pairs merge upward until no merge is possible. The allocator
// already defragments on demand (§5.4); this explicit pass is for
// maintenance windows — run it before TrimMetadata to maximise the
// punchable space. A read-only heap refuses it with ErrReadOnly. Returns
// the number of merges performed.
func (h *Heap) Defragment() (uint64, error) {
	if err := h.writable(); err != nil {
		return 0, err
	}
	var merges uint64
	for _, s := range h.subheaps {
		if s.isQuarantined() {
			continue
		}
		n, err := s.defragment()
		if err != nil {
			return merges, err
		}
		merges += n
	}
	return merges, nil
}

// defragment is one sub-heap's full pass: defragFreeLists with a target no
// block reaches.
func (s *subheap) defragment() (uint64, error) {
	s.lock(obs.OpDefrag, nvm.ClassDefrag, 0)
	defer s.unlock(nil)
	init, err := s.initializedFlag()
	if err != nil || !init {
		return 0, err
	}
	if err := s.ensureReady(); err != nil {
		return 0, err
	}
	before := s.stats.defragMerges.Load()
	if _, err := s.defragFreeLists(s.mgr.Geometry().NumClasses); err != nil {
		return 0, err
	}
	return s.stats.defragMerges.Load() - before, nil
}

// TrimMetadata implements the paper's metadata space management (§5.6):
// unused metadata pages are hole-punched back to the underlying
// "filesystem" (the sparse device). Two things happen per sub-heap:
//
//  1. Shrink: while the topmost active hash-table level holds no live
//     records, it is deactivated (a committed header update) — the
//     inverse of ExtendLevel.
//  2. Punch: the regions of all inactive levels are hole-punched, so their
//     backing memory is released; they read as zero (= empty slots) and
//     re-materialise transparently if the table grows again.
//
// Quarantined sub-heaps are skipped: their level count is not to be
// trusted, and Repair needs the levels it may restore. A read-only heap
// refuses the trim with ErrReadOnly. Returns the number of bytes punched.
func (h *Heap) TrimMetadata() (uint64, error) {
	if err := h.writable(); err != nil {
		return 0, err
	}
	var punched uint64
	for _, s := range h.subheaps {
		if s.isQuarantined() {
			continue
		}
		n, err := s.trimMetadata()
		if err != nil {
			return punched, err
		}
		punched += n
	}
	return punched, nil
}

func (s *subheap) trimMetadata() (uint64, error) {
	s.lock(obs.OpDefrag, nvm.ClassDefrag, 0)
	defer s.unlock(nil)
	init, err := s.initializedFlag()
	if err != nil || !init {
		return 0, err
	}
	if err := s.ensureReady(); err != nil {
		return 0, err
	}
	g := s.mgr.Geometry()

	// Shrink: drop empty topmost levels. The shrink commits twice, so
	// neither of the two records recovery replays (plog.RedoLog) covers a
	// word of a level the punch below zeroes.
	levels, err := s.mgr.ActiveLevels(s.win)
	if err != nil {
		return 0, err
	}
	keep := levels
	for keep > 1 {
		empty, err := s.levelEmpty(keep - 1)
		if err != nil {
			return 0, err
		}
		if !empty {
			break
		}
		keep--
	}
	for i := 0; keep < levels && i < 2; i++ {
		if err := s.batch.WriteU64(g.HeaderOff, uint64(keep)); err != nil {
			s.batch.Abort()
			return 0, err
		}
		if err := s.commit(nil); err != nil {
			return 0, err
		}
	}

	// Punch every inactive level's region. The zeroed state is exactly the
	// all-empty-slots state, so a deactivated level that held tombstones
	// comes back clean.
	var punched uint64
	for l := keep; l < len(g.LevelOff); l++ {
		size := g.LevelCap[l] * memblock.RecordSize
		if err := s.win.Device().PunchHole(g.LevelOff[l], size); err != nil {
			return punched, err
		}
		punched += size
	}
	return punched, nil
}

// levelEmpty reports whether level l holds no live records (tombstones and
// empties only).
func (s *subheap) levelEmpty(l int) (bool, error) {
	g := s.mgr.Geometry()
	for i := uint64(0); i < g.LevelCap[l]; i++ {
		slot := g.LevelOff[l] + i*memblock.RecordSize
		key, err := s.win.ReadU64(slot)
		if err != nil {
			return false, err
		}
		if key != 0 && key != ^uint64(0) {
			return false, nil
		}
	}
	return true, nil
}
