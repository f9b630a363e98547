package core

import (
	"errors"
	"fmt"
	"io"

	"poseidon/internal/memblock"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

// SubheapInfo is an inspection snapshot of one sub-heap.
type SubheapInfo struct {
	ID              int
	Initialized     bool
	AllocatedBlocks uint64
	AllocatedBytes  uint64
	FreeBlocks      uint64
	FreeBytes       uint64
	ActiveLevels    int
	UndoLogEntries  uint64
	ClassHistogram  map[uint64]uint64 // block size -> allocated count
}

// InspectSubheap audits sub-heap i and returns its snapshot.
func (h *Heap) InspectSubheap(i int) (SubheapInfo, error) {
	if i < 0 || i >= len(h.subheaps) {
		return SubheapInfo{}, fmt.Errorf("poseidon: sub-heap %d out of range", i)
	}
	s := h.subheaps[i]
	s.lock(obs.OpScrub, nvm.ClassScrub, 0)
	defer s.unlock(nil)
	info := SubheapInfo{ID: i, ClassHistogram: map[uint64]uint64{}}
	init, err := s.initializedFlag()
	if err != nil {
		return info, err
	}
	info.Initialized = init
	if !init {
		return info, nil
	}
	if err := s.ensureReady(); err != nil {
		return info, err
	}
	levels, err := s.mgr.ActiveLevels(s.win)
	if err != nil {
		return info, err
	}
	info.ActiveLevels = levels
	if info.UndoLogEntries, err = s.log.Pending(); err != nil {
		return info, err
	}
	err = s.mgr.ForEachRecord(s.win, func(rec memblock.Record) error {
		if rec.Status == memblock.StatusAllocated {
			info.AllocatedBlocks++
			info.AllocatedBytes += rec.Size
			info.ClassHistogram[rec.Size]++
		} else {
			info.FreeBlocks++
			info.FreeBytes += rec.Size
		}
		return nil
	})
	return info, err
}

// RecordSlot returns the device offset of the hash-table record describing
// the block p points at — the handle corruption-injection tests use to
// flip bits in a specific record. No quarantine check: tests inspect
// benched sub-heaps too.
func (h *Heap) RecordSlot(p NVMPtr) (uint64, error) {
	s, dev, err := h.resolve(p)
	if err != nil {
		return 0, err
	}
	s.lock(obs.OpLookup, nvm.ClassOther, 0)
	defer s.unlock(nil)
	if err := s.ensureReady(); err != nil {
		return 0, err
	}
	return s.mgr.Lookup(s.win, dev)
}

// Inspect writes a human-readable dump of the heap's structure — the
// poseidon-inspect tool's engine.
func (h *Heap) Inspect(w io.Writer) error {
	fmt.Fprintf(w, "Poseidon heap %#x\n", h.heapID)
	fmt.Fprintf(w, "  sub-heaps:        %d\n", h.lay.subheaps)
	fmt.Fprintf(w, "  user bytes/sub:   %d\n", h.lay.userSize)
	fmt.Fprintf(w, "  meta bytes/sub:   %d\n", h.lay.metaSize)
	fmt.Fprintf(w, "  micro-log lanes:  %d × %d B\n", h.lay.laneCount, h.lay.laneSize)
	fmt.Fprintf(w, "  device capacity:  %d\n", h.dev.Capacity())
	fmt.Fprintf(w, "  device resident:  %d\n", h.dev.ResidentBytes())
	switch root, err := h.Root(); {
	case errors.Is(err, ErrCorruptHeap):
		fmt.Fprintf(w, "  root:             %v\n", err)
	case err != nil:
		return err
	default:
		fmt.Fprintf(w, "  root:             %v\n", root)
	}
	for i := range h.subheaps {
		info, err := h.InspectSubheap(i)
		if err != nil {
			return fmt.Errorf("sub-heap %d: %w", i, err)
		}
		if !info.Initialized {
			fmt.Fprintf(w, "  sub-heap %d: not yet formatted\n", i)
			continue
		}
		fmt.Fprintf(w, "  sub-heap %d: %d allocated blocks (%d B), %d free blocks (%d B), %d hash levels\n",
			i, info.AllocatedBlocks, info.AllocatedBytes, info.FreeBlocks, info.FreeBytes, info.ActiveLevels)
		if info.UndoLogEntries > 0 {
			fmt.Fprintf(w, "    WARNING: %d commit-record words not in place (interrupted operation)\n", info.UndoLogEntries)
		}
	}
	st := h.Stats()
	fmt.Fprintf(w, "  lifetime: %d allocs, %d tx-allocs, %d frees, %d defrag merges\n",
		st.Allocs, st.TxAllocs, st.Frees, st.DefragMerges)
	fmt.Fprintf(w, "  rejected: %d invalid frees, %d double frees\n", st.InvalidFrees, st.DoubleFrees)
	fmt.Fprintf(w, "  recovery: %d rolled-back tx blocks, %d no-ops\n", st.RecoveredBlocks, st.RecoveredNoops)
	fmt.Fprintf(w, "  wrpkru:   %d permission switches\n", st.PermissionSwitches)
	return nil
}
