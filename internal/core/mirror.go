package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"poseidon/internal/memblock"
	"poseidon/internal/plog"
)

// Metadata mirror: each sub-heap keeps a shadow of its critical header
// state — the active hash-table level count and every size class's
// free-list anchors — as a double-buffered record (plog.Slots) in the spare
// space of its header page (layout.go, shMirrorOff). The mirror is what
// lets repair restore a corrupt primary header instead of benching the
// whole sub-heap: interior record fields are re-derivable by walking the
// table, but the level count and list anchors are authoritative only in
// the header, so they get a second copy.
//
// Payload (u64 words): level count, class count, then head and tail per
// class. Updates are paced (every mirrorInterval committed mutations, plus
// every structural commit point) and strictly best-effort: a failed or
// skipped update just leaves an older — still self-consistent — image
// behind, and repair audits the restored state before trusting it.

const (
	// mirrorMagic is "PSMIRRO2" little endian.
	mirrorMagic uint64 = 0x324f5252494d5350

	// mirrorInterval paces steady-state mirror refreshes: one update per
	// this many committed mutations (allocs/frees). Structural changes
	// (format, recovery, level extension, repair) update unconditionally.
	mirrorInterval = 128
)

// mirrorImage is a decoded mirror payload.
type mirrorImage struct {
	levels int
	lists  [][2]uint64 // per class: head, tail
}

// mirror returns the sub-heap's mirror record.
func (s *subheap) mirror() plog.Slots {
	return plog.Slots{Base: s.base + shMirrorOff, Size: shMirrorSlotSize, Magic: mirrorMagic}
}

// mirrorAnchorValid reports whether a free-list anchor read from the live
// header could possibly be a record slot: zero (empty list) or a 64-aligned
// offset inside the hash-table arena.
func (s *subheap) mirrorAnchorValid(a uint64) bool {
	if a == 0 {
		return true
	}
	g := s.mgr.Geometry()
	return a >= g.LevelOff[0] && a < g.End && a%memblock.RecordSize == 0
}

// updateMirrorLocked writes the live header state as the next mirror
// generation. Caller holds s.mu with the metadata window granted and no
// staged batch words (the reads go straight to the window). The capture is
// validated before anything is written: if the live header is already
// corrupt, the update is skipped so the last good image survives for
// repair. Errors are reported but callers treat the update as best-effort.
func (s *subheap) updateMirrorLocked() error {
	g := s.mgr.Geometry()
	levels, err := s.mgr.ActiveLevels(s.win)
	if err != nil {
		return err // corrupt or unreadable level count: keep the old image
	}
	p := slices.Grow(s.mirrorPay[:0], 16+16*g.NumClasses)
	p = binary.LittleEndian.AppendUint64(p, uint64(levels))
	p = binary.LittleEndian.AppendUint64(p, uint64(g.NumClasses))
	for c := 0; c < g.NumClasses; c++ {
		head, err := s.mgr.FreeHead(s.win, c)
		if err != nil {
			return err
		}
		tail, err := s.mgr.FreeTail(s.win, c)
		if err != nil {
			return err
		}
		if !s.mirrorAnchorValid(head) || !s.mirrorAnchorValid(tail) {
			return fmt.Errorf("%w: free-list anchor of class %d out of bounds", ErrCorruptHeap, c)
		}
		p = binary.LittleEndian.AppendUint64(p, head)
		p = binary.LittleEndian.AppendUint64(p, tail)
	}
	s.mirrorPay = p
	if err := s.mirror().Write(s.win, s.mirrorSeq+1, p, &s.mirrorBuf); err != nil {
		return err
	}
	s.mirrorSeq++
	return nil
}

// loadMirrorLocked returns the newest valid mirror generation (0 if none:
// fresh image, torn first update, or corrupted header page) and its image,
// nil unless it describes a plausible header for this geometry. Caller
// holds s.mu with the window granted.
func (s *subheap) loadMirrorLocked() (uint64, *mirrorImage) {
	g := s.mgr.Geometry()
	gen, p, _ := s.mirror().Read(s.win.Read)
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(p[8*i:]) }
	if len(p) != 16+16*g.NumClasses || word(1) != uint64(g.NumClasses) ||
		word(0) < 1 || word(0) > uint64(len(g.LevelCap)) {
		return gen, nil
	}
	img := &mirrorImage{levels: int(word(0)), lists: make([][2]uint64, g.NumClasses)}
	for c := range img.lists {
		head, tail := word(2+2*c), word(3+2*c)
		if !s.mirrorAnchorValid(head) || !s.mirrorAnchorValid(tail) || (head == 0) != (tail == 0) {
			return gen, nil
		}
		img.lists[c] = [2]uint64{head, tail}
	}
	return gen, img
}

// seedMirrorSeq aligns the in-DRAM generation counter with the newest valid
// on-device image so the next update targets the other slot. Caller holds
// s.mu with the window granted.
func (s *subheap) seedMirrorSeq() { s.mirrorSeq, _ = s.loadMirrorLocked() }

// restoreMirrorLocked stages the mirrored level count and free-list anchors
// over the primary header and commits. Caller holds s.mu with the window
// granted and s.batch open; the restored state still needs a full audit
// before the sub-heap returns to service.
func (s *subheap) restoreMirrorLocked(img *mirrorImage) error {
	if err := s.mgr.SetActiveLevels(s.batch, img.levels); err != nil {
		s.batch.Abort()
		return err
	}
	for c, ht := range img.lists {
		if err := s.mgr.SetFreeList(s.batch, c, ht[0], ht[1]); err != nil {
			s.batch.Abort()
			return err
		}
	}
	return s.commit(nil)
}

// noteMirrorMutation counts one committed mutation and refreshes the mirror
// every mirrorInterval-th call. Best-effort: a failed refresh leaves the
// previous image in place. Caller holds s.mu with the window granted and a
// clean batch (called only after a successful Commit).
func (s *subheap) noteMirrorMutation() {
	s.mutations++
	if s.mutations%mirrorInterval == 0 {
		_ = s.updateMirrorLocked()
	}
}

// SyncMirrors forces a mirror refresh on every in-service sub-heap — a
// deterministic commit point for tests and for callers about to snapshot
// the device.
func (h *Heap) SyncMirrors() error {
	if h.closed.Load() {
		return ErrClosed
	}
	return h.syncMirrors()
}

// syncMirrors is the SyncMirrors body, also called by recover after a clean
// ScrubOnLoad audit.
func (h *Heap) syncMirrors() error {
	var first error
	for _, s := range h.subheaps {
		if s.isQuarantined() {
			continue
		}
		s.mu.Lock()
		if s.ready {
			h.grant(s.thread)
			if err := s.updateMirrorLocked(); err != nil && first == nil {
				first = err
			}
			h.revoke(s.thread)
		}
		s.mu.Unlock()
	}
	return first
}
