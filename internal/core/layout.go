package core

import (
	"fmt"

	"poseidon/internal/memblock"
	"poseidon/internal/nvm"
	"poseidon/internal/plog"
)

// Persistent heap layout (paper Figure 4):
//
//	superblock region (MPK-protected)
//	  +0        superblock header (one page)
//	  +4 KiB    superblock undo log (root-pointer updates)
//	  +64 KiB   micro-log lane arena: MaxThreads lanes, one per Thread
//	  (page-aligned) cache-manifest arena: magSlots words per lane,
//	             the persistent shadow of per-thread block magazines
//	sub-heap 0
//	  +0        sub-heap header (one page)
//	  +4 KiB    undo log
//	  +4K+undo  memory-block metadata (free lists + multi-level hash table)
//	  +metaSize user-data region (MPK key 0, freely writable)
//	sub-heap 1 …
//
// Everything before each sub-heap's user region carries the metadata
// protection key; user regions carry key 0.

// Superblock header field offsets.
const (
	sbMagicOff       = 0
	sbVersionOff     = 8
	sbHeapIDOff      = 16
	sbSubheapsOff    = 24
	sbUserSizeOff    = 32
	sbMetaSizeOff    = 40
	sbRootLocOff     = 48
	sbLaneCountOff   = 56
	sbLaneSizeOff    = 64
	sbUndoSizeOff    = 72
	sbInitializedOff = 80
	sbRootSetOff     = 88
	// sbMagSlotsOff records the per-lane cache-manifest capacity in 8-byte
	// words. Images written before magazines existed never stored the
	// field, so they read zero — no manifest arena, magazines disabled —
	// and the rest of the layout is byte-identical, so heapVersion stays 1.
	sbMagSlotsOff = 96
	// sbProfSizeOff records the byte size of the profile side-table arena
	// (the persistent allocation-site table; see internal/plog/sites.go).
	// The same backward-compat contract as sbMagSlotsOff: images written
	// before the profiler existed read zero — no arena, profiles run
	// DRAM-only — and the layout is otherwise byte-identical, so
	// heapVersion stays 1.
	sbProfSizeOff = 104
	// sbBoxSizeOff records the byte size of the black-box flight-recorder
	// arena (the crash-surviving event/span ring; see
	// internal/plog/blackbox.go). Same backward-compat contract again:
	// images written before the recorder existed read zero — no arena, the
	// journal stays DRAM-only — and the layout is otherwise byte-identical,
	// so heapVersion stays 1.
	sbBoxSizeOff = 112

	sbHeaderPages = 1
	sbUndoOff     = sbHeaderPages * nvm.PageSize
	sbUndoSize    = 60 << 10
	sbLaneArena   = 64 << 10

	heapMagic   uint64 = 0x4e4f444945534f50 // "POSEIDON" little endian
	heapVersion uint64 = 1

	// Sub-heap header field offsets (relative to the sub-heap base).
	shInitializedOff = 0
	shHeaderSize     = nvm.PageSize

	// shRepairingOff is the persistent repair-in-progress flag, on its own
	// cacheline between the initialized word and the ring. It is set
	// (fenced) before repair mutates any metadata and cleared only after
	// the repaired metadata is durable, so a crash mid-repair is detected
	// at the next load and the sub-heap re-quarantined instead of serving
	// half-rebuilt structures. format() zeroes the header page, so old
	// images read "no repair in progress".
	shRepairingOff = 64

	// shRingOff places the remote-free ring in the spare space of the
	// sub-heap header page, one cacheline past the initialized word so
	// the two never share a dirty line. format() zeroes the whole header
	// page, so images written before rings existed read as an empty ring.
	shRingOff = 128

	// The metadata mirror lives in the header page after the ring: a
	// double-buffered record (plog.Slots) holding the sub-heap's critical
	// metadata summary (level count + free-list anchors), so a corrupt
	// primary header can be restored instead of benched. format() zeroes
	// the page, so old images read "no valid mirror" and fall back to
	// rebuild-by-walk.
	shMirrorOff      = shRingOff + memblock.RingBytes
	shMirrorSlots    = 2
	shMirrorSlotSize = 832 // 13 cachelines; fits summaries up to 49 size classes
)

// The ring and the mirror slots must fit the header page (compile-time
// bounds).
const _ = uint64(shHeaderSize - shRingOff - memblock.RingBytes)
const _ = uint64(shHeaderSize - shMirrorOff - shMirrorSlots*shMirrorSlotSize)

// metadataKey is the MPK protection key guarding all heap metadata.
const metadataKey = 1

// layout holds the computed device geometry.
type layout struct {
	subheaps    int
	userSize    uint64
	metaSize    uint64
	undoSize    uint64
	laneCount   int
	laneSize    uint64
	magSlots    uint64 // cache-manifest words per lane (0: no manifest arena)
	profSize    uint64 // profile side-table arena bytes (0: no arena)
	boxSize     uint64 // black-box flight-recorder arena bytes (0: no arena)
	manifestOff uint64 // device offset of lane 0's cache manifest
	profOff     uint64 // device offset of the profile side-table arena
	boxOff      uint64 // device offset of the black-box arena
	subheapOff  uint64 // device offset of sub-heap 0
	stride      uint64 // metaSize + userSize
	capacity    uint64
}

func computeLayout(subheaps int, userSize, metaSize, undoSize uint64, laneCount int, laneSize, magSlots, profSize, boxSize uint64) (layout, error) {
	arena := uint64(laneCount) * laneSize
	manOff := (sbLaneArena + arena + nvm.PageSize - 1) &^ (nvm.PageSize - 1)
	profOff := (manOff + uint64(laneCount)*magSlots*8 + nvm.PageSize - 1) &^ (nvm.PageSize - 1)
	// profSize == 0 (pre-profiler image) leaves boxOff == profOff, and
	// boxSize == 0 (pre-recorder image) leaves subOff == boxOff: each
	// zero-sized arena keeps the layout byte-identical to one computed
	// before that arena existed.
	boxOff := (profOff + profSize + nvm.PageSize - 1) &^ (nvm.PageSize - 1)
	subOff := (boxOff + boxSize + nvm.PageSize - 1) &^ (nvm.PageSize - 1)
	l := layout{
		subheaps:    subheaps,
		userSize:    userSize,
		metaSize:    metaSize,
		undoSize:    undoSize,
		laneCount:   laneCount,
		laneSize:    laneSize,
		magSlots:    magSlots,
		profSize:    profSize,
		boxSize:     boxSize,
		manifestOff: manOff,
		profOff:     profOff,
		boxOff:      boxOff,
		subheapOff:  subOff,
		stride:      metaSize + userSize,
	}
	l.capacity = l.subheapOff + uint64(subheaps)*l.stride
	// Validate that the memblock geometry fits the metadata region.
	if _, err := l.memblockGeometry(0); err != nil {
		return layout{}, err
	}
	return l, nil
}

// subheapBase returns the device offset of sub-heap i.
func (l layout) subheapBase(i int) uint64 {
	return l.subheapOff + uint64(i)*l.stride
}

// userBase returns the device offset of sub-heap i's user region.
func (l layout) userBase(i int) uint64 {
	return l.subheapBase(i) + l.metaSize
}

// ringBase returns the device offset of sub-heap i's remote-free ring.
func (l layout) ringBase(i int) uint64 {
	return l.subheapBase(i) + shRingOff
}

// undoBase returns the device offset of sub-heap i's undo log.
func (l layout) undoBase(i int) uint64 {
	return l.subheapBase(i) + shHeaderSize
}

// laneBase returns the device offset of micro-log lane i.
func (l layout) laneBase(i int) uint64 {
	return sbLaneArena + uint64(i)*l.laneSize
}

// laneManifestBase returns the device offset of lane i's cache manifest.
// Only meaningful when magSlots > 0.
func (l layout) laneManifestBase(i int) uint64 {
	return l.manifestOff + uint64(i)*l.magSlots*8
}

// profArena returns the profile side-table record. Zero-capacity on images
// provisioned before the profiler existed.
func (l layout) profArena() plog.Slots {
	return plog.SiteTable(l.profOff, l.profSize)
}

// boxArena returns the black-box flight-recorder arena geometry.
// Zero-capacity (Valid() false) on images provisioned before the recorder
// existed.
func (l layout) boxArena() plog.BoxArena {
	return plog.NewBoxArena(l.boxOff, l.boxSize)
}

// memblockGeometry computes sub-heap i's metadata layout.
func (l layout) memblockGeometry(i int) (memblock.Geometry, error) {
	base := l.subheapBase(i)
	metaBase := base + shHeaderSize + l.undoSize
	metaAvail := l.metaSize - shHeaderSize - l.undoSize
	g, err := memblock.ComputeGeometry(metaBase, metaAvail, l.userBase(i), l.userSize)
	if err != nil {
		return g, fmt.Errorf("sub-heap metadata region: %w", err)
	}
	return g, nil
}

// locToDevice translates a persistent-pointer location to a device offset.
func (l layout) locToDevice(sub uint16, off uint64) (uint64, error) {
	if int(sub) >= l.subheaps || off >= l.userSize {
		return 0, fmt.Errorf("%w: sub=%d off=%#x", ErrBadPointer, sub, off)
	}
	return l.userBase(int(sub)) + off, nil
}

// deviceToLoc translates a device offset in a user region back to pointer
// parts.
func (l layout) deviceToLoc(dev uint64) (uint16, uint64, error) {
	if dev < l.subheapOff {
		return 0, 0, fmt.Errorf("%w: device offset %#x before sub-heaps", ErrBadPointer, dev)
	}
	i := (dev - l.subheapOff) / l.stride
	if i >= uint64(l.subheaps) {
		return 0, 0, fmt.Errorf("%w: device offset %#x past last sub-heap", ErrBadPointer, dev)
	}
	in := dev - l.subheapBase(int(i))
	if in < l.metaSize {
		return 0, 0, fmt.Errorf("%w: device offset %#x inside metadata", ErrBadPointer, dev)
	}
	return uint16(i), in - l.metaSize, nil
}
