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
//	  +0        superblock header (one page): magic, version (+8),
//	             geometry record (+64), root record (+320)
//	  +4 KiB    micro-log lane arena: MaxThreads lanes, one per Thread,
//	             each an epoch word (+8) and 16-byte entries from +16
//	  (page-aligned) cache-manifest arena: magSlots words per lane,
//	             the persistent shadow of per-thread block magazines
//	  (page-aligned) profile site table, then black-box arena (64 KiB each)
//	sub-heap 0
//	  +0        sub-heap header (one page): initialized word, repair
//	             flag (+64), metadata mirror (+128)
//	  +4 KiB    commit log (UndoLogSize: two record slots)
//	  +4K+log   memory-block metadata (free lists + multi-level hash table)
//	  +metaSize user-data region (MPK key 0, freely writable)
//	sub-heap 1 …
//
// Everything before each sub-heap's user region carries the metadata
// protection key; user regions carry key 0.

// Superblock header page: magic and version are loose words, read first,
// so an image of another format fails by name; the rest of the header is
// geometryRecord and rootRecord.
const (
	sbMagicOff   = 0
	sbVersionOff = 8
	sbLaneArena  = nvm.PageSize

	heapMagic   uint64 = 0x4e4f444945534f50 // "POSEIDON" little endian
	heapVersion uint64 = 4

	// Sub-heap header field offsets (relative to the sub-heap base).
	// shInitializedOff holds 0 until format commits, then shFormatted;
	// any other value is corruption (initializedFlag).
	shInitializedOff = 0
	shHeaderSize     = nvm.PageSize

	// shFormatted is "PSSUBHP2" little endian: no byte of it is zero, so
	// no single-byte flip reads as the never-formatted 0.
	shFormatted uint64 = 0x3250484255535350

	// shRepairingOff is the persistent repair-in-progress flag, on its own
	// cacheline after the initialized word. It is set (fenced) before
	// repair mutates any metadata and cleared only after the repaired
	// metadata is durable, so a crash mid-repair is detected at the next
	// load and the sub-heap re-quarantined instead of serving half-rebuilt
	// structures.
	shRepairingOff = 64

	// The metadata mirror lives in the header page after the repair flag:
	// a double-buffered record (plog.Slots) holding the sub-heap's
	// critical metadata summary (level count + free-list anchors), so a
	// corrupt primary header can be restored instead of benched.
	shMirrorOff      = 128
	shMirrorSlots    = 2
	shMirrorSlotSize = 832 // 13 cachelines; fits summaries up to 49 size classes
)

// The mirror slots must fit the header page (a compile-time bound).
const _ = uint64(shHeaderSize - shMirrorOff - shMirrorSlots*shMirrorSlotSize)

// The superblock's records (plog.Slots), each of whose values is written
// into both slots (writeBoth), so one damaged slot never changes the value
// read. The geometry record holds the heap id, the sub-heap count, the
// user, metadata and commit-log sizes, the lane count, the lane size and
// the manifest words per lane, one u64 each; Create writes it last, so its
// first valid slot is the creation commit point. The root record holds
// the root pointer's location word, or nothing for the null root.
var (
	geometryRecord = plog.Slots{Base: 64, Size: 128, Magic: 0x33304d4f45475350} // "PSGEOM03"
	rootRecord     = plog.Slots{Base: 320, Size: 64, Magic: 0x3330544f4f525350} // "PSROOT03"
)

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
	magSlots    uint64 // cache-manifest words per lane
	manifestOff uint64 // device offset of lane 0's cache manifest
	profOff     uint64 // device offset of the profile side-table arena
	boxOff      uint64 // device offset of the black-box arena
	subheapOff  uint64 // device offset of sub-heap 0
	stride      uint64 // metaSize + userSize
	capacity    uint64
}

func computeLayout(subheaps int, userSize, metaSize, undoSize uint64, laneCount int, laneSize, magSlots uint64) (layout, error) {
	arena := uint64(laneCount) * laneSize
	manOff := (sbLaneArena + arena + nvm.PageSize - 1) &^ (nvm.PageSize - 1)
	profOff := (manOff + uint64(laneCount)*magSlots*8 + nvm.PageSize - 1) &^ (nvm.PageSize - 1)
	boxOff := (profOff + defaultProfSize + nvm.PageSize - 1) &^ (nvm.PageSize - 1)
	subOff := (boxOff + defaultBoxSize + nvm.PageSize - 1) &^ (nvm.PageSize - 1)
	l := layout{
		subheaps:    subheaps,
		userSize:    userSize,
		metaSize:    metaSize,
		undoSize:    undoSize,
		laneCount:   laneCount,
		laneSize:    laneSize,
		magSlots:    magSlots,
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

// undoBase returns the device offset of sub-heap i's commit log.
func (l layout) undoBase(i int) uint64 {
	return l.subheapBase(i) + shHeaderSize
}

// laneBase returns the device offset of micro-log lane i.
func (l layout) laneBase(i int) uint64 {
	return sbLaneArena + uint64(i)*l.laneSize
}

// laneManifestBase returns the device offset of lane i's cache manifest.
func (l layout) laneManifestBase(i int) uint64 {
	return l.manifestOff + uint64(i)*l.magSlots*8
}

// profArena returns the profile side-table record.
func (l layout) profArena() plog.Slots {
	return plog.SiteTable(l.profOff, defaultProfSize)
}

// boxArena returns the black-box flight-recorder arena geometry.
func (l layout) boxArena() plog.BoxArena {
	return plog.NewBoxArena(l.boxOff, defaultBoxSize)
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
