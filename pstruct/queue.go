package pstruct

import (
	"errors"
	"fmt"

	"poseidon"
)

// Queue is a persistent FIFO of fixed-size elements, stored in chained
// segments. Enqueues publish with a single atomic index store after the
// element persists; segment growth uses the same pending-slot protocol as
// List, so a crash at any point leaves the queue either before or after
// the operation — never torn, never leaking a segment.
//
// Queue anchor block layout (64 B):
//
//	+0  headSeg  loc+1 of the segment holding the oldest element
//	+8  headIdx  index of the oldest element within headSeg
//	+16 tailSeg  loc+1 of the segment being filled
//	+24 tailIdx  index one past the newest element within tailSeg
//	+32 elemSize fixed element size in bytes
//	+40 pending  loc+1 of a segment being linked (crash recovery hook)
//	+48 count    live element count
//
// Segment layout: +0 next (loc+1), +8 reserved, +16… elements.
const (
	qOffHeadSeg  = 0
	qOffHeadIdx  = 8
	qOffTailSeg  = 16
	qOffTailIdx  = 24
	qOffElemSize = 32
	qOffPending  = 40
	qOffCount    = 48

	segHeader      = 16
	segTargetBytes = 4096
	maxElemSize    = 64 << 10
)

// Queue errors.
var (
	// ErrBadElemSize reports an unusable element size.
	ErrBadElemSize = errors.New("pstruct: bad element size")
	// ErrWrongElemSize reports an element whose length does not match the
	// queue's fixed size.
	ErrWrongElemSize = errors.New("pstruct: element size mismatch")
)

// Queue is the persistent FIFO handle.
type Queue struct {
	heapID   uint64
	anchor   poseidon.NVMPtr
	elemSize uint64
	perSeg   uint64
}

func segBytes(elemSize uint64) (perSeg, size uint64) {
	perSeg = (segTargetBytes - segHeader) / elemSize
	if perSeg == 0 {
		perSeg = 1
	}
	return perSeg, segHeader + perSeg*elemSize
}

// NewQueue allocates a queue of fixed elemSize-byte elements. Anchor()
// locates it after a restart.
func NewQueue(t *poseidon.Thread, elemSize uint64) (*Queue, error) {
	if elemSize == 0 || elemSize > maxElemSize {
		return nil, fmt.Errorf("%w: %d", ErrBadElemSize, elemSize)
	}
	anchor, err := t.Alloc(64)
	if err != nil {
		return nil, err
	}
	q := &Queue{heapID: t.Heap().HeapID(), anchor: anchor, elemSize: elemSize}
	q.perSeg, _ = segBytes(elemSize)
	seg, err := q.newSegment(t)
	if err != nil {
		return nil, err
	}
	fields := map[uint64]uint64{
		qOffHeadSeg:  seg.Loc() + 1,
		qOffHeadIdx:  0,
		qOffTailSeg:  seg.Loc() + 1,
		qOffTailIdx:  0,
		qOffElemSize: elemSize,
		qOffPending:  0,
		qOffCount:    0,
	}
	for off, v := range fields {
		if err := t.WriteU64(anchor, off, v); err != nil {
			return nil, err
		}
	}
	if err := t.Flush(anchor, 0, 64); err != nil {
		return nil, err
	}
	return q, nil
}

// OpenQueue reattaches to an anchored queue and resolves any segment link
// a crash interrupted.
func OpenQueue(t *poseidon.Thread, anchor poseidon.NVMPtr) (*Queue, error) {
	q := &Queue{heapID: t.Heap().HeapID(), anchor: anchor}
	var err error
	if q.elemSize, err = t.ReadU64(anchor, qOffElemSize); err != nil {
		return nil, err
	}
	if q.elemSize == 0 || q.elemSize > maxElemSize {
		return nil, fmt.Errorf("%w: corrupt anchor (%d)", ErrBadElemSize, q.elemSize)
	}
	q.perSeg, _ = segBytes(q.elemSize)
	return q, q.recover(t)
}

// Anchor returns the queue's persistent location.
func (q *Queue) Anchor() poseidon.NVMPtr { return q.anchor }

func (q *Queue) ptr(loc1 uint64) poseidon.NVMPtr {
	return poseidon.PtrFromLoc(q.heapID, loc1-1)
}

func (q *Queue) newSegment(t *poseidon.Thread) (poseidon.NVMPtr, error) {
	_, size := segBytes(q.elemSize)
	seg, err := t.Alloc(size)
	if err != nil {
		return poseidon.NVMPtr{}, err
	}
	if err := t.WriteU64(seg, 0, 0); err != nil {
		return poseidon.NVMPtr{}, err
	}
	if err := t.Flush(seg, 0, segHeader); err != nil {
		return poseidon.NVMPtr{}, err
	}
	return seg, nil
}

// recover resolves the pending segment: linked ⇒ complete the tail
// advance; unlinked ⇒ free the orphan. The advance's anchor stores share a
// line, so a crash can persist tailSeg == pending before tailIdx and pending
// land: that advance is done too (and tailSeg's next is the new segment's 0).
func (q *Queue) recover(t *poseidon.Thread) error {
	pending, err := t.ReadU64(q.anchor, qOffPending)
	if err != nil || pending == 0 {
		return err
	}
	tailSeg, err := t.ReadU64(q.anchor, qOffTailSeg)
	if err != nil {
		return err
	}
	next := pending
	if tailSeg != pending {
		if next, err = t.ReadU64(q.ptr(tailSeg), 0); err != nil {
			return err
		}
	}
	if next == pending {
		// The link published: finish the advance.
		if err := t.WriteU64(q.anchor, qOffTailSeg, pending); err != nil {
			return err
		}
		if err := t.WriteU64(q.anchor, qOffTailIdx, 0); err != nil {
			return err
		}
	} else if err := t.Free(q.ptr(pending)); err != nil &&
		!errors.Is(err, poseidon.ErrDoubleFree) && !errors.Is(err, poseidon.ErrInvalidFree) {
		return err
	}
	if err := t.WriteU64(q.anchor, qOffPending, 0); err != nil {
		return err
	}
	return t.Flush(q.anchor, 0, 64)
}

// Enqueue appends one element (len(elem) must equal the queue's element
// size).
func (q *Queue) Enqueue(t *poseidon.Thread, elem []byte) error {
	if uint64(len(elem)) != q.elemSize {
		return fmt.Errorf("%w: got %d, queue holds %d-byte elements",
			ErrWrongElemSize, len(elem), q.elemSize)
	}
	tailSeg, err := t.ReadU64(q.anchor, qOffTailSeg)
	if err != nil {
		return err
	}
	tailIdx, err := t.ReadU64(q.anchor, qOffTailIdx)
	if err != nil {
		return err
	}
	if tailIdx == q.perSeg {
		// Grow: pending → link → advance, each step recoverable.
		seg, err := q.newSegment(t)
		if err != nil {
			return err
		}
		loc1 := seg.Loc() + 1
		if err := t.WriteU64(q.anchor, qOffPending, loc1); err != nil {
			return err
		}
		if err := t.Flush(q.anchor, qOffPending, 8); err != nil {
			return err
		}
		if err := t.WriteU64(q.ptr(tailSeg), 0, loc1); err != nil { // publish
			return err
		}
		if err := t.Flush(q.ptr(tailSeg), 0, 8); err != nil {
			return err
		}
		if err := t.WriteU64(q.anchor, qOffTailSeg, loc1); err != nil {
			return err
		}
		if err := t.WriteU64(q.anchor, qOffTailIdx, 0); err != nil {
			return err
		}
		if err := t.WriteU64(q.anchor, qOffPending, 0); err != nil {
			return err
		}
		if err := t.Flush(q.anchor, 0, 64); err != nil {
			return err
		}
		tailSeg, tailIdx = loc1, 0
	}
	// Element first, then the atomic index publish.
	off := segHeader + tailIdx*q.elemSize
	if err := t.Write(q.ptr(tailSeg), off, elem); err != nil {
		return err
	}
	if err := t.Flush(q.ptr(tailSeg), off, q.elemSize); err != nil {
		return err
	}
	count, err := t.ReadU64(q.anchor, qOffCount)
	if err != nil {
		return err
	}
	if err := t.WriteU64(q.anchor, qOffTailIdx, tailIdx+1); err != nil {
		return err
	}
	if err := t.WriteU64(q.anchor, qOffCount, count+1); err != nil {
		return err
	}
	// One cacheline: the index and count persist as a unit.
	return t.Flush(q.anchor, 0, 64)
}

// Dequeue removes and returns the oldest element.
func (q *Queue) Dequeue(t *poseidon.Thread) ([]byte, bool, error) {
	headSeg, err := t.ReadU64(q.anchor, qOffHeadSeg)
	if err != nil {
		return nil, false, err
	}
	headIdx, err := t.ReadU64(q.anchor, qOffHeadIdx)
	if err != nil {
		return nil, false, err
	}
	tailSeg, err := t.ReadU64(q.anchor, qOffTailSeg)
	if err != nil {
		return nil, false, err
	}
	tailIdx, err := t.ReadU64(q.anchor, qOffTailIdx)
	if err != nil {
		return nil, false, err
	}
	if headSeg == tailSeg && headIdx == tailIdx {
		return nil, false, nil // empty
	}
	if headIdx == q.perSeg {
		// The head segment is drained: advance to its successor and free
		// it. (A crash after the advance but before the free leaks one
		// segment; poseidon-fsck surfaces it.)
		next, err := t.ReadU64(q.ptr(headSeg), 0)
		if err != nil {
			return nil, false, err
		}
		if next == 0 {
			return nil, false, errors.New("pstruct: corrupt queue (drained head has no successor)")
		}
		if err := t.WriteU64(q.anchor, qOffHeadSeg, next); err != nil {
			return nil, false, err
		}
		if err := t.WriteU64(q.anchor, qOffHeadIdx, 0); err != nil {
			return nil, false, err
		}
		if err := t.Flush(q.anchor, 0, 64); err != nil {
			return nil, false, err
		}
		if err := t.Free(q.ptr(headSeg)); err != nil {
			return nil, false, err
		}
		return q.Dequeue(t)
	}
	out := make([]byte, q.elemSize)
	if err := t.Read(q.ptr(headSeg), segHeader+headIdx*q.elemSize, out); err != nil {
		return nil, false, err
	}
	count, err := t.ReadU64(q.anchor, qOffCount)
	if err != nil {
		return nil, false, err
	}
	if err := t.WriteU64(q.anchor, qOffHeadIdx, headIdx+1); err != nil {
		return nil, false, err
	}
	if count > 0 {
		if err := t.WriteU64(q.anchor, qOffCount, count-1); err != nil {
			return nil, false, err
		}
	}
	if err := t.Flush(q.anchor, 0, 64); err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// Len returns the element count.
func (q *Queue) Len(t *poseidon.Thread) (uint64, error) {
	return t.ReadU64(q.anchor, qOffCount)
}
