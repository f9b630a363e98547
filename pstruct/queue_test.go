package pstruct

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"poseidon"
	"poseidon/internal/core"
	"poseidon/internal/nvm"
)

func elem(v uint64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, v)
	binary.LittleEndian.PutUint64(b[8:], ^v)
	return b
}

func TestQueueFIFOOrder(t *testing.T) {
	_, th := newHeapThread(t)
	defer th.Close()
	q, err := NewQueue(th, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Spans several segments: perSeg = (4096-16)/16 = 255.
	const n = 1000
	for i := uint64(0); i < n; i++ {
		if err := q.Enqueue(th, elem(i)); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if got, _ := q.Len(th); got != n {
		t.Fatalf("len = %d", got)
	}
	for i := uint64(0); i < n; i++ {
		out, ok, err := q.Dequeue(th)
		if err != nil || !ok {
			t.Fatalf("dequeue %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(out, elem(i)) {
			t.Fatalf("dequeue %d out of order", i)
		}
	}
	if _, ok, _ := q.Dequeue(th); ok {
		t.Fatal("dequeue from empty queue")
	}
	if got, _ := q.Len(th); got != 0 {
		t.Fatalf("len after drain = %d", got)
	}
}

func TestQueueInterleavedUse(t *testing.T) {
	_, th := newHeapThread(t)
	defer th.Close()
	q, err := NewQueue(th, 16)
	if err != nil {
		t.Fatal(err)
	}
	next, expect := uint64(0), uint64(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 37; i++ {
			if err := q.Enqueue(th, elem(next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i < 23; i++ {
			out, ok, err := q.Dequeue(th)
			if err != nil || !ok {
				t.Fatal(err)
			}
			if !bytes.Equal(out, elem(expect)) {
				t.Fatalf("expected element %d", expect)
			}
			expect++
		}
	}
	want := next - expect
	if got, _ := q.Len(th); got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}
}

func TestQueueValidation(t *testing.T) {
	_, th := newHeapThread(t)
	defer th.Close()
	if _, err := NewQueue(th, 0); !errors.Is(err, ErrBadElemSize) {
		t.Fatalf("zero elem size: %v", err)
	}
	q, err := NewQueue(th, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue(th, make([]byte, 8)); !errors.Is(err, ErrWrongElemSize) {
		t.Fatalf("size mismatch: %v", err)
	}
}

func TestQueueSurvivesRestart(t *testing.T) {
	h, th := newHeapThread(t)
	q, err := NewQueue(th, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ { // crosses a segment boundary
		if err := q.Enqueue(th, elem(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.SetRoot(q.Anchor()); err != nil {
		t.Fatal(err)
	}
	th.Close()
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	ch, err := core.Load(h.Device(), core.Options{CrashTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	h2 := facade(t, ch)
	th2, err := h2.Thread()
	if err != nil {
		t.Fatal(err)
	}
	defer th2.Close()
	root, err := h2.Root()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := OpenQueue(th2, root)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := q2.Len(th2); n != 300 {
		t.Fatalf("len after restart = %d", n)
	}
	for i := uint64(0); i < 300; i++ {
		out, ok, err := q2.Dequeue(th2)
		if err != nil || !ok {
			t.Fatalf("dequeue %d after restart: %v", i, err)
		}
		if !bytes.Equal(out, elem(i)) {
			t.Fatalf("order broken at %d after restart", i)
		}
	}
}

// Crash with the pending segment written but not linked: recovery frees
// the orphan; the queue keeps working.
func TestQueueRecoverUnlinkedSegment(t *testing.T) {
	h, th := newHeapThread(t)
	q, err := NewQueue(th, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue(th, elem(1)); err != nil {
		t.Fatal(err)
	}
	if err := h.SetRoot(q.Anchor()); err != nil {
		t.Fatal(err)
	}
	orphan, err := q.newSegment(th)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.WriteU64(q.Anchor(), qOffPending, orphan.Loc()+1); err != nil {
		t.Fatal(err)
	}
	if err := th.Flush(q.Anchor(), qOffPending, 8); err != nil {
		t.Fatal(err)
	}
	th.Close()
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	ch, err := core.Load(h.Device(), core.Options{CrashTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	h2 := facade(t, ch)
	th2, err := h2.Thread()
	if err != nil {
		t.Fatal(err)
	}
	defer th2.Close()
	root, err := h2.Root()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := OpenQueue(th2, root)
	if err != nil {
		t.Fatal(err)
	}
	// The orphan was freed by queue recovery.
	if err := th2.Free(orphan); !errors.Is(err, poseidon.ErrDoubleFree) {
		t.Fatalf("orphan not reclaimed: %v", err)
	}
	out, ok, err := q2.Dequeue(th2)
	if err != nil || !ok || !bytes.Equal(out, elem(1)) {
		t.Fatalf("element lost: %v %v %v", out, ok, err)
	}
}

// Crash with the segment linked but the anchor not advanced: recovery
// completes the advance.
func TestQueueRecoverLinkedSegment(t *testing.T) {
	h, th := newHeapThread(t)
	q, err := NewQueue(th, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetRoot(q.Anchor()); err != nil {
		t.Fatal(err)
	}
	// Fill exactly one segment so the next enqueue needs a new one.
	for i := uint64(0); i < q.perSeg; i++ {
		if err := q.Enqueue(th, elem(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Hand-craft the torn grow: segment allocated, pending set, linked,
	// anchor NOT advanced.
	seg, err := q.newSegment(th)
	if err != nil {
		t.Fatal(err)
	}
	tailSeg, err := th.ReadU64(q.Anchor(), qOffTailSeg)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.WriteU64(q.Anchor(), qOffPending, seg.Loc()+1); err != nil {
		t.Fatal(err)
	}
	if err := th.WriteU64(q.ptr(tailSeg), 0, seg.Loc()+1); err != nil {
		t.Fatal(err)
	}
	if err := th.Flush(q.ptr(tailSeg), 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := th.Flush(q.Anchor(), 0, 64); err != nil {
		t.Fatal(err)
	}
	th.Close()
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	ch, err := core.Load(h.Device(), core.Options{CrashTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	h2 := facade(t, ch)
	th2, err := h2.Thread()
	if err != nil {
		t.Fatal(err)
	}
	defer th2.Close()
	root, err := h2.Root()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := OpenQueue(th2, root)
	if err != nil {
		t.Fatal(err)
	}
	// The advance completed: enqueue lands in the new segment.
	if err := q2.Enqueue(th2, elem(999)); err != nil {
		t.Fatal(err)
	}
	tailSeg2, err := th2.ReadU64(q2.Anchor(), qOffTailSeg)
	if err != nil {
		t.Fatal(err)
	}
	if tailSeg2 != seg.Loc()+1 {
		t.Fatalf("tail segment = %#x, want the linked one %#x", tailSeg2, seg.Loc()+1)
	}
	// FIFO order intact across the boundary.
	out, ok, err := q2.Dequeue(th2)
	if err != nil || !ok || !bytes.Equal(out, elem(0)) {
		t.Fatalf("head element wrong after recovery: %v %v %v", out, ok, err)
	}
}

// Crash after the anchor line persisted tailSeg == pending but before
// tailIdx and pending were reset: recovery must finish the advance, not
// read the new segment's (zero) next link and free the live tail.
func TestQueueRecoverAdvancedTailSegment(t *testing.T) {
	h, th := newHeapThread(t)
	q, err := NewQueue(th, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetRoot(q.Anchor()); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < q.perSeg; i++ {
		if err := q.Enqueue(th, elem(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Hand-craft the torn grow: segment linked and tailSeg advanced, while
	// tailIdx still says "full" and pending still names the new segment.
	seg, err := q.newSegment(th)
	if err != nil {
		t.Fatal(err)
	}
	tailSeg, err := th.ReadU64(q.Anchor(), qOffTailSeg)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.WriteU64(q.ptr(tailSeg), 0, seg.Loc()+1); err != nil {
		t.Fatal(err)
	}
	if err := th.Flush(q.ptr(tailSeg), 0, 8); err != nil {
		t.Fatal(err)
	}
	for off, v := range map[uint64]uint64{qOffPending: seg.Loc() + 1, qOffTailSeg: seg.Loc() + 1} {
		if err := th.WriteU64(q.Anchor(), off, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := th.Flush(q.Anchor(), 0, 64); err != nil {
		t.Fatal(err)
	}
	th.Close()

	h2, th2, q2 := reopenQueue(t, h, nvm.CrashPolicy{Mode: nvm.EvictNone})
	if _, err := th2.BlockSize(seg); err != nil {
		t.Fatalf("recovery freed the live tail segment: %v", err)
	}
	for off, want := range map[uint64]uint64{qOffTailSeg: seg.Loc() + 1, qOffTailIdx: 0, qOffPending: 0} {
		if got, err := th2.ReadU64(q2.Anchor(), off); err != nil || got != want {
			t.Fatalf("anchor +%d = %#x (%v), want %#x", off, got, err, want)
		}
	}
	if err := q2.Enqueue(th2, elem(999)); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i <= q.perSeg; i++ {
		want := i
		if i == q.perSeg {
			want = 999
		}
		out, ok, err := q2.Dequeue(th2)
		if err != nil || !ok || !bytes.Equal(out, elem(want)) {
			t.Fatalf("dequeue %d: %v %v %v", i, out, ok, err)
		}
	}
	if rep, err := h2.Check(); err != nil || !rep.OK() {
		t.Fatalf("heap check: %v %v", err, rep.Problems)
	}
}
