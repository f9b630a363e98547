package pstruct

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"poseidon"
	"poseidon/internal/core"
	"poseidon/internal/nvm"
)

// These sweeps kill the device at EVERY store boundary of a structure
// operation, crash with adversarial eviction, recover the heap and the
// structure, and assert the operation was atomic: fully applied or fully
// rolled back, with no leaked or dangling node at any crash point.

func reopenList(t *testing.T, h *poseidon.Heap, seed int64) (*poseidon.Heap, *poseidon.Thread, *List) {
	t.Helper()
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.5, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	ch, err := core.Load(h.Device(), core.Options{CrashTracking: true})
	if err != nil {
		t.Fatalf("heap recovery: %v", err)
	}
	h2 := facade(t, ch)
	th, err := h2.Thread()
	if err != nil {
		t.Fatal(err)
	}
	root, err := h2.Root()
	if err != nil {
		t.Fatal(err)
	}
	l, err := OpenList(th, root)
	if err != nil {
		t.Fatalf("list recovery: %v", err)
	}
	return h2, th, l
}

func TestListPushCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is slow")
	}
	for budget := int64(1); budget < 40; budget++ {
		budget := budget
		t.Run(fmt.Sprintf("failAfter=%d", budget), func(t *testing.T) {
			h, th := newHeapThread(t)
			l, err := NewList(th)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.PushFront(th, []byte("base")); err != nil {
				t.Fatal(err)
			}
			if err := h.SetRoot(l.Anchor()); err != nil {
				t.Fatal(err)
			}
			h.Device().FailAfter(budget)
			pushErr := l.PushFront(th, []byte("new!"))
			h.Device().DisarmFailpoint()
			th.Close()

			_, th2, l2 := reopenList(t, h, budget*131)
			defer th2.Close()
			n, err := l2.Len(th2)
			if err != nil {
				t.Fatal(err)
			}
			var items []string
			if err := l2.Walk(th2, func(d []byte) bool {
				items = append(items, string(d))
				return true
			}); err != nil {
				t.Fatalf("walk after crash: %v", err)
			}
			switch {
			case pushErr == nil:
				// The push completed before the budget ran out — wait: the
				// device may have died after the publish; either way the
				// walk must be consistent with the length.
				if len(items) != int(n) {
					t.Fatalf("len %d vs walk %d", n, len(items))
				}
			case errors.Is(pushErr, nvm.ErrDeviceFailed):
				// Torn push: the list must hold either just "base" or
				// "new!"+"base" — nothing else, in order.
				switch len(items) {
				case 1:
					if items[0] != "base" {
						t.Fatalf("items = %v", items)
					}
				case 2:
					if items[0] != "new!" || items[1] != "base" {
						t.Fatalf("items = %v", items)
					}
				default:
					t.Fatalf("items = %v", items)
				}
				if int(n) != len(items) {
					t.Fatalf("len %d vs walk %d", n, len(items))
				}
			default:
				t.Fatalf("push error: %v", pushErr)
			}
			// The heap itself is consistent (no leaked/dangling node
			// would survive Check + a further push).
			if err := l2.PushFront(th2, []byte("after")); err != nil {
				t.Fatalf("push after recovery: %v", err)
			}
		})
	}
}

// reopenQueue crashes the device under policy, recovers the heap and
// reattaches the queue anchored at the root.
func reopenQueue(t *testing.T, h *poseidon.Heap, policy nvm.CrashPolicy) (*poseidon.Heap, *poseidon.Thread, *Queue) {
	t.Helper()
	if _, err := h.Device().Crash(policy); err != nil {
		t.Fatal(err)
	}
	ch, err := core.Load(h.Device(), core.Options{CrashTracking: true})
	if err != nil {
		t.Fatalf("heap recovery: %v", err)
	}
	h2 := facade(t, ch)
	th, err := h2.Thread()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(th.Close)
	root, err := h2.Root()
	if err != nil {
		t.Fatal(err)
	}
	q, err := OpenQueue(th, root)
	if err != nil {
		t.Fatalf("queue recovery: %v", err)
	}
	return h2, th, q
}

func TestQueueEnqueueCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is slow")
	}
	for budget := int64(1); budget < 50; budget++ {
		t.Run(fmt.Sprintf("failAfter=%d", budget), func(t *testing.T) {
			// The random seed plus the three deterministic extremes, so the
			// coverage does not hinge on which store a budget stops at.
			for name, policy := range map[string]nvm.CrashPolicy{
				"random": {Mode: nvm.EvictRandom, Prob: 0.5, Seed: budget * 37},
				"none":   {Mode: nvm.EvictNone},
				"all":    {Mode: nvm.EvictAll},
				"torn":   {Mode: nvm.EvictTorn, Prob: 0.5, Seed: budget * 37},
			} {
				t.Run(name, func(t *testing.T) { queueEnqueueCrashPoint(t, budget, policy) })
			}
		})
	}
}

// queueEnqueueCrashPoint fills one segment, kills the device budget stores
// into the growing enqueue, crashes under policy and checks the recovered
// queue holds the prefix, optionally followed by the new element.
func queueEnqueueCrashPoint(t *testing.T, budget int64, policy nvm.CrashPolicy) {
	h, th := newHeapThread(t)
	q, err := NewQueue(th, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetRoot(q.Anchor()); err != nil {
		t.Fatal(err)
	}
	// Fill the first segment completely so the probed enqueue exercises the
	// grow protocol too.
	for i := uint64(0); i < q.perSeg; i++ {
		if err := q.Enqueue(th, elem(i)); err != nil {
			t.Fatal(err)
		}
	}
	h.Device().FailAfter(budget)
	enqErr := q.Enqueue(th, elem(7777))
	h.Device().DisarmFailpoint()
	th.Close()

	h2, th2, q2 := reopenQueue(t, h, policy)
	// Drain: the prefix must be exactly 0..perSeg-1, optionally followed by
	// 7777 iff the torn enqueue published.
	var got []uint64
	for {
		out, ok, err := q2.Dequeue(th2)
		if err != nil {
			t.Fatalf("dequeue after crash: %v", err)
		}
		if !ok {
			break
		}
		if len(out) != 16 {
			t.Fatalf("short element")
		}
		got = append(got, binary.LittleEndian.Uint64(out))
	}
	// A failed enqueue may or may not have published; a completed one must
	// have.
	if n := len(got); n != int(q.perSeg)+1 && (n != int(q.perSeg) || enqErr == nil) {
		t.Fatalf("drained %d elements (budget %d, enqErr %v)", n, budget, enqErr)
	}
	for i := 0; i < int(q.perSeg) && i < len(got); i++ {
		if got[i] != uint64(i) {
			t.Fatalf("element %d = %d — FIFO order broken", i, got[i])
		}
	}
	if len(got) > int(q.perSeg) && got[q.perSeg] != 7777 {
		t.Fatalf("published element = %d", got[q.perSeg])
	}
	// Queue still functional, and the heap agrees nothing leaked or
	// dangles.
	if err := q2.Enqueue(th2, elem(1)); err != nil {
		t.Fatalf("enqueue after recovery: %v", err)
	}
	if rep, err := h2.Check(); err != nil || !rep.OK() {
		t.Fatalf("heap check after recovery: %v %v", err, rep.Problems)
	}
}
