package core

import "testing"

// TestLockedOpPersistBudget pins the persistence cost of the locked hot
// path exactly, from device-stat deltas on a warm heap outside a mirror
// refresh: a plain Alloc and a Free are one undo transaction each (seal,
// apply, truncate: 3 fences), and a non-final TxAlloc adds the micro-log
// append's 2 fences to that.
func TestLockedOpPersistBudget(t *testing.T) {
	opts := testOptions()
	opts.DeviceStats = true
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	th := newThread(t, h)
	defer th.Close()

	// Warm up: every log has taken its one-time format seal and the
	// 256-byte class has blocks to hand out.
	for i := 0; i < 8; i++ {
		p, err := th.Alloc(256)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
		if _, err := th.TxAlloc(256, true); err != nil {
			t.Fatal(err)
		}
	}

	s := h.subheaps[th.Shard()]
	measure := func(what string, fences uint64, op func() error) {
		t.Helper()
		s.mutations = 1 // the next mirror refresh is mirrorInterval-1 ops away
		before := h.Device().StatsSnapshot()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		after := h.Device().StatsSnapshot()
		if got := after.Fences - before.Fences; got != fences {
			t.Errorf("%s: %d fences, want %d", what, got, fences)
		}
	}
	var p NVMPtr
	measure("Alloc(256)", 3, func() (err error) {
		p, err = th.Alloc(256)
		return err
	})
	measure("Free", 3, func() error { return th.Free(p) })
	measure("TxAlloc(256, isEnd=false)", 5, func() (err error) {
		_, err = th.TxAlloc(256, false)
		return err
	})
}
