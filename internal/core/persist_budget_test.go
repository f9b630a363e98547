package core

import (
	"fmt"
	"testing"
)

// TestLockedOpPersistBudget pins the persistence cost of the locked hot
// path exactly, from device-stat deltas on a warm heap whose magazines
// stop below the 256-byte class: a plain Alloc and a
// Free are one commit each — a two-line record and one fence, then three
// applied lines without one: 5 flushes, 1 fence. A TxAlloc adds its
// micro-log append's flush and fence before the record, and a final one
// the truncating epoch bump's. The op that lands on the mirrorInterval-th
// commit also writes one mirror generation: one fence and the slot image's
// lines, 5 at the 1 MiB test geometry (15 size classes) and 6 at the 16
// and 64 MiB sub-heaps the benchmark runs (19 and 21 classes).
func TestLockedOpPersistBudget(t *testing.T) {
	for _, geo := range []struct {
		user, mirrorLines uint64
	}{{1 << 20, 5}, {16 << 20, 6}, {64 << 20, 6}} {
		t.Run(fmt.Sprintf("%dMiB", geo.user>>20), func(t *testing.T) {
			opts := testOptions()
			opts.DeviceStats = true
			opts.SubheapUserSize = geo.user
			opts.Magazines = MagazineOptions{Classes: 2}
			h, err := Create(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			th := newThread(t, h)
			defer th.Close()

			// Warm up: the 256-byte class has a free block that needs no
			// split.
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
			p, err := th.Alloc(256)
			if err != nil {
				t.Fatal(err)
			}
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}

			s := h.subheaps[th.Shard()]
			measure := func(what string, refresh bool, flushes, fences uint64, op func() error) {
				t.Helper()
				s.mutations = 1 // the next mirror refresh is mirrorInterval-1 ops away
				if refresh {
					s.mutations = mirrorInterval - 1
				}
				before := h.Device().StatsSnapshot()
				if err := op(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				after := h.Device().StatsSnapshot()
				if got := after.Flushes - before.Flushes; got != flushes {
					t.Errorf("%s: %d flushes, want %d", what, got, flushes)
				}
				if got := after.Fences - before.Fences; got != fences {
					t.Errorf("%s: %d fences, want %d", what, got, fences)
				}
			}
			alloc := func() (err error) {
				p, err = th.Alloc(256)
				return err
			}
			free := func() error { return th.Free(p) }
			measure("Alloc(256)", false, 5, 1, alloc)
			measure("Free", false, 5, 1, free)
			measure("Alloc(256) with mirror refresh", true, 5+geo.mirrorLines, 2, alloc)
			measure("Free", false, 5, 1, free)
			measure("TxAlloc(256, isEnd=false)", false, 6, 2, func() error {
				_, err := th.TxAlloc(256, false)
				return err
			})
			// The class's last free block: its list's head and tail share
			// one line, so two applied lines.
			measure("TxAlloc(256, isEnd=true)", false, 6, 3, func() error {
				_, err := th.TxAlloc(256, true)
				return err
			})
		})
	}
}

// TestSetRootPersistBudget pins a warm SetRoot exactly: it writes the root
// record's two slots, each a one-line image flushed and fenced on its own,
// so 2 flushes and 2 fences.
func TestSetRootPersistBudget(t *testing.T) {
	opts := testOptions()
	opts.DeviceStats = true
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	th := newThread(t, h)
	defer th.Close()
	var ptrs [2]NVMPtr
	for i := range ptrs {
		if ptrs[i], err = th.Alloc(64); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.SetRoot(ptrs[0]); err != nil {
		t.Fatal(err)
	}
	before := h.Device().StatsSnapshot()
	if err := h.SetRoot(ptrs[1]); err != nil {
		t.Fatal(err)
	}
	after := h.Device().StatsSnapshot()
	if f, n := after.Flushes-before.Flushes, after.Fences-before.Fences; f != 2 || n != 2 {
		t.Errorf("SetRoot: %d flushes, %d fences; want 2 and 2", f, n)
	}
}

// TestWarmPathsAllocateNothing pins zero Go heap allocations on the warm
// paths, with magazines stopping below 256 B as in
// TestLockedOpPersistBudget: a locked Alloc(256) and its Free, a
// TxAlloc(256, true) and its Free, and a magazine Alloc(64) and its Free.
func TestWarmPathsAllocateNothing(t *testing.T) {
	opts := testOptions()
	opts.Magazines = MagazineOptions{Classes: 2}
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	th := newThread(t, h)
	defer th.Close()
	for _, c := range []struct {
		name  string
		alloc func() (NVMPtr, error)
	}{
		{"Alloc(256)", func() (NVMPtr, error) { return th.Alloc(256) }},
		{"TxAlloc(256, true)", func() (NVMPtr, error) { return th.TxAlloc(256, true) }},
		{"magazine Alloc(64)", func() (NVMPtr, error) { return th.Alloc(64) }},
	} {
		pair := func() {
			p, err := c.alloc()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if err := th.Free(p); err != nil {
				t.Fatalf("%s: Free: %v", c.name, err)
			}
		}
		if n := testing.AllocsPerRun(100, pair); n != 0 {
			t.Errorf("%s and Free: %.2f allocations per pair, want 0", c.name, n)
		}
	}
}
