package core

import (
	"fmt"
	"testing"
)

// TestLockedOpPersistBudget pins the persistence cost of the locked hot
// path exactly, from device-stat deltas on a warm heap: a plain Alloc and a
// Free are one undo transaction each (seal, apply, truncate: 7 flushes, 3
// fences), and a non-final TxAlloc adds the micro-log append's 2 flushes
// and 2 fences to that. The op that lands on the mirrorInterval-th commit
// also writes one mirror generation: one fence and the slot image's lines,
// 5 at the 1 MiB test geometry (15 size classes) and 6 at the 16 and
// 64 MiB sub-heaps the benchmark runs (19 and 21 classes).
func TestLockedOpPersistBudget(t *testing.T) {
	for _, geo := range []struct {
		user, mirrorLines uint64
	}{{1 << 20, 5}, {16 << 20, 6}, {64 << 20, 6}} {
		t.Run(fmt.Sprintf("%dMiB", geo.user>>20), func(t *testing.T) {
			opts := testOptions()
			opts.DeviceStats = true
			opts.SubheapUserSize = geo.user
			h, err := Create(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			th := newThread(t, h)
			defer th.Close()

			// Warm up: every log has taken its one-time format seal and the
			// 256-byte class has a free block that needs no split.
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
			measure("Alloc(256)", false, 7, 3, alloc)
			measure("Free", false, 7, 3, free)
			measure("Alloc(256) with mirror refresh", true, 7+geo.mirrorLines, 4, alloc)
			measure("Free", false, 7, 3, free)
			measure("TxAlloc(256, isEnd=false)", false, 9, 5, func() error {
				_, err := th.TxAlloc(256, false)
				return err
			})
		})
	}
}
