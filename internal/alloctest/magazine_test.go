package alloctest

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"poseidon/internal/core"
)

// magazineOptions builds the heap geometry the magazine differential
// schedule runs on: two sub-heaps shared by four workers, so concurrent
// refill carves and overflow flush-backs contend on the same sub-heap
// locks while every worker's fast path stays thread-local. Without mags
// only the 64-byte class is magazined, so all but the schedule's rare
// 64-byte requests take the locked path.
func magazineOptions(mags bool) core.Options {
	o := core.Options{
		Subheaps:        2,
		SubheapUserSize: 512 << 10,
		SubheapMetaSize: 256 << 10,
		UndoLogSize:     64 << 10,
		MaxThreads:      8,
		HeapID:          0x3A6A21,
		CrashTracking:   true,
		Magazines:       core.MagazineOptions{Capacity: 8, Classes: 1},
	}
	if mags {
		o.Magazines.Classes = 4
	}
	return o
}

// magEndState is the mode-independent fingerprint of a finished schedule.
// Block addresses are deliberately absent: magazine caching changes carve
// and reuse order, so addresses differ between modes while the logical
// heap content must not.
type magEndState struct {
	LiveSizes       map[int][]uint64 // shard → sorted live block sizes
	AllocatedBlocks uint64
	Allocs          uint64
	Frees           uint64
	DoubleFrees     uint64
	InvalidFrees    uint64
}

const (
	magWorkers = 4
	magRounds  = 6
	magBatch   = 24
)

// magazineSchedule runs the randomized multi-worker schedule on one heap
// and returns its fingerprint. Each worker frees its OWN previous batch —
// every free is same-shard, the magazine fast path — with sizes drawn from
// an rng seeded only by (round, worker), spanning both magazined and
// non-magazined classes, so the operation set (and the end state) is
// independent of goroutine interleaving and of the mode under test.
func magazineSchedule(t *testing.T, mags bool) magEndState {
	t.Helper()
	h, err := core.Create(magazineOptions(mags))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	threads := make([]*core.Thread, magWorkers)
	for w := range threads {
		th, err := h.ThreadOn(w % 2)
		if err != nil {
			t.Fatal(err)
		}
		threads[w] = th
	}

	prev := make([][]core.NVMPtr, magWorkers)
	for round := 0; round < magRounds; round++ {
		next := make([][]core.NVMPtr, magWorkers)
		var wg sync.WaitGroup
		errs := make([]error, magWorkers)
		for w := 0; w < magWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := threads[w]
				for _, p := range prev[w] {
					if err := th.Free(p); err != nil {
						errs[w] = fmt.Errorf("round %d worker %d free: %w", round, w, err)
						return
					}
				}
				rng := rand.New(rand.NewSource(int64(round)<<8 | int64(w)))
				batch := make([]core.NVMPtr, 0, magBatch)
				for i := 0; i < magBatch; i++ {
					// 64..1023 bytes: classes 0..3 ride the magazine,
					// class 4 takes the locked path.
					p, err := th.Alloc(64 + uint64(rng.Intn(960)))
					if err != nil {
						errs[w] = fmt.Errorf("round %d worker %d alloc %d: %w", round, w, i, err)
						return
					}
					batch = append(batch, p)
				}
				next[w] = batch
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		prev = next
	}

	// Deterministic error tail: three double frees and one interior-pointer
	// free, all same-shard. The magazine path rejects a still-cached double
	// free from its block marks; the locked path rejects it off the device
	// record — the counters must agree regardless.
	doomed := make([]core.NVMPtr, 3)
	for i := range doomed {
		if doomed[i], err = threads[0].Alloc(128); err != nil {
			t.Fatal(err)
		}
	}
	victim, err := threads[0].Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range doomed {
		if err := threads[0].Free(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range doomed {
		if err := threads[0].Free(p); !errors.Is(err, core.ErrDoubleFree) {
			t.Fatalf("injected double free: %v", err)
		}
	}
	interior := core.PtrFromLoc(h.HeapID(), victim.Loc()+64)
	if err := threads[0].Free(interior); !errors.Is(err, core.ErrInvalidFree) {
		t.Fatalf("injected invalid free: %v", err)
	}

	state := magEndState{LiveSizes: map[int][]uint64{}}
	record := func(p core.NVMPtr) {
		size, err := threads[0].BlockSize(p)
		if err != nil {
			t.Fatalf("live block %v lost: %v", p, err)
		}
		if size < 64 || size&(size-1) != 0 {
			t.Fatalf("live block %v has non-class size %d", p, size)
		}
		sh := int(p.Subheap())
		state.LiveSizes[sh] = append(state.LiveSizes[sh], size)
	}
	for _, batch := range prev {
		for _, p := range batch {
			record(p)
		}
	}
	record(victim)
	for _, sizes := range state.LiveSizes {
		sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	}

	report, err := h.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("audit (mags=%v): %v", mags, report.Problems)
	}
	st := h.Stats()
	if mags && st.MagazineHits == 0 {
		t.Fatal("magazine mode never hit the fast path")
	}
	state.AllocatedBlocks = report.AllocatedBlocks
	state.Allocs = st.Allocs
	state.Frees = st.Frees
	state.DoubleFrees = st.DoubleFrees
	state.InvalidFrees = st.InvalidFrees

	for _, th := range threads {
		th.Close()
	}
	if report, err = h.Check(); err != nil || !report.OK() || report.PendingCached != 0 ||
		report.AllocatedBlocks != state.AllocatedBlocks {
		t.Fatalf("audit after Close (mags=%v): %v, %d cached entries, %d allocated (want %d), %v",
			mags, err, report.PendingCached, report.AllocatedBlocks, state.AllocatedBlocks, report.Problems)
	}
	return state
}

// TestMagazineDifferential is the differential/property layer of the
// per-thread magazines: the same randomized multi-worker schedule runs
// once with magazines and once on the locked path, and the two heaps must
// agree on every observable that defines heap content — live block
// multiset per sub-heap, allocated-block count from the fsck-style audit
// with the magazines still full, and the accepted/rejected operation
// counters. Run it under -race:
// concurrent refills and flush-backs on shared sub-heaps are exactly the
// cross-thread traffic the detector watches.
func TestMagazineDifferential(t *testing.T) {
	legacy := magazineSchedule(t, false)
	magged := magazineSchedule(t, true)

	if legacy.DoubleFrees != 3 || legacy.InvalidFrees != 1 {
		t.Fatalf("legacy injected-error counters: %+v", legacy)
	}
	if !reflect.DeepEqual(legacy, magged) {
		t.Fatalf("end states diverge:\nlegacy:    %+v\nmagazines: %+v", legacy, magged)
	}
}
