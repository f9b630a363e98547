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

// remoteOptions builds the heap geometry the differential schedule runs on:
// four sub-heaps so every worker has a distinct home shard and every free
// in the rotation is a cross-sub-heap free.
func remoteOptions(rings bool) core.Options {
	return core.Options{
		Subheaps:        4,
		SubheapUserSize: 256 << 10,
		SubheapMetaSize: 256 << 10,
		UndoLogSize:     64 << 10,
		MaxThreads:      8,
		HeapID:          0xD1FFE2,
		CrashTracking:   true,
		RemoteFreeRings: rings,
	}
}

// remoteEndState is the mode-independent fingerprint of a finished
// schedule. Block addresses are deliberately absent: drain timing changes
// reuse order, so addresses differ between modes while the logical heap
// content must not.
type remoteEndState struct {
	LiveSizes       map[int][]uint64 // shard → sorted live block sizes
	AllocatedBlocks uint64
	Frees           uint64
	DoubleFrees     uint64
	InvalidFrees    uint64
}

const (
	remoteWorkers = 4
	remoteRounds  = 6
	remoteBatch   = 24
)

// remoteSchedule runs the randomized multi-worker schedule on one heap and
// returns its fingerprint. Every worker is pinned to its own sub-heap; each
// round it frees the batch a *different* worker allocated in the previous
// round (all frees are therefore remote) and allocates a fresh batch whose
// sizes come from an rng seeded only by (round, worker) — so the operation
// set, and with it the end state, is independent of goroutine interleaving
// and of the rings/legacy mode under test.
func remoteSchedule(t *testing.T, rings bool) remoteEndState {
	t.Helper()
	h, err := core.Create(remoteOptions(rings))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	threads := make([]*core.Thread, remoteWorkers)
	for w := range threads {
		th, err := h.ThreadOn(w)
		if err != nil {
			t.Fatal(err)
		}
		threads[w] = th
	}

	prev := make([][]core.NVMPtr, remoteWorkers)
	for round := 0; round < remoteRounds; round++ {
		next := make([][]core.NVMPtr, remoteWorkers)
		var wg sync.WaitGroup
		errs := make([]error, remoteWorkers)
		for w := 0; w < remoteWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := threads[w]
				// Free the neighbour's previous batch: every pointer is
				// owned by another sub-heap.
				for _, p := range prev[(w+1)%remoteWorkers] {
					if err := th.Free(p); err != nil {
						errs[w] = fmt.Errorf("round %d worker %d free: %w", round, w, err)
						return
					}
				}
				rng := rand.New(rand.NewSource(int64(round)<<8 | int64(w)))
				batch := make([]core.NVMPtr, 0, remoteBatch)
				for i := 0; i < remoteBatch; i++ {
					// Even slots are committed TxAllocs, carved on the
					// locked path, so their remote frees reach the ring;
					// odd slots pop from the magazine, and their remote
					// frees go into the freeing worker's magazine.
					size := 64 + uint64(rng.Intn(1984))
					alloc := th.Alloc
					if i%2 == 0 {
						alloc = func(size uint64) (core.NVMPtr, error) { return th.TxAlloc(size, true) }
					}
					p, err := alloc(size)
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

	// Quiesce, then inject a deterministic error tail: three double frees
	// and one interior-pointer free, all remote, of committed TxAllocs so
	// they reach the ring. The rings path accepts them at enqueue time and
	// rejects them at drain; the legacy path rejects them synchronously —
	// the counters must agree regardless.
	if err := h.DrainRemoteFrees(); err != nil {
		t.Fatal(err)
	}
	victim, err := threads[0].TxAlloc(128, true)
	if err != nil {
		t.Fatal(err)
	}
	doomed := make([]core.NVMPtr, 3)
	for i := range doomed {
		if doomed[i], err = threads[0].TxAlloc(128, true); err != nil {
			t.Fatal(err)
		}
	}
	remote := threads[1]
	for _, p := range doomed {
		if err := remote.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.DrainRemoteFrees(); err != nil {
		t.Fatal(err)
	}
	for _, p := range doomed {
		if err := remote.Free(p); err != nil && !errors.Is(err, core.ErrDoubleFree) {
			t.Fatalf("injected double free: %v", err)
		}
	}
	interior := core.PtrFromLoc(h.HeapID(), victim.Loc()+64)
	if err := remote.Free(interior); err != nil && !errors.Is(err, core.ErrInvalidFree) {
		t.Fatalf("injected invalid free: %v", err)
	}
	if err := h.DrainRemoteFrees(); err != nil {
		t.Fatal(err)
	}

	// Fingerprint. The property layer first: every tracked live pointer
	// must still resolve to an allocated block of a sane class size.
	state := remoteEndState{LiveSizes: map[int][]uint64{}}
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
		t.Fatalf("audit (rings=%v): %v", rings, report.Problems)
	}
	if report.PendingRemote != 0 {
		t.Fatalf("audit (rings=%v): %d un-drained ring entries after quiesce",
			rings, report.PendingRemote)
	}
	st := h.Stats()
	if rings && st.RemoteFrees == 0 {
		t.Fatal("rings mode never used the remote-free ring")
	}
	if !rings && st.RemoteFrees != 0 {
		t.Fatalf("legacy mode used the ring %d times", st.RemoteFrees)
	}
	state.AllocatedBlocks = report.AllocatedBlocks
	state.Frees = st.Frees
	state.DoubleFrees = st.DoubleFrees
	state.InvalidFrees = st.InvalidFrees

	for _, th := range threads {
		th.Close()
	}
	return state
}

// TestRemoteFreeDifferential is the differential/property layer of the
// remote-free rings: the same randomized multi-worker schedule runs once
// with rings and once on the legacy locked path, and the two heaps must
// agree on every observable that defines heap content — live block
// multiset per sub-heap, allocated-block count from the fsck-style audit,
// and the accepted/rejected free counters. Run it under -race: the ring
// producers and the draining owner are exactly the cross-thread traffic
// the detector watches.
func TestRemoteFreeDifferential(t *testing.T) {
	legacy := remoteSchedule(t, false)
	ringed := remoteSchedule(t, true)

	if legacy.DoubleFrees != 3 || legacy.InvalidFrees != 1 {
		t.Fatalf("legacy injected-error counters: %+v", legacy)
	}
	if !reflect.DeepEqual(legacy, ringed) {
		t.Fatalf("end states diverge:\nlegacy: %+v\nrings:  %+v", legacy, ringed)
	}
}
