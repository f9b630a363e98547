package alloctest

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"poseidon/internal/core"
)

// remoteOptions builds the heap geometry the schedule runs on: four
// sub-heaps so every worker has a distinct home shard and every free in the
// rotation is a cross-sub-heap free.
func remoteOptions() core.Options {
	return core.Options{
		Subheaps:        4,
		SubheapUserSize: 256 << 10,
		SubheapMetaSize: 256 << 10,
		UndoLogSize:     64 << 10,
		MaxThreads:      8,
		HeapID:          0xD1FFE2,
		CrashTracking:   true,
	}
}

const (
	remoteWorkers = 4
	remoteRounds  = 6
	remoteBatch   = 24
)

// TestRemoteFreeDifferential runs a randomized multi-worker schedule of
// cross-sub-heap frees. Every worker is pinned to its own sub-heap; each
// round it frees the batch a *different* worker allocated in the previous
// round (all frees are therefore remote) and allocates a fresh batch whose
// sizes come from an rng seeded only by (round, worker) — so the
// operation set, and with it the end state, is independent of goroutine
// interleaving. Half the blocks are committed TxAllocs, whose frees take
// the owner's lock; the other half are popped, and their frees go into the
// freeing worker's magazine. An injected tail of three double frees and
// one interior-pointer free must each return its error from Free. The end
// state must hold every live block at a class size, audit clean with
// exactly those blocks allocated, and count the injected rejects. Run it
// under -race: the cross-shard frees and magazine flush-backs are exactly
// the cross-thread traffic the detector watches.
func TestRemoteFreeDifferential(t *testing.T) {
	h, err := core.Create(remoteOptions())
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
					// locked path, so their remote frees take the owner's
					// lock; odd slots pop from the magazine, and their
					// remote frees go into the freeing worker's magazine.
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

	// Inject a deterministic error tail: three double frees and one
	// interior-pointer free, all remote, of committed TxAllocs, so each
	// takes the owner's lock and must return its error from Free.
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
	for _, p := range doomed {
		if err := remote.Free(p); !errors.Is(err, core.ErrDoubleFree) {
			t.Fatalf("injected double free = %v, want ErrDoubleFree", err)
		}
	}
	interior := core.PtrFromLoc(h.HeapID(), victim.Loc()+64)
	if err := remote.Free(interior); !errors.Is(err, core.ErrInvalidFree) {
		t.Fatalf("injected invalid free = %v, want ErrInvalidFree", err)
	}

	// Every tracked live pointer must still resolve to an allocated block
	// of a sane class size, and they must be exactly the blocks the audit
	// counts (magazine-cached blocks are not in its census).
	live := uint64(0)
	record := func(p core.NVMPtr) {
		size, err := threads[0].BlockSize(p)
		if err != nil {
			t.Fatalf("live block %v lost: %v", p, err)
		}
		if size < 64 || size&(size-1) != 0 {
			t.Fatalf("live block %v has non-class size %d", p, size)
		}
		live++
	}
	for _, batch := range prev {
		for _, p := range batch {
			record(p)
		}
	}
	record(victim)

	report, err := h.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("audit: %v", report.Problems)
	}
	if report.AllocatedBlocks != live {
		t.Fatalf("audit counts %d allocated blocks, the schedule holds %d", report.AllocatedBlocks, live)
	}
	if st := h.Stats(); st.DoubleFrees != 3 || st.InvalidFrees != 1 {
		t.Fatalf("DoubleFrees = %d, InvalidFrees = %d; want the injected 3, 1", st.DoubleFrees, st.InvalidFrees)
	}
	for _, th := range threads {
		th.Close()
	}
}
