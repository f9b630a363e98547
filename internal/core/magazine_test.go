package core

import (
	"errors"
	"sync"
	"testing"

	"poseidon/internal/nvm"
	"poseidon/internal/plog"
)

// magOptions is testOptions with small per-thread magazines enabled.
func magOptions() Options {
	o := testOptions()
	o.Magazines = MagazineOptions{Capacity: 8, Classes: 4}
	return o
}

func newMagHeap(t *testing.T, opts Options) *Heap {
	t.Helper()
	h, err := Create(opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if !h.magsOn {
		t.Fatalf("magazines did not enable on a fresh image")
	}
	return h
}

// TestMagazineFastPathAllocFree is the tentpole happy path: after the first
// refill, small allocs pop from the magazine and same-shard frees push back,
// with no additional lock traffic, and the cache manifest always accounts
// for every cached block.
func TestMagazineFastPathAllocFree(t *testing.T) {
	h := newMagHeap(t, magOptions())
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}

	var ptrs []NVMPtr
	for i := 0; i < 6; i++ {
		p, err := th.Alloc(64)
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		ptrs = append(ptrs, p)
	}
	st := h.Stats()
	if st.MagazineHits != 6 {
		t.Fatalf("MagazineHits = %d, want 6", st.MagazineHits)
	}
	// A refill fills the class to capacity 8: 6 pops need 1 refill.
	if st.MagazineRefills != 1 {
		t.Fatalf("MagazineRefills = %d, want 1", st.MagazineRefills)
	}
	if st.Allocs != 6 {
		t.Fatalf("Allocs = %d, want 6", st.Allocs)
	}
	// 2 blocks still cached (8 carved, 6 popped) — visible in the audit.
	if rep := checkHeap(t, h); rep.PendingCached != 2 || !rep.OK() {
		t.Fatalf("mid-run audit: PendingCached = %d, problems = %v",
			rep.PendingCached, rep.Problems)
	}

	for i, p := range ptrs {
		if err := th.Free(p); err != nil {
			t.Fatalf("Free %d: %v", i, err)
		}
	}
	st = h.Stats()
	if st.MagazineHits != 12 {
		t.Fatalf("MagazineHits after frees = %d, want 12", st.MagazineHits)
	}
	if st.Frees != 6 {
		t.Fatalf("Frees = %d, want 6", st.Frees)
	}

	// Close flushes every cached block back; nothing may stay cached.
	th.Close()
	st = h.Stats()
	if st.MagazineFlushes == 0 {
		t.Fatalf("MagazineFlushes = 0 after Close, want > 0")
	}
	if rep := checkHeap(t, h); rep.PendingCached != 0 || rep.AllocatedBlocks != 0 {
		t.Fatalf("post-Close audit: PendingCached = %d, AllocatedBlocks = %d",
			rep.PendingCached, rep.AllocatedBlocks)
	}
	auditHeap(t, h)
}

// TestMagazineCrossThreadDoubleFree: a block cached in one thread's
// magazine is allocated on the device, so a free of it from ANOTHER thread
// must be rejected as a double free — accepted, it would put the block on
// the free list while the magazine still hands it out, and two threads
// would end up holding the same block.
func TestMagazineCrossThreadDoubleFree(t *testing.T) {
	opts := magOptions()
	opts.Subheaps = 1
	h := newMagHeap(t, opts)
	var threads [2]*Thread
	for i := range threads {
		th, err := h.ThreadOn(0)
		if err != nil {
			t.Fatal(err)
		}
		defer th.Close()
		threads[i] = th
	}
	b, err := threads[0].Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := threads[0].Free(b); err != nil {
		t.Fatal(err)
	}
	if err := threads[1].Free(b); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("free of a block cached in another thread's magazine = %v, want ErrDoubleFree", err)
	}
	held := map[NVMPtr]int{}
	for i := 0; i < 4; i++ {
		for w, th := range threads {
			p, err := th.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := held[p]; dup {
				t.Fatalf("block %v handed to thread %d while thread %d holds it", p, w, prev)
			}
			held[p] = w
		}
	}
	auditHeap(t, h)
}

// TestMagazineCrossShardFree: a shard-1 thread's free of a block a shard-0
// thread popped goes into the freeing thread's magazine, without the
// owner's lock or a commit. While the block sits there it is cached: the
// popping thread's free of it is a double free and the census leaves it
// out. The freeing thread's next Alloc of the class hands it out again
// under its owner's pointer, and Close returns every cached block to its
// owner's free list.
func TestMagazineCrossShardFree(t *testing.T) {
	h := newMagHeap(t, magOptions())
	t0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	t1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := t0.Alloc(64) // refills 8, pops 1: t0 caches 7
	if err != nil {
		t.Fatal(err)
	}
	before := h.Stats()
	if err := t1.Free(b); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.MagazineHits-before.MagazineHits != 1 || st.Commits != before.Commits {
		t.Fatalf("cross-shard free: %d magazine hits, %d commits; want 1 and 0",
			st.MagazineHits-before.MagazineHits, st.Commits-before.Commits)
	}
	if err := t0.Free(b); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("owner-shard free of a block cached on shard 1 = %v, want ErrDoubleFree", err)
	}
	census := func(cached, allocated uint64) {
		t.Helper()
		rep := checkHeap(t, h)
		if !rep.OK() || rep.PendingCached != cached || rep.AllocatedBlocks != allocated {
			t.Fatalf("census: %d cached, %d allocated, %v; want %d and %d",
				rep.PendingCached, rep.AllocatedBlocks, rep.Problems, cached, allocated)
		}
	}
	census(8, 0)
	p, err := t1.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if p != b || p.Subheap() != 0 {
		t.Fatalf("shard-1 Alloc after the free = %v, want the shard-0 block %v", p, b)
	}
	census(7, 1)

	// Leave both owners' blocks in t1's magazine: b in class 0, a refill
	// of its own in class 1.
	if err := t1.Free(b); err != nil {
		t.Fatal(err)
	}
	q, err := t1.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Free(q); err != nil {
		t.Fatal(err)
	}
	census(16, 0)
	t1.Close()
	census(7, 0)
	for _, p := range []NVMPtr{b, q} {
		if _, err := t0.BlockSize(p); !errors.Is(err, ErrBadPointer) {
			t.Fatalf("%v after Close: BlockSize = %v, want ErrBadPointer (free on its owner)", p, err)
		}
	}
}

// TestMagazineConcurrentFreeOfPoppedBlock races four frees of one popped
// block: two from threads on its shard and one from another shard (all
// three the magazine path), and one from a thread whose magazine is
// latched off (the locked path). Exactly one may succeed, every round;
// the block then sits in one magazine or on the free list, never both.
func TestMagazineConcurrentFreeOfPoppedBlock(t *testing.T) {
	h := newMagHeap(t, magOptions())
	var threads [4]*Thread
	for i := range threads {
		th, err := h.ThreadOn(i / 2) // two on shard 0, two on shard 1
		if err != nil {
			t.Fatal(err)
		}
		defer th.Close()
		threads[i] = th
	}
	threads[3].mag.disabled = true
	for round := 0; round < 200; round++ {
		p, err := threads[round%2].Alloc(64 << (round % 4))
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, len(threads))
		var wg sync.WaitGroup
		for _, th := range threads {
			wg.Add(1)
			go func(th *Thread) {
				defer wg.Done()
				errs <- th.Free(p)
			}(th)
		}
		wg.Wait()
		close(errs)
		ok := 0
		for err := range errs {
			switch {
			case err == nil:
				ok++
			case !errors.Is(err, ErrDoubleFree):
				t.Fatalf("round %d: free = %v, want nil or ErrDoubleFree", round, err)
			}
		}
		if ok != 1 {
			t.Fatalf("round %d: %d of %d racing frees of one block succeeded, want 1", round, ok, len(threads))
		}
	}
	rep := checkHeap(t, h)
	if !rep.OK() || rep.AllocatedBlocks != 0 {
		t.Fatalf("audit: %d blocks allocated (want 0), %v", rep.AllocatedBlocks, rep.Problems)
	}
}

// TestMagazinePersistBudget pins the magazine path's persistence cost from
// device-stat deltas on a warm heap. A magazine Alloc or Free persists one
// manifest word: 1 flush, 1 fence, no commit and no lock. A refill
// persists its batch's manifest entries (1 fence) and then its commit
// record (1 fence). An overflow flush-back commits each chunk (1 fence)
// and then clears the chunk's manifest words (1 fence); its 32 blocks fit
// one chunk here (TestMinimumLogSize splits one).
func TestMagazinePersistBudget(t *testing.T) {
	opts := testOptions()
	opts.DeviceStats = true
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	var ps []NVMPtr
	alloc := func() error {
		p, err := th.Alloc(256)
		if err == nil {
			ps = append(ps, p)
		}
		return err
	}
	free := func() error {
		p := ps[len(ps)-1]
		ps = ps[:len(ps)-1]
		return th.Free(p)
	}
	// Warm up: carve, split and index enough blocks that the measured
	// refill needs no pressure relief.
	for round := 0; round < 2; round++ {
		for range 200 {
			if err := alloc(); err != nil {
				t.Fatal(err)
			}
		}
		for len(ps) > 0 {
			if err := free(); err != nil {
				t.Fatal(err)
			}
		}
	}
	measure := func(what string, flushes, fences, commits uint64, op func() error) {
		t.Helper()
		for _, s := range h.subheaps {
			s.mutations = 1 // no mirror refresh inside the measured op
		}
		before, st := h.Device().StatsSnapshot(), h.Stats()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		after := h.Device().StatsSnapshot()
		if got := after.Flushes - before.Flushes; flushes != 0 && got != flushes {
			t.Errorf("%s: %d flushes, want %d", what, got, flushes)
		}
		if got := after.Fences - before.Fences; got != fences {
			t.Errorf("%s: %d fences, want %d", what, got, fences)
		}
		if got := h.Stats().Commits - st.Commits; got != commits {
			t.Errorf("%s: %d commits, want %d", what, got, commits)
		}
	}
	measure("Alloc", 1, 1, 0, alloc)
	measure("Free", 1, 1, 0, free)
	for len(th.mag.blocks[2]) > 0 {
		if err := alloc(); err != nil {
			t.Fatal(err)
		}
	}
	measure("Alloc with a refill (2 fences) and its pop", 0, 3, 1, alloc)
	for len(th.mag.blocks[2]) < th.mag.cap {
		if err := free(); err != nil {
			t.Fatal(err)
		}
	}
	measure("Free with a one-chunk overflow flush-back (2 fences) and its push", 0, 3, 1, free)

	// A shard-1 thread's free of a block th popped costs the same as a
	// same-shard one. Its stack then holds two owners' blocks, and an
	// overflow returns each owner's share in its own chunk.
	t1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	var mine, lent []NVMPtr
	for range 40 { // one refill of 64: 24 stay cached
		p, err := t1.Alloc(256)
		if err != nil {
			t.Fatal(err)
		}
		mine = append(mine, p)
	}
	for range 20 {
		if err := alloc(); err != nil {
			t.Fatal(err)
		}
		lent = append(lent, ps[len(ps)-1])
	}
	measure("cross-shard Free of a popped block", 1, 1, 0, func() error { return t1.Free(lent[0]) })
	for _, p := range append(lent[1:], mine[:20]...) {
		if err := t1.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	// The stack is full: 24 own, 20 foreign, 20 own. Its newest 32 hold
	// 12 foreign and 20 own blocks.
	measure("Free with a two-owner overflow flush-back (2 fences per owner) and its push", 0, 5, 2,
		func() error { return t1.Free(mine[20]) })
}

// TestMagazineOverflowFlush drives a class stack past capacity: the 9th
// push must flush half the magazine back to the sub-heap in one batch.
func TestMagazineOverflowFlush(t *testing.T) {
	h := newMagHeap(t, magOptions())
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()

	var ptrs []NVMPtr
	for i := 0; i < 12; i++ {
		p, err := th.Alloc(96) // class 1
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	// 12 pushes into a capacity-8 stack: at least one overflow flush.
	st := h.Stats()
	if st.MagazineFlushes == 0 {
		t.Fatalf("MagazineFlushes = 0 after 12 frees into capacity 8")
	}
	if rep := checkHeap(t, h); !rep.OK() {
		t.Fatalf("audit problems: %v", rep.Problems)
	}
	auditHeap(t, h)
}

// TestMagazineDoubleFreeDetected: freeing a block that is currently cached
// in this thread's magazine, pushed by a Free or put there by a refill, is
// the thread's own double free — rejected synchronously without touching
// the device.
func TestMagazineDoubleFreeDetected(t *testing.T) {
	h := newMagHeap(t, magOptions())
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()

	p, err := th.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(p); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("second Free = %v, want ErrDoubleFree", err)
	}
	// A block the refill cached and no pop handed out is cached as well.
	q := ptrFromWords(h.heapID, th.mag.blocks[0][0])
	if err := th.Free(q); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("Free of a block only the refill cached = %v, want ErrDoubleFree", err)
	}
	if st := h.Stats(); st.DoubleFrees != 2 {
		t.Fatalf("DoubleFrees = %d, want 2", st.DoubleFrees)
	}
	auditHeap(t, h)
}

// TestMagazineCrashRecovery crashes a thread with a part-popped magazine
// under both eviction extremes and verifies the crash-reclaim invariant:
// every pop is durable on return, so the popped blocks stay allocated, the
// still-cached ones come back, and the manifest is empty after recovery.
func TestMagazineCrashRecovery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy nvm.CrashPolicy
	}{
		{"EvictNone", nvm.CrashPolicy{Mode: nvm.EvictNone}},
		{"EvictAll", nvm.CrashPolicy{Mode: nvm.EvictAll}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newMagHeap(t, magOptions())
			th, err := h.ThreadOn(0)
			if err != nil {
				t.Fatal(err)
			}
			// 3 pops out of one refill batch of 8: the manifest durably
			// records the batch, and each pop durably clears its word.
			for i := 0; i < 3; i++ {
				if _, err := th.Alloc(64); err != nil {
					t.Fatal(err)
				}
			}
			// Crash WITHOUT Close: the magazine is abandoned mid-flight.
			if _, err := h.Device().Crash(tc.policy); err != nil {
				t.Fatal(err)
			}
			_ = h.Close()
			h2, err := Load(h.Device(), magOptions())
			if err != nil {
				t.Fatalf("Load after crash: %v", err)
			}
			st := h2.Stats()
			if st.RecoveredCached != 5 || st.RecoveredNoops != 0 {
				t.Fatalf("RecoveredCached = %d, RecoveredNoops = %d; want 5 and 0",
					st.RecoveredCached, st.RecoveredNoops)
			}
			rep := checkHeap(t, h2)
			if rep.PendingCached != 0 {
				t.Fatalf("PendingCached = %d after recovery, want 0", rep.PendingCached)
			}
			if rep.AllocatedBlocks != 3 {
				t.Fatalf("AllocatedBlocks = %d, want 3", rep.AllocatedBlocks)
			}
			if !rep.OK() {
				t.Fatalf("audit problems: %v", rep.Problems)
			}
			auditHeap(t, h2)
		})
	}
}

// TestMagazineLaneAdoption: a lane whose previous holder vanished without a
// Close flush-back still carries manifest entries; the next thread on that
// lane returns them to their sub-heaps before using the magazine.
func TestMagazineLaneAdoption(t *testing.T) {
	h := newMagHeap(t, magOptions())
	th1, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	laneI := th1.laneI
	// A block allocated through the LOCKED path (class 5 is beyond the
	// magazined classes) stays StatusAllocated on the device.
	p, err := th1.Alloc(2048)
	if err != nil {
		t.Fatal(err)
	}
	th1.Close()

	// Plant a manifest entry for it on the now-free lane, simulating a
	// holder that died after a refill.
	base := h.lay.laneManifestBase(laneI)
	h.grant(h.sbThread)
	if err := h.sbWin.WriteU64(base, plog.EncodeCacheEntry(p.Offset(), uint16(p.Subheap()))); err != nil {
		t.Fatal(err)
	}
	h.revoke(h.sbThread)

	th2, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th2.Close()
	if th2.laneI != laneI {
		t.Fatalf("lane pool recycled lane %d, expected %d", th2.laneI, laneI)
	}
	if th2.mag == nil || th2.mag.disabled {
		t.Fatalf("adopting thread's magazine is disabled")
	}
	// Adoption flushed the planted block back to its free list.
	rep := checkHeap(t, h)
	if rep.PendingCached != 0 || rep.AllocatedBlocks != 0 {
		t.Fatalf("post-adoption audit: PendingCached = %d, AllocatedBlocks = %d",
			rep.PendingCached, rep.AllocatedBlocks)
	}
	auditHeap(t, h)
}

// TestMagazineAdoptionClearsMarks: a thread that vanished without Close
// left cached blocks in its lane's manifest; the lane's next holder flushes
// them back, and their marks with them, so the blocks are plain free
// blocks again, not cached ones.
func TestMagazineAdoptionClearsMarks(t *testing.T) {
	h := newMagHeap(t, magOptions())
	th1, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := th1.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th1.Free(p); err != nil {
		t.Fatal(err)
	}
	cached := th1.mag.blocks[0]
	th1.closed = true // vanish: the lane goes back to the pool unflushed
	h.laneMu.Lock()
	h.freeLanes = append(h.freeLanes, th1.laneI)
	h.laneMu.Unlock()

	th2, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th2.Close()
	marks := h.subheaps[0].marks.Load()
	for _, rel := range cached {
		if m := marks.get(rel); m != markNone {
			t.Fatalf("adopted block %#x keeps mark %d", rel, m)
		}
	}
	if err := th2.Free(p); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("free of an adopted, flushed-back block = %v, want ErrDoubleFree", err)
	}
	if rep := checkHeap(t, h); !rep.OK() || rep.AllocatedBlocks != 0 || rep.PendingCached != 0 {
		t.Fatalf("post-adoption audit: %d allocated, %d cached, %v", rep.AllocatedBlocks, rep.PendingCached, rep.Problems)
	}
}

// TestRepairPrunesStaleMarks: Repair keeps the magazine marks of blocks
// still allocated after it and clears any other, so no free is routed by
// a mark its block no longer backs.
func TestRepairPrunesStaleMarks(t *testing.T) {
	h := newMagHeap(t, magOptions())
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	popped, err := th.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	free, err := th.TxAlloc(64, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(free); err != nil {
		t.Fatal(err)
	}
	s := h.subheaps[0]
	marks := s.marks.Load()
	marks.set(free.Offset(), markCached) // a mark no block backs
	s.mu.Lock()
	h.grant(s.thread)
	err = s.pruneMarks()
	h.revoke(s.thread)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if m := marks.get(free.Offset()); m != markNone {
		t.Fatalf("free block keeps mark %d", m)
	}
	if m := marks.get(popped.Offset()); m != markPopped {
		t.Fatalf("popped block's mark = %d, want %d", m, markPopped)
	}
	for _, rel := range th.mag.blocks[0] {
		if m := marks.get(rel); m != markCached {
			t.Fatalf("cached block %#x's mark = %d, want %d", rel, m, markCached)
		}
	}
	if err := th.Free(popped); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.MagazineHits != 2 {
		t.Fatalf("MagazineHits = %d, want 2: the popped block goes back into the magazine", st.MagazineHits)
	}
	auditHeap(t, h)
}

// TestMagazineAdoptionDisablesOnCorruption: an uncleanable manifest word
// latches the adopting thread's magazine off, leaves the evidence in place
// for the audit, and the thread still works through the locked path.
func TestMagazineAdoptionDisablesOnCorruption(t *testing.T) {
	h := newMagHeap(t, magOptions())
	th1, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	laneI := th1.laneI
	th1.Close()

	base := h.lay.laneManifestBase(laneI)
	h.grant(h.sbThread)
	if err := h.sbWin.WriteU64(base, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	h.revoke(h.sbThread)

	th2, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th2.Close()
	if th2.mag == nil || !th2.mag.disabled {
		t.Fatalf("magazine not disabled over a corrupt manifest word")
	}
	p, err := th2.Alloc(64) // locked path still serves
	if err != nil {
		t.Fatalf("Alloc with disabled magazine: %v", err)
	}
	if err := th2.Free(p); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.MagazineHits != 0 {
		t.Fatalf("MagazineHits = %d with disabled magazine, want 0", st.MagazineHits)
	}
	rep := checkHeap(t, h)
	if rep.OK() {
		t.Fatalf("audit did not flag the corrupt manifest word")
	}
}

// TestThreadOnLaneReadFaults arms read faults that outlast the retries.
// Over a lane's cache manifest, ThreadOn must still succeed on that lane,
// with its magazine latched off. Over its micro log, every ThreadOn must
// fail and give the lane back: more failures than the heap has lanes must
// leave it to the first ThreadOn after the faults end.
func TestThreadOnLaneReadFaults(t *testing.T) {
	h := newMagHeap(t, magOptions())
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	lane := th.laneI
	th.Close()

	h.Device().ArmTransientFaults(nvm.TransientFaults{Off: h.lay.laneManifestBase(lane), Len: 8 * h.lay.magSlots, Reads: true})
	th, err = h.ThreadOn(0)
	h.Device().DisarmTransientFaults()
	if err != nil {
		t.Fatalf("manifest unreadable: ThreadOn: %v", err)
	}
	if th.laneI != lane || th.mag == nil || !th.mag.disabled {
		t.Fatalf("manifest unreadable: ThreadOn took lane %d (want %d), magazine %+v; want it disabled", th.laneI, lane, th.mag)
	}
	th.Close()

	h.Device().ArmTransientFaults(nvm.TransientFaults{Off: h.lay.laneBase(lane), Len: h.lay.laneSize, Reads: true})
	for i := range h.lay.laneCount + 1 {
		if th, err := h.ThreadOn(0); err == nil {
			t.Fatalf("micro log unreadable: ThreadOn %d succeeded on lane %d; the lane was not given back", i, th.laneI)
		}
	}
	h.Device().DisarmTransientFaults()
	if th, err = h.ThreadOn(0); err != nil {
		t.Fatalf("after the faults: ThreadOn: %v", err)
	}
	if th.laneI != lane {
		t.Fatalf("after the faults: ThreadOn took lane %d, want %d", th.laneI, lane)
	}
	th.Close()
}

// TestMagazineGeometryTooBigDisables: an image provisioned with the default
// manifest arena cannot host a larger-than-provisioned magazine geometry —
// the heap opens fine with magazines off.
func TestMagazineGeometryTooBigDisables(t *testing.T) {
	h, err := Create(testOptions()) // provisions defaultMagSlots words/lane
	if err != nil {
		t.Fatal(err)
	}
	dev := h.Device()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	big := testOptions()
	big.Magazines = MagazineOptions{Capacity: 4096, Classes: 16} // 65536 > 512
	h2, err := Load(dev, big)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if h2.magsOn {
		t.Fatalf("magazines enabled beyond the provisioned manifest arena")
	}
	th, err := h2.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	if th.mag != nil {
		t.Fatalf("thread got a magazine on a mags-off heap")
	}
	if _, err := th.Alloc(64); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
}

// TestMagazineEnableOnExistingImage: an image formatted with the default
// sizing reopens with any sizing that fits its manifest arena, without a
// reformat.
func TestMagazineEnableOnExistingImage(t *testing.T) {
	h, err := Create(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	dev := h.Device()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := Load(dev, magOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !h2.magsOn || h2.magCap != 8 || h2.magClasses != 4 {
		t.Fatalf("magazines on: %v at %d x %d on reopen, want 8 x 4", h2.magsOn, h2.magCap, h2.magClasses)
	}
	th, err := h2.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	if _, err := th.Alloc(64); err != nil {
		t.Fatal(err)
	}
	if st := h2.Stats(); st.MagazineHits != 1 {
		t.Fatalf("MagazineHits = %d, want 1", st.MagazineHits)
	}
	auditHeap(t, h2)
}

// TestClosedThreadAccessors is the regression test for the missing
// closed-thread guard: every data accessor must fail with ErrClosed instead
// of silently operating through the stale window.
func TestClosedThreadAccessors(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	p, err := th.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	th.Close()

	buf := make([]byte, 8)
	if err := th.Write(p, 0, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write on closed thread = %v, want ErrClosed", err)
	}
	if err := th.Read(p, 0, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read on closed thread = %v, want ErrClosed", err)
	}
	if err := th.WriteU64(p, 0, 7); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteU64 on closed thread = %v, want ErrClosed", err)
	}
	if _, err := th.ReadU64(p, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadU64 on closed thread = %v, want ErrClosed", err)
	}
	if err := th.Persist(p, 0, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("Persist on closed thread = %v, want ErrClosed", err)
	}
	if err := th.Flush(p, 0, 8); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush on closed thread = %v, want ErrClosed", err)
	}
	if _, err := th.BlockSize(p); !errors.Is(err, ErrClosed) {
		t.Fatalf("BlockSize on closed thread = %v, want ErrClosed", err)
	}
}
