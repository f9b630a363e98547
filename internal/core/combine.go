package core

// Flat-combining commit batching (Options.CombinedCommits).
//
// Under contention the locked sub-heap paths serialize on mu and pay the
// full undo discipline — seal (flushes+one fence), apply+flush+fence,
// truncate (flush+fence) — once per operation. Flat combining turns that
// queue into a group: a thread that fails to take mu publishes its op
// descriptor into a DRAM combining array and spins on a per-op done flag,
// while the lock holder drains the array and executes every pending op as
// one critical section. Without contention (TryLock succeeds, array empty)
// an op runs the legacy locked body unchanged — combining only engages, and
// only costs, when threads actually collide. All ops stage into chained per-op batches (later
// ops read earlier ops' staged state), then txn.CommitGroup lands the whole
// group with ONE seal, cache-line-deduplicated flushes, ONE fence, every
// micro-log hook, and ONE truncate — fences per contended op drop from ~3
// toward ~3/k at combine width k.
//
// Group atomicity is safe because no combined op reports success before the
// group's single truncate: a crash anywhere before it replays the undo log
// and reverts every op in the group, and since none of them was observable
// yet, all-or-nothing across the group is indistinguishable from the ops
// never having run. Recovery replays the existing undo log unchanged.
//
// Failure handling inside a group:
//   - Validation rejects (invalid/double free, bad size) are detected at
//     stage time against the chained view and complete in-group with the
//     error as their result — nothing of theirs was staged.
//   - An op whose staging fails for any other reason (space or table
//     pressure, device errors) is dropped from the group — its batch is
//     aborted, the free-mask bits it cleared are restored — and re-run solo
//     through the legacy per-op path with the full pressure ladder after
//     the group commits (counted in CombineFallbacks).
//   - A failed group commit replays the undo log (reverting the whole
//     group), reseeds the free mask, and re-runs every unreported op solo
//     in group order: per-op transactions can fit where the group did not
//     (e.g. an undo log too small for the merged batch).

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
	"poseidon/internal/txn"
)

const (
	// combineSlots is the combining-array capacity. Publishers that find
	// every slot taken fall back to a blocking lock acquisition, so the
	// array bounds group size, not concurrency.
	combineSlots = 16
	// combineMaxPasses bounds how many consecutive groups one leader
	// executes before unlocking, so a continuous publish stream cannot
	// starve the leader's own caller forever.
	combineMaxPasses = 4
	// combineSpinLimit bounds a waiter's optimistic spin. On free cores a
	// leader drains groups in microseconds, well inside the limit; when
	// cores are oversubscribed, spinning steals the CPU the leader needs,
	// so past the limit the waiter parks on the mutex instead (its op stays
	// published, typically reaching done while the waiter blocks).
	combineSpinLimit = 128
)

type combineOpKind uint8

const (
	combAlloc combineOpKind = iota
	combFree
)

// combineOp is one published operation descriptor. The publisher owns every
// field until it wins a CAS into the combining array (or hands the op to
// leadLocked directly); from then the leader owns the descriptor until it
// stores done, after which ownership returns to the publisher. done is the
// only field accessed concurrently — its Store/Load pair is the
// happens-before edge that makes the leader's plain writes to off/err (and
// its micro-log appends through the publisher's window) visible.
type combineOp struct {
	kind combineOpKind
	size uint64         // combAlloc: requested bytes
	lane *plog.MicroLog // combAlloc: non-nil makes the allocation transactional
	dev  uint64         // combFree: device offset of the block to free

	off  uint64 // result: combAlloc's carved device offset
	err  error  // result: nil on success
	done atomic.Uint32
}

// combine runs op through the contended half of the flat-combining
// protocol: publish into the array and spin, self-serving if the lock frees
// up. Callers (allocCombined/freeCombined) already tried — and failed — to
// take the lock. The op's result is in op.off/op.err when combine returns.
func (s *subheap) combine(op *combineOp) {
	if !s.publish(op) {
		// Array full: the combining layer is saturated, take the mutex the
		// old-fashioned way and serve ourselves (plus whatever drained).
		s.stats.combineFallbacks.Add(1)
		s.mu.Lock()
		s.leadLocked(op)
		return
	}
	spins := 0
	for {
		if op.done.Load() != 0 {
			return
		}
		if s.mu.TryLock() {
			// The lock went free while our op is still pending — the last
			// leader may have quit between our publish and its final drain
			// pass. Lead a group ourselves; it claims our op (unless a
			// racing leader just did, hence the re-check).
			s.leadLocked(nil)
			continue
		}
		if spins++; spins >= combineSpinLimit {
			// Park instead of spinning the leader's CPU away. Holding the
			// lock with done still 0 proves no leader claimed the op (every
			// claimer stores done before unlocking), so it is still in the
			// array and leading a group now is guaranteed to finish it.
			s.mu.Lock()
			if op.done.Load() != 0 {
				s.mu.Unlock()
				return
			}
			s.leadLocked(nil)
			continue
		}
		runtime.Gosched()
	}
}

// publish CASes op into a free combining-array slot.
func (s *subheap) publish(op *combineOp) bool {
	for i := range s.comb {
		if s.comb[i].CompareAndSwap(nil, op) {
			return true
		}
	}
	return false
}

// combPending reports whether any op is published in the combining array.
// A publisher that CASes in right after a false answer is not lost: it spins
// with the lock held by us, and self-serves by TryLock after we unlock.
func (s *subheap) combPending() bool {
	for i := range s.comb {
		if s.comb[i].Load() != nil {
			return true
		}
	}
	return false
}

// leadLocked is the combining leader: with mu held (ownership transfers in;
// leadLocked unlocks), repeatedly claim every published op and execute the
// group, up to combineMaxPasses groups. own, when non-nil, joins the first
// group.
func (s *subheap) leadLocked(own *combineOp) {
	defer s.mu.Unlock()
	s.h.grant(s.thread)
	defer s.h.revoke(s.thread)
	for pass := 0; pass < combineMaxPasses; pass++ {
		group := s.groupOps[:0]
		if own != nil {
			group = append(group, own)
			own = nil
		}
		for i := range s.comb {
			// Load-before-Swap keeps the (common) empty-slot scan to plain
			// reads; only the leader clears slots, so a non-nil load can't
			// go stale before our Swap.
			if s.comb[i].Load() == nil {
				continue
			}
			if op := s.comb[i].Swap(nil); op != nil {
				group = append(group, op)
			}
		}
		if len(group) == 0 {
			return
		}
		s.groupOps = group[:0] // keep the grown capacity for the next group
		s.runGroupLocked(group)
		for _, op := range group {
			op.done.Store(1) // last touch: ownership returns to the publisher
		}
		clear(group)
	}
}

// runGroupLocked executes one claimed group under mu with rights granted:
// shared prologue (ensureReady, attribution retag, paced ring drain,
// tracing), then the staged group execution.
func (s *subheap) runGroupLocked(group []*combineOp) {
	if err := s.ensureReady(); err != nil {
		for _, op := range group {
			op.err = err
		}
		return
	}
	// Tag after ensureReady so lazy formatting stays charged to ClassFormat.
	s.setClass(nvm.ClassCombined)
	if err := s.maybeDrainLocked(); err != nil {
		for _, op := range group {
			op.err = err
		}
		return
	}
	if s.h.tel == nil {
		s.execGroupLocked(group)
		return
	}
	start := time.Now()
	if tdone := s.traceBegin(obs.OpCombine, uint64(len(group))); tdone != nil {
		defer func() { tdone(nil) }()
	}
	s.execGroupLocked(group)
	s.h.tel.RecordOn(s.id, obs.OpCombine, time.Since(start))
}

// stagedGroupOp is one op successfully staged into its chained batch,
// waiting for the group commit.
type stagedGroupOp struct {
	op    *combineOp
	batch *txn.Batch
	hook  func() error
	class int    // alloc: requested class; free: freed block's class
	found int    // alloc: class the block was carved from
	size  uint64 // free: freed block's size
}

// execGroupLocked stages every op of the group into chained per-op batches
// and commits them as one undo transaction.
func (s *subheap) execGroupLocked(group []*combineOp) {
	parent := s.winReader
	staged := s.stagedScratch[:0]
	defer func() {
		clear(staged) // drop op/closure refs before pooling the backing array
		s.stagedScratch = staged[:0]
	}()
	var retry []*combineOp
	for _, op := range group {
		b := s.groupBatch(len(staged))
		b.SetParent(parent)
		mask0 := s.freeMask
		sop, err := s.stageOp(b, op)
		if err == nil {
			staged = append(staged, sop)
			parent = b
			continue
		}
		// Undo this op's DRAM effects; the batch chain before it is intact.
		b.Abort()
		b.SetParent(nil)
		s.freeMask |= mask0
		if errors.Is(err, ErrInvalidFree) || errors.Is(err, ErrDoubleFree) || errors.Is(err, ErrBadSize) {
			op.err = err // validation reject: final, nothing was staged
			continue
		}
		retry = append(retry, op) // pressure/device trouble: solo after the group
	}

	if len(staged) > 0 {
		batches := s.batchScratch[:0]
		hooks := s.hookScratch[:0]
		for i := range staged {
			batches = append(batches, staged[i].batch)
			hooks = append(hooks, staged[i].hook)
		}
		err := txn.CommitGroup(batches, hooks)
		for i := range staged {
			staged[i].batch.Abort()
			staged[i].batch.SetParent(nil)
		}
		clear(batches)
		clear(hooks)
		s.batchScratch, s.hookScratch = batches[:0], hooks[:0]
		if err != nil {
			// The commit may have sealed (or applied) any part of the merged
			// group; replay the undo log to revert all of it. Safe because
			// none of these ops has been reported yet.
			if rerr := s.undo.Replay(); rerr != nil {
				ferr := fmt.Errorf("poseidon: rollback after failed group commit: %w", rerr)
				for _, op := range group {
					if op.err == nil {
						op.err = ferr
					}
				}
				return
			}
			_ = s.reseedFreeMask()
			// Re-run everything unreported solo, in group order: per-op
			// transactions may fit where the merged one did not.
			retry = retry[:0]
			for _, op := range group {
				if op.err == nil {
					retry = append(retry, op)
				}
			}
		} else {
			s.stats.combinedCommits.Add(1)
			s.stats.combinedOps.Add(uint64(len(staged)))
			s.noteMirrorMutation()
			for i := range staged {
				s.settleOp(&staged[i])
			}
		}
	}

	for _, op := range retry {
		s.stats.combineFallbacks.Add(1)
		s.soloLocked(op)
	}
}

// stageOp stages one op into b (which reads through the group's batch
// chain). On error the caller aborts b.
func (s *subheap) stageOp(b *txn.Batch, op *combineOp) (stagedGroupOp, error) {
	g := s.mgr.Geometry()
	sop := stagedGroupOp{op: op, batch: b}
	if op.kind == combFree {
		class, size, err := s.stageFree(b, b, op.dev)
		if err != nil {
			return sop, err
		}
		sop.class, sop.size = class, size
		return sop, nil
	}
	class, err := g.ClassOf(op.size)
	if err != nil {
		return sop, fmt.Errorf("%w: %v", ErrBadSize, err)
	}
	blockOff, found, err := s.carveOne(b, class)
	if err != nil {
		return sop, err
	}
	op.off = blockOff
	sop.class, sop.found = class, found
	if lane := op.lane; lane != nil {
		// Same micro-log discipline as tryAlloc: the entry is persisted by
		// the hook inside the group's commit window — after the staged
		// stores are durable, before the shared truncate — through the
		// publisher's window (the publisher granted its own thread rights
		// before publishing and holds them until done).
		loc := uint64(s.id)<<subheapShift | (blockOff - g.UserBase)
		entry := plog.MicroEntry{Offset: loc, Size: g.ClassSize(class)}
		sop.hook = func() error { return lane.Append(entry) }
	}
	return sop, nil
}

// settleOp applies one committed op's stats and gauges — the same
// post-commit accounting as tryAlloc and freeLocked.
func (s *subheap) settleOp(so *stagedGroupOp) {
	if so.op.kind == combFree {
		s.stats.frees.Add(1)
		if s.gauge != nil {
			s.gauge.allocBlocks.Add(-1)
			s.gauge.allocBytes.Add(-int64(so.size))
			s.gauge.freeByClass[so.class].Add(1)
		}
		return
	}
	if so.op.lane != nil {
		s.stats.txAllocs.Add(1)
	} else {
		s.stats.allocs.Add(1)
	}
	if s.gauge != nil {
		g := s.mgr.Geometry()
		s.gauge.allocBlocks.Add(1)
		s.gauge.allocBytes.Add(int64(g.ClassSize(so.class)))
		s.gauge.freeByClass[so.found].Add(-1)
		for cc := so.class; cc < so.found; cc++ {
			s.gauge.freeByClass[cc].Add(1)
		}
	}
}

// soloLocked re-runs one dropped op through the legacy per-op path,
// retagged to its legacy attribution class, with the full pressure ladder.
// Caller holds mu with rights on a ready sub-heap.
func (s *subheap) soloLocked(op *combineOp) {
	if op.kind == combFree {
		s.setClass(nvm.ClassFree)
		op.err = s.freeLocked(op.dev)
		return
	}
	if op.lane != nil {
		s.setClass(nvm.ClassTxAlloc)
	} else {
		s.setClass(nvm.ClassAlloc)
	}
	class, err := s.mgr.Geometry().ClassOf(op.size)
	if err != nil {
		op.err = fmt.Errorf("%w: %v", ErrBadSize, err)
		return
	}
	op.off, op.err = s.allocLadderLocked(class, op.size, op.lane)
}

// groupBatch returns the i-th pooled staging batch, creating it on first
// use (and discarding the pool if the undo log was re-opened). Guarded by
// mu; only valid on a ready sub-heap.
func (s *subheap) groupBatch(i int) *txn.Batch {
	if s.groupUndo != s.undo {
		s.groupBatches = s.groupBatches[:0]
		s.groupUndo = s.undo
	}
	for len(s.groupBatches) <= i {
		s.groupBatches = append(s.groupBatches, txn.NewBatch(s.win, s.undo))
	}
	return s.groupBatches[i]
}

// allocCombined is alloc's combined-mode body. Uncontended (free lock, empty
// array) it runs the legacy locked body directly — an idle heap pays nothing
// for combining. With pending publishers it leads a group including its own
// op; with the lock busy it publishes and spins (combine).
func (s *subheap) allocCombined(size uint64, lane *plog.MicroLog) (uint64, error) {
	if s.mu.TryLock() {
		if !s.combPending() {
			s.h.grant(s.thread)
			defer func() {
				s.h.revoke(s.thread)
				s.mu.Unlock()
			}()
			return s.allocBodyLocked(size, lane)
		}
		op := &combineOp{kind: combAlloc, size: size, lane: lane}
		s.leadLocked(op)
		return op.off, op.err
	}
	op := &combineOp{kind: combAlloc, size: size, lane: lane}
	s.combine(op)
	return op.off, op.err
}

// freeCombined is freeAs's combined-mode body for plain frees; same
// uncontended/lead/publish split as allocCombined.
func (s *subheap) freeCombined(blockOff uint64) error {
	if s.mu.TryLock() {
		if !s.combPending() {
			s.h.grant(s.thread)
			defer func() {
				s.h.revoke(s.thread)
				s.mu.Unlock()
			}()
			return s.freeBodyLocked(blockOff, nvm.ClassFree)
		}
		op := &combineOp{kind: combFree, dev: blockOff}
		s.leadLocked(op)
		return op.err
	}
	op := &combineOp{kind: combFree, dev: blockOff}
	s.combine(op)
	return op.err
}

// burst executes ops as one combined group under a single lock acquisition.
// The deterministic group driver behind CombineAllocBurst/CombineFreeBurst.
func (s *subheap) burst(ops []*combineOp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.h.grant(s.thread)
	defer s.h.revoke(s.thread)
	s.runGroupLocked(ops)
	for _, op := range ops {
		op.done.Store(1)
	}
}

// CombineAllocBurst allocates len(sizes) blocks from sub-heap shard as ONE
// flat-combined group commit and returns the per-op pointers and errors.
// It is the deterministic combine-width driver for benchmarks and tests:
// naturally overlapping publishers need real CPU parallelism, but the
// fence/flush amortization being measured is a function of group width
// alone. Requires Options.CombinedCommits.
func (h *Heap) CombineAllocBurst(shard int, sizes []uint64) ([]NVMPtr, []error, error) {
	if h.isClosed() {
		return nil, nil, ErrClosed
	}
	if err := h.writable(); err != nil {
		return nil, nil, err
	}
	if shard < 0 || shard >= len(h.subheaps) {
		return nil, nil, fmt.Errorf("poseidon: shard %d out of range [0, %d)", shard, len(h.subheaps))
	}
	s := h.subheaps[shard]
	if s.comb == nil {
		return nil, nil, fmt.Errorf("poseidon: CombineAllocBurst requires Options.CombinedCommits")
	}
	if s.isQuarantined() {
		return nil, nil, fmt.Errorf("%w: sub-heap %d (%s)", ErrSubheapQuarantined, s.id, s.quarantineReason())
	}
	ops := make([]*combineOp, len(sizes))
	for i, sz := range sizes {
		ops[i] = &combineOp{kind: combAlloc, size: sz}
	}
	s.burst(ops)
	ptrs := make([]NVMPtr, len(ops))
	errs := make([]error, len(ops))
	for i, op := range ops {
		errs[i] = op.err
		if op.err == nil {
			ptrs[i] = makePtr(h.heapID, uint16(shard), op.off-h.lay.userBase(shard))
		}
	}
	return ptrs, errs, nil
}

// CombineFreeBurst frees the given blocks as flat-combined group commits
// (one group per owning sub-heap) and returns per-op errors. The burst
// counterpart of CombineAllocBurst; requires Options.CombinedCommits.
func (h *Heap) CombineFreeBurst(ptrs []NVMPtr) ([]error, error) {
	if h.isClosed() {
		return nil, ErrClosed
	}
	if err := h.writable(); err != nil {
		return nil, err
	}
	errs := make([]error, len(ptrs))
	ops := make(map[*subheap][]*combineOp)
	idx := make(map[*combineOp]int)
	for i, p := range ptrs {
		s, dev, err := h.resolve(p)
		if err != nil {
			errs[i] = err
			continue
		}
		if s.comb == nil {
			errs[i] = fmt.Errorf("poseidon: CombineFreeBurst requires Options.CombinedCommits")
			continue
		}
		if s.isQuarantined() {
			errs[i] = fmt.Errorf("%w: sub-heap %d (%s)", ErrSubheapQuarantined, s.id, s.quarantineReason())
			continue
		}
		op := &combineOp{kind: combFree, dev: dev}
		ops[s] = append(ops[s], op)
		idx[op] = i
	}
	for s, group := range ops {
		s.burst(group)
		for _, op := range group {
			errs[idx[op]] = op.err
		}
	}
	return errs, nil
}
