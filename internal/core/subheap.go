package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"poseidon/internal/memblock"
	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
	"poseidon/internal/txn"
)

// errNoFreeBlock is the internal signal that every free list at or above
// the requested class is empty (triggers defragmentation case 1, §5.4).
var errNoFreeBlock = errors.New("poseidon: no free block of requested class")

// noSlotError is the internal signal that the hash table had no slot in the
// probe window of key (triggers defragmentation case 2, §5.4).
type noSlotError struct{ key uint64 }

func (e *noSlotError) Error() string {
	return fmt.Sprintf("poseidon: no hash slot in probe window of %#x", e.key)
}

// subheap is one per-CPU sub-heap (paper §4.1): its own lock, undo log,
// buddy lists and memory-block hash table, all inside its MPK-protected
// metadata region.
type subheap struct {
	id   int
	h    *Heap
	base uint64

	mu     sync.Mutex
	thread *mpk.Thread // the allocator's execution context on this sub-heap
	win    mpk.Window
	mgr    *memblock.Manager
	undo   *plog.UndoLog
	batch  *txn.Batch
	ready  bool // logs opened and persistent structures formatted

	// ring is the remote-free ring's DRAM coordination state; the
	// persistent slots live in the sub-heap header page (shRingOff).
	// Always wired (replay must run even when the current Options leave
	// rings off but the image holds entries from a previous run); armed
	// for producers only under Options.RemoteFreeRings once the
	// persistent slots are in a known state. localOps counts operations
	// under mu and paces the opportunistic drain.
	ring     *memblock.Ring
	localOps uint64

	// freeMask is a DRAM bitmap of the classes whose free list is
	// (probably) non-empty: bit c set means class c may hold a block, so
	// the allocation find loop is one TrailingZeros64 instead of per-class
	// device head reads. It over-approximates — bits are set eagerly at
	// every free-list push and cleared lazily when a head proves empty —
	// and is reseeded from the device after every undo replay, so it can
	// never under-approximate (which would fake an out-of-memory).
	// Guarded by mu. NumClasses never exceeds 48 (the pointer-offset
	// bound), so 64 bits always suffice.
	freeMask uint64

	// quarantined marks a sub-heap taken out of service because its
	// metadata failed recovery or audit (degrade-don't-die): allocations
	// route around it, frees into it are rejected, and its capacity is
	// reported as lost in Stats. qreason (a string) is stored before the
	// flag is published; it is atomic because Repair can return the
	// sub-heap to service and a later corruption re-quarantine it while
	// concurrent error paths read the reason. qmu serializes the
	// check-then-publish in quarantine so two recovery workers benching
	// the same sub-heap simultaneously keep first-reason-wins semantics
	// (and emit exactly one quarantine event).
	qmu         sync.Mutex
	quarantined atomic.Bool
	qreason     atomic.Value

	// mirrorSeq is the generation of the newest valid on-device metadata
	// mirror image (mirror.go); mutations counts committed mutations to
	// pace refreshes; mirrorPay and mirrorBuf are the refresh's reused
	// payload and slot-image buffers. DRAM-only, guarded by mu.
	mirrorSeq uint64
	mutations uint64
	mirrorPay []byte
	mirrorBuf []byte

	// winReader is s.win boxed once as a txn.Reader, so the free path's
	// metadata lookups do not box the window (a heap allocation) per op.
	winReader txn.Reader

	stats subheapStats

	// rec tags this sub-heap's device traffic with the operation class in
	// flight (retagged under mu); gauge tracks live occupancy. Both are
	// non-nil only when the heap runs with telemetry.
	rec   *nvm.AttrRecorder
	gauge *subheapGauges

	// Watchdog hold-state (watchdog.go), maintained by lockOp/unlockOp only
	// when h.wd is set. Publication order matters: lockOp stores wdOp, bumps
	// wdToken, and stores wdSince LAST, so a watchdog scan that sees a
	// non-zero wdSince observes the op/token of that acquisition. wdHold is
	// owner-only scratch (guarded by mu); stallInject is a one-shot test
	// failpoint armed by Heap.InjectStall.
	wdSince     atomic.Int64  // hold-start UnixNano; 0 = lock not held
	wdOp        atomic.Uint32 // obs.Op in flight
	wdToken     atomic.Uint64 // acquisition counter for stall de-dup
	wdHold      time.Time
	stallInject atomic.Int64 // ns to sleep inside the next lockOp
}

// lockOp acquires the sub-heap lock with metadata rights, timing the wait
// and publishing hold-start state for the stall watchdog. A heap without a
// watchdog pays exactly one nil check over the plain lock sequence.
func (s *subheap) lockOp(op obs.Op) {
	if s.h.wd == nil {
		s.mu.Lock()
		s.h.grant(s.thread)
		return
	}
	start := time.Now()
	s.mu.Lock()
	s.h.grant(s.thread)
	now := time.Now()
	s.h.tel.RecordOn(s.id, obs.OpLockWait, now.Sub(start))
	s.wdHold = now
	s.wdOp.Store(uint32(op))
	s.wdToken.Add(1)
	s.wdSince.Store(now.UnixNano())
	if d := s.stallInject.Swap(0); d > 0 {
		// Armed failpoint: hold the lock long enough for the watchdog.
		time.Sleep(time.Duration(d))
	}
}

// unlockOp is lockOp's release half: clears the hold-start marker, records
// the hold-time histogram, and releases rights and lock.
func (s *subheap) unlockOp() {
	if s.h.wd == nil {
		s.h.revoke(s.thread)
		s.mu.Unlock()
		return
	}
	s.wdSince.Store(0)
	s.h.tel.RecordOn(s.id, obs.OpLockHold, time.Since(s.wdHold))
	s.h.revoke(s.thread)
	s.mu.Unlock()
}

// subheapGauges are DRAM-only occupancy gauges, maintained on the alloc/
// free/merge paths and re-seeded from the persistent records when a
// sub-heap opens. Telemetry-only: without Options.Telemetry no gauge atomics
// are touched.
type subheapGauges struct {
	allocBlocks atomic.Int64
	allocBytes  atomic.Int64
	freeByClass []atomic.Int64 // free-block count per size class
}

// reset zeroes every gauge (before a record-walk reseed).
func (g *subheapGauges) reset() {
	g.allocBlocks.Store(0)
	g.allocBytes.Store(0)
	for i := range g.freeByClass {
		g.freeByClass[i].Store(0)
	}
}

// quarantine takes the sub-heap out of service. Idempotent; the first
// reason wins (until a Repair clears the flag — a re-quarantine then
// records its own, fresh reason).
func (s *subheap) quarantine(reason string) {
	s.qmu.Lock()
	if s.quarantined.Load() {
		s.qmu.Unlock()
		return
	}
	s.qreason.Store(reason)
	s.quarantined.Store(true)
	s.qmu.Unlock()
	s.h.tel.Emit(obs.EventQuarantine, s.id, reason)
	s.h.recomputeHealth()
}

// unquarantine returns a repaired sub-heap to service. Only Repair calls
// this, after the rebuilt metadata passed a full audit.
func (s *subheap) unquarantine() {
	s.quarantined.Store(false)
	s.h.recomputeHealth()
}

func (s *subheap) isQuarantined() bool { return s.quarantined.Load() }

func (s *subheap) quarantineReason() string {
	if !s.quarantined.Load() {
		return ""
	}
	r, _ := s.qreason.Load().(string)
	return r
}

func newSubheap(h *Heap, id int) (*subheap, error) {
	g, err := h.lay.memblockGeometry(id)
	if err != nil {
		return nil, err
	}
	s := &subheap{
		id:     id,
		h:      h,
		base:   h.lay.subheapBase(id),
		thread: h.unit.NewThread(defaultRights(h.opts)),
	}
	s.win = mpk.NewWindow(h.dev, s.thread)
	s.ring = memblock.NewRing(h.lay.ringBase(id))
	if h.tel != nil {
		s.rec = nvm.NewAttrRecorder(h.tel.Attribution(), nvm.ClassOther)
		s.win = s.win.WithRecorder(s.rec)
		s.gauge = &subheapGauges{freeByClass: make([]atomic.Int64, g.NumClasses)}
	}
	s.winReader = s.win
	s.mgr = memblock.NewManager(s.win, g)
	return s, nil
}

// setClass retags this sub-heap's device-traffic attribution. Callers hold
// mu (or run single-threaded), which is the recorder's required
// serialization.
func (s *subheap) setClass(c nvm.OpClass) {
	if s.rec != nil {
		s.rec.SetClass(c)
	}
}

// initializedFlag reads the persistent formatted marker.
func (s *subheap) initializedFlag() (bool, error) {
	v, err := s.win.ReadU64(s.base + shInitializedOff)
	return v == 1, err
}

// readRetry is a metadata read with the heap's transient-retry policy
// attached — used on runtime paths (ring drain/replay, repair) where a
// clearing ECC fault should cost a bounded backoff, not an aborted drain.
func (s *subheap) readRetry(off uint64) (uint64, error) {
	var v uint64
	err := s.h.retry(func() error {
		var e error
		v, e = s.win.ReadU64(off)
		return e
	})
	return v, err
}

// recoverLogs opens the logs of a formatted sub-heap and replays its undo
// log (heap load path, §5.1). Unformatted sub-heaps are left untouched —
// they format lazily on first use, like the paper's first-malloc-on-CPU.
func (s *subheap) recoverLogs() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	init, err := s.initializedFlag()
	if err != nil {
		return err
	}
	if !init {
		return nil
	}
	// A set repair marker means a crash interrupted Repair: the metadata is
	// a half-rebuilt mix we must not serve. Fail quarantinably — recovery
	// benches the sub-heap, and the next Repair runs to completion.
	flag, err := s.win.ReadU64(s.base + shRepairingOff)
	if err != nil {
		return err
	}
	if flag != 0 {
		return fmt.Errorf("%w: interrupted repair", ErrCorruptHeap)
	}
	s.h.grant(s.thread)
	defer s.h.revoke(s.thread)
	s.setClass(nvm.ClassRecovery)
	if err := s.open(true); err != nil {
		return err
	}
	s.seedMirrorSeq()
	if err := s.replayRingLocked(); err != nil {
		return err
	}
	if err := s.reseedFreeMask(); err != nil {
		return err
	}
	s.seedGauges()
	// No mirror refresh here: the header has not been audited yet, and
	// copying a corrupt header over the last good mirror would defeat the
	// restore path. recover() refreshes mirrors after the scrub passes.
	return nil
}

// reseedFreeMask rebuilds the free-list nonempty bitmap from the
// persistent heads. Caller holds mu with metadata rights on a ready
// sub-heap.
func (s *subheap) reseedFreeMask() error {
	g := s.mgr.Geometry()
	var mask uint64
	for c := 0; c < g.NumClasses; c++ {
		head, err := s.mgr.FreeHead(s.win, c)
		if err != nil {
			return err
		}
		if head != 0 {
			mask |= 1 << uint(c)
		}
	}
	s.freeMask = mask
	return nil
}

// open attaches logs and the batch; with replay it also runs undo recovery.
// Caller holds the lock with metadata write rights.
func (s *subheap) open(replay bool) error {
	undo, err := plog.OpenUndoLog(s.win, s.h.lay.undoBase(s.id), s.h.lay.undoSize)
	if err != nil {
		return err
	}
	if replay {
		if err := undo.Replay(); err != nil {
			return err
		}
	}
	s.undo = undo
	s.batch = txn.NewBatch(s.win, undo)
	s.ready = true
	return nil
}

// ensureReady formats the sub-heap on first use. Caller holds the lock with
// metadata write rights.
func (s *subheap) ensureReady() error {
	if s.ready {
		return nil
	}
	init, err := s.initializedFlag()
	if err != nil {
		return err
	}
	if init {
		// Raw-attached heaps (fsck -raw) must see the image untouched:
		// open without replaying the undo log (or the remote-free ring;
		// the ring also stays disarmed, so no producer writes it).
		if err := s.open(!s.h.rawAttach); err != nil {
			return err
		}
		s.seedMirrorSeq()
		if !s.h.rawAttach {
			if err := s.replayRingLocked(); err != nil {
				return err
			}
		}
		if err := s.reseedFreeMask(); err != nil {
			return err
		}
		s.seedGauges()
		return nil
	}
	return s.format()
}

// seedGauges rebuilds the DRAM occupancy gauges from the persistent records.
// Caller holds mu with metadata rights. No-op without telemetry; errors are
// swallowed — gauges are best-effort observability, not correctness state.
func (s *subheap) seedGauges() {
	if s.gauge == nil {
		return
	}
	g := s.mgr.Geometry()
	s.gauge.reset()
	_ = s.mgr.ForEachRecord(s.win, func(rec memblock.Record) error {
		if rec.Status == memblock.StatusAllocated {
			s.gauge.allocBlocks.Add(1)
			s.gauge.allocBytes.Add(int64(rec.Size))
		} else if c, cerr := g.ClassOf(rec.Size); cerr == nil {
			s.gauge.freeByClass[c].Add(1)
		}
		return nil
	})
}

// format creates the persistent structures of a fresh (or half-created)
// sub-heap. The initialized flag is the commit point: a crash mid-format
// reformats from scratch on the next use.
func (s *subheap) format() error {
	s.setClass(nvm.ClassFormat)
	g := s.mgr.Geometry()
	// Zero everything format will touch: header page, undo log region, and
	// the memblock header + free lists + level 0 (higher levels are only
	// written after activation, which happens after the flag commits).
	zeroEnd := g.LevelOff[0] + g.LevelCap[0]*memblock.RecordSize
	if err := s.win.Zero(s.base, zeroEnd-s.base); err != nil {
		return err
	}
	if err := s.win.Flush(s.base, zeroEnd-s.base); err != nil {
		return err
	}
	s.win.Fence()
	if err := s.mgr.Format(); err != nil {
		return err
	}
	if err := s.open(false); err != nil {
		return err
	}
	// Seed the heap: the whole user region is one free block of the
	// largest class.
	slot, err := s.mgr.Insert(s.batch, g.UserBase, g.UserSize, memblock.StatusFree)
	if err != nil {
		return err
	}
	if err := s.mgr.PushFreeTail(s.batch, g.MaxClass(), slot); err != nil {
		return err
	}
	if err := s.batch.Commit(); err != nil {
		return err
	}
	// Commit point.
	if err := s.win.PersistU64(s.base+shInitializedOff, 1); err != nil {
		return err
	}
	s.freeMask = 1 << uint(g.MaxClass())
	s.seedGauges()
	// The ring region was zeroed above; open it for producers.
	s.ring.Reset()
	if s.h.opts.RemoteFreeRings {
		s.ring.Arm()
	}
	// First mirror image of the freshly formatted header (best-effort).
	s.mirrorSeq = 0
	_ = s.updateMirrorLocked()
	return nil
}

// traceBegin opens a sampled op span for this sub-heap: nil (free) unless
// the tracer exists AND elected this operation. The returned closure diffs
// the sub-heap recorder's write/flush/fence totals and must therefore run
// while mu is still held — register its defer AFTER the unlock defer so
// LIFO ordering fires it first.
func (s *subheap) traceBegin(op obs.Op, bytes uint64) func(error) {
	tr := s.h.tracer
	if tr == nil || !tr.Sampled() {
		return nil
	}
	start := time.Now()
	m := s.rec.Mark()
	r0 := s.h.transientRetries.Load()
	return func(err error) {
		d := s.rec.Since(m)
		sp := obs.Span{
			Op:      op,
			Subheap: s.id,
			Lane:    -1,
			StartNS: start.UnixNano(),
			DurNS:   time.Since(start).Nanoseconds(),
			Writes:  d.Writes,
			Flushes: d.Flushes,
			Fences:  d.Fences,
			Retries: s.h.transientRetries.Load() - r0,
			Bytes:   bytes,
		}
		if err != nil {
			sp.Err = err.Error()
		}
		tr.Record(sp)
	}
}

// alloc carves a block of at least size bytes out of this sub-heap and
// returns its device offset (paper §5.2). If lane is non-nil the allocation
// is transactional: its address is persisted to the micro-log lane before
// the undo log truncates (§5.3).
func (s *subheap) alloc(size uint64, lane *plog.MicroLog) (devOff uint64, err error) {
	if s.isQuarantined() {
		return 0, fmt.Errorf("%w: sub-heap %d (%s)", ErrSubheapQuarantined, s.id, s.quarantineReason())
	}
	op := obs.OpAlloc
	if lane != nil {
		op = obs.OpTxAlloc
	}
	s.lockOp(op)
	defer s.unlockOp()
	if err := s.ensureReady(); err != nil {
		return 0, err
	}
	// Tag after ensureReady so lazy formatting stays charged to ClassFormat.
	if lane != nil {
		s.setClass(nvm.ClassTxAlloc)
	} else {
		s.setClass(nvm.ClassAlloc)
	}
	if tdone := s.traceBegin(op, size); tdone != nil {
		defer func() { tdone(err) }()
	}
	// The alloc slow path is a drain point: we already paid for the lock.
	if err := s.maybeDrainLocked(); err != nil {
		return 0, err
	}
	g := s.mgr.Geometry()
	class, err := g.ClassOf(size)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadSize, err)
	}
	var p pressure
	for {
		off, err := s.tryAlloc(class, lane)
		if err == nil {
			if lane != nil {
				s.stats.txAllocs.Add(1)
			} else {
				s.stats.allocs.Add(1)
			}
			return off, nil
		}
		retry, err := s.relievePressure(&p, class, err)
		if retry {
			continue
		}
		if errors.Is(err, errNoFreeBlock) {
			return 0, fmt.Errorf("%w: %d bytes requested", ErrOutOfMemory, size)
		}
		return 0, err
	}
}

// pressure tracks which one-shot recovery rungs of the allocation pressure
// ladder have fired. One instance spans all retries of one logical
// operation (alloc or magazine refill).
type pressure struct {
	defraggedList, defraggedProbe, extended, drainedRing bool
}

// relievePressure runs the allocation pressure ladder rung matching err:
// hash-table pressure defragments the probe window then extends the table
// (§5.2); space pressure drains the remote-free ring (the cheapest memory
// to reclaim) then merges free lists upward (§5.4). It returns retry=true
// when a rung made progress and the caller should re-attempt. With the
// ladder exhausted, space pressure returns errNoFreeBlock unwrapped so each
// caller can word its own out-of-memory error; everything else returns
// ready to surface. Caller holds mu with metadata rights on a ready
// sub-heap and must have aborted any half-staged batch.
func (s *subheap) relievePressure(p *pressure, class int, err error) (bool, error) {
	var ns *noSlotError
	switch {
	case errors.As(err, &ns):
		if !p.defraggedProbe {
			p.defraggedProbe = true
			if _, derr := s.defragProbeWindow(ns.key); derr != nil {
				return false, derr
			}
			return true, nil
		}
		if !p.extended {
			p.extended = true
			if eerr := s.extendLevel(); eerr != nil {
				if errors.Is(eerr, memblock.ErrTableFull) {
					return false, fmt.Errorf("%w: metadata table full", ErrOutOfMemory)
				}
				return false, eerr
			}
			return true, nil
		}
		return false, fmt.Errorf("%w: metadata table full", ErrOutOfMemory)
	case errors.Is(err, errNoFreeBlock):
		if !p.drainedRing {
			p.drainedRing = true
			n, derr := s.drainRingLocked(0)
			if derr != nil {
				return false, derr
			}
			if n > 0 {
				return true, nil
			}
		}
		if !p.defraggedList {
			p.defraggedList = true
			progress, derr := s.defragFreeLists(class)
			if derr != nil {
				return false, derr
			}
			if progress {
				return true, nil
			}
		}
		return false, errNoFreeBlock
	default:
		return false, err
	}
}

// carveOne stages the carve of one block of class `class` into s.batch:
// find the smallest non-empty class ≥ class via the free mask, unlink its
// head, split halves down to the requested class (each upper half becomes
// a new free buddy, §5.2) and mark the block allocated. Returns the
// block's device offset and the class it was carved from (for gauge
// accounting). Nothing is committed; on error the caller must abort the
// batch. The find phase stages no writes, so errNoFreeBlock leaves the
// batch exactly as it was — refill relies on that to commit a partial
// batch.
func (s *subheap) carveOne(class int) (blockOff uint64, found int, err error) {
	g := s.mgr.Geometry()
	b := s.batch
	// One TrailingZeros64 over the DRAM nonempty bitmap replaces the
	// per-class device head reads. A set bit is verified against the real
	// head (through the batch, so staged pushes and removals in a multi-
	// carve refill are visible) and lazily cleared when the list proves
	// empty.
	var c int
	var slot uint64
	for {
		m := s.freeMask &^ (uint64(1)<<uint(class) - 1)
		if m == 0 {
			return 0, 0, errNoFreeBlock
		}
		c = bits.TrailingZeros64(m)
		head, herr := s.mgr.FreeHead(b, c)
		if herr != nil {
			return 0, 0, herr
		}
		if head != 0 {
			slot = head
			break
		}
		s.freeMask &^= 1 << uint(c)
	}
	found = c
	rec, err := s.mgr.ReadRecord(b, slot)
	if err != nil {
		return 0, 0, err
	}
	if err := s.mgr.RemoveFree(b, c, slot); err != nil {
		return 0, 0, err
	}
	blockOff = rec.BlockOff

	for c > class {
		c--
		half := g.ClassSize(c)
		buddyOff := blockOff + half
		bslot, ierr := s.mgr.Insert(b, buddyOff, half, memblock.StatusFree)
		if errors.Is(ierr, memblock.ErrNoSlot) {
			return 0, 0, &noSlotError{key: buddyOff}
		}
		if ierr != nil {
			return 0, 0, ierr
		}
		if err := s.mgr.PushFreeTail(b, c, bslot); err != nil {
			return 0, 0, err
		}
		s.freeMask |= 1 << uint(c)
	}
	if err := s.mgr.SetSize(b, slot, g.ClassSize(class)); err != nil {
		return 0, 0, err
	}
	if err := s.mgr.SetStatus(b, slot, memblock.StatusAllocated); err != nil {
		return 0, 0, err
	}
	return blockOff, found, nil
}

// tryAlloc is one allocation attempt inside a single failure-atomic batch.
func (s *subheap) tryAlloc(class int, lane *plog.MicroLog) (blockOff uint64, err error) {
	g := s.mgr.Geometry()
	b := s.batch
	committed := false
	defer func() {
		if !committed {
			b.Abort()
		}
	}()

	blockOff, found, err := s.carveOne(class)
	if err != nil {
		return 0, err
	}

	var hook func() error
	if lane != nil {
		loc := uint64(s.id)<<subheapShift | (blockOff - g.UserBase)
		entry := plog.MicroEntry{Offset: loc, Size: g.ClassSize(class)}
		hook = func() error { return lane.Append(entry) }
	}
	if cerr := b.CommitWith(hook); cerr != nil {
		// The commit may have sealed (or even applied) the batch; replay
		// the undo log to roll the metadata back before surfacing the
		// error.
		b.Abort()
		if rerr := s.undo.Replay(); rerr != nil {
			return 0, fmt.Errorf("poseidon: rollback after failed commit: %w", rerr)
		}
		_ = s.reseedFreeMask()
		if errors.Is(cerr, plog.ErrLogFull) {
			return 0, ErrTxTooLarge
		}
		return 0, cerr
	}
	committed = true
	s.noteMirrorMutation()
	if s.gauge != nil {
		s.gauge.allocBlocks.Add(1)
		s.gauge.allocBytes.Add(int64(g.ClassSize(class)))
		s.gauge.freeByClass[found].Add(-1)
		// Splitting left one free buddy at every class between the request
		// and the block we carved.
		for cc := class; cc < found; cc++ {
			s.gauge.freeByClass[cc].Add(1)
		}
	}
	return blockOff, nil
}

// free returns the block at device offset blockOff to its free list
// (paper §5.5). Invalid and double frees are detected via the hash table
// and rejected.
func (s *subheap) free(blockOff uint64) error {
	return s.freeAs(blockOff, nvm.ClassFree)
}

// freeAs is free with an explicit attribution class: recovery rollback of
// uncommitted transactional allocations charges ClassTxFree instead of
// ClassFree so the two show up separately in the amplification table.
func (s *subheap) freeAs(blockOff uint64, cls nvm.OpClass) (err error) {
	if s.isQuarantined() {
		return fmt.Errorf("%w: sub-heap %d (%s)", ErrSubheapQuarantined, s.id, s.quarantineReason())
	}
	op := obs.OpFree
	if cls == nvm.ClassTxFree {
		op = obs.OpTxFree
	}
	s.lockOp(op)
	defer s.unlockOp()
	if err := s.ensureReady(); err != nil {
		return err
	}
	s.setClass(cls)
	if tdone := s.traceBegin(obs.OpFree, 0); tdone != nil {
		defer func() { tdone(err) }()
	}
	// Local frees are a drain point too ("per N local ops").
	if err := s.maybeDrainLocked(); err != nil {
		return err
	}
	return s.freeLocked(blockOff)
}

// stageFree validates and stages the free of the block at blockOff into
// s.batch, reading metadata straight from the window. Validation rejects
// bump the counters and leave the batch untouched; a staging error requires
// the caller to abort it. The freeMask bit is set at stage time — an
// over-approximation until the commit lands, which is always safe (and the
// commit-failure paths reseed the mask).
func (s *subheap) stageFree(blockOff uint64) (class int, size uint64, err error) {
	r := s.winReader
	slot, err := s.mgr.Lookup(r, blockOff)
	if errors.Is(err, memblock.ErrNotFound) {
		s.stats.invalidFrees.Add(1)
		return 0, 0, ErrInvalidFree
	}
	if err != nil {
		return 0, 0, err
	}
	rec, err := s.mgr.ReadRecord(r, slot)
	if err != nil {
		return 0, 0, err
	}
	if rec.Status == memblock.StatusFree {
		s.stats.doubleFrees.Add(1)
		return 0, 0, ErrDoubleFree
	}
	g := s.mgr.Geometry()
	class, err = g.ClassOf(rec.Size)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: record size %d", ErrCorruptHeap, rec.Size)
	}
	// Tail insertion delays reuse of the just-freed block (§5.5).
	if err := s.mgr.PushFreeTail(s.batch, class, slot); err != nil {
		return 0, 0, err
	}
	s.freeMask |= 1 << uint(class)
	return class, rec.Size, nil
}

// freeLocked is the body of freeAs — and the exact per-entry logic the
// remote-free ring drain replays. Caller holds mu with metadata rights on
// a ready sub-heap.
func (s *subheap) freeLocked(blockOff uint64) error {
	b := s.batch
	class, size, err := s.stageFree(blockOff)
	if err != nil {
		b.Abort()
		return err
	}
	if err := b.Commit(); err != nil {
		b.Abort()
		if rerr := s.undo.Replay(); rerr != nil {
			return fmt.Errorf("poseidon: rollback after failed commit: %w", rerr)
		}
		_ = s.reseedFreeMask()
		return err
	}
	s.stats.frees.Add(1)
	s.noteMirrorMutation()
	if s.gauge != nil {
		s.gauge.allocBlocks.Add(-1)
		s.gauge.allocBytes.Add(-int64(size))
		s.gauge.freeByClass[class].Add(1)
	}
	return nil
}

// drainInterval paces the opportunistic drain: every drainInterval-th
// operation under mu drains the ring even when it is far from full, so a
// quiet ring still empties.
const drainInterval = 64

// remoteFree enqueues a cross-sub-heap free on this sub-heap's remote-free
// ring without taking its lock: CAS-reserve a ticket, persist the encoded
// entry with a single flush+fence through the CALLING thread's window, and
// publish. Reports handled=false when the ring is disarmed or full — the
// caller then falls back to the locked path, so Free never blocks.
func (s *subheap) remoteFree(t *Thread, blockOff uint64) (bool, error) {
	r := s.ring
	if !r.Armed() || s.isQuarantined() {
		return false, nil
	}
	ticket, ok := r.Reserve()
	if !ok {
		s.stats.ringFallbacks.Add(1)
		return false, nil
	}
	word := memblock.EncodeRingEntry(blockOff-s.h.lay.userBase(s.id), uint8(ticket))
	slotOff := r.SlotOff(ticket)
	// The ring lives in protected metadata, and the producer is an
	// application thread: grant it write rights for the one store, and
	// charge the traffic to the free class.
	if t.rec != nil {
		t.rec.SetClass(nvm.ClassFree)
		defer t.rec.SetClass(nvm.ClassUser)
	}
	t.h.grant(t.pkru)
	err := t.win.PersistU64(slotOff, word)
	if err != nil {
		// The entry may or may not have reached the slot; best-effort
		// zero it so the drain skips it. Publish regardless — an
		// unpublished ticket would wedge the ring head forever.
		_ = t.win.WriteU64(slotOff, 0)
	}
	t.h.revoke(t.pkru)
	r.Publish(ticket)
	if err != nil {
		return true, err
	}
	s.stats.remoteFrees.Add(1)
	return true, nil
}

// maybeDrainLocked is the opportunistic drain trigger on the alloc and
// free paths: a full drain when the ring is at least half full, and every
// drainInterval-th operation regardless. Caller holds mu with metadata
// rights on a ready sub-heap.
func (s *subheap) maybeDrainLocked() error {
	if !s.ring.Armed() {
		return nil
	}
	s.localOps++
	if s.ring.Pending() >= memblock.RingSlots/2 || s.localOps%drainInterval == 0 {
		_, err := s.drainRingLocked(0)
		return err
	}
	return nil
}

// drainRingLocked consumes published remote-free ring entries in batches:
// each entry is freed exactly as freeAs would (an entry whose record is
// already free or unknown is an idempotent no-op feeding the double/
// invalid-free counters), its slot is cleared, and the batch's cleared
// slots are made durable with a single trailing fence. Only then are the
// tickets released to producers: releasing before the clears are durable
// would let a crash replay an old entry against a block that was
// re-allocated in the meantime. A published entry that fails its checksum
// is media corruption (producers persist a slot fully or not at all) — the
// ring is disarmed and the sub-heap quarantined, degrade-don't-die.
// limit <= 0 drains everything pending. Caller holds mu with metadata
// rights on a ready sub-heap.
func (s *subheap) drainRingLocked(limit int) (int, error) {
	r := s.ring
	if !r.Armed() {
		return 0, nil
	}
	// Empty ring: nothing to do, and no OpDrain sample — the histogram
	// counts real batches, which is what amortization math divides by.
	if _, ok := r.PeekDrain(0); !ok {
		return 0, nil
	}
	done := s.timeDrain()
	defer done()
	g := s.mgr.Geometry()
	drained := 0
	var err error
	if tdone := s.traceBegin(obs.OpDrain, 0); tdone != nil {
		defer func() { tdone(err) }()
	}
	for limit <= 0 || drained < limit {
		ticket, ok := r.PeekDrain(drained)
		if !ok {
			break
		}
		slotOff := r.SlotOff(ticket)
		var word uint64
		if word, err = s.readRetry(slotOff); err != nil {
			break
		}
		if word != 0 { // zero: a producer's failed persist, skip the slot
			rel, _, okE := memblock.DecodeRingEntry(word)
			if !okE || rel >= g.UserSize {
				r.Disarm()
				s.quarantine(fmt.Sprintf(
					"remote-free ring slot %d holds corrupt entry %#x", ticket%memblock.RingSlots, word))
				err = fmt.Errorf("%w: remote-free ring entry %#x", ErrCorruptHeap, word)
				break
			}
			if ferr := s.freeLocked(g.UserBase + rel); ferr != nil &&
				!errors.Is(ferr, ErrInvalidFree) && !errors.Is(ferr, ErrDoubleFree) {
				err = ferr
				break
			}
		}
		if err = s.win.WriteU64(slotOff, 0); err != nil {
			break
		}
		if err = s.win.Flush(slotOff, 8); err != nil {
			break
		}
		drained++
	}
	if drained > 0 {
		s.win.Fence()
		r.Release(drained)
		s.stats.remoteDrains.Add(uint64(drained))
	}
	return drained, err
}

// drainRemote is the standalone full drain (Heap.DrainRemoteFrees): one
// lock acquisition, ring to empty.
func (s *subheap) drainRemote() error {
	if !s.ring.Armed() || s.isQuarantined() {
		return nil
	}
	s.lockOp(obs.OpDrain)
	defer s.unlockOp()
	if err := s.ensureReady(); err != nil {
		return err
	}
	_, err := s.drainRingLocked(0)
	return err
}

// replayRingLocked replays un-drained remote-free ring entries after a
// restart — the producer persisted its entry, but the owner never drained
// it. Valid entries are freed idempotently (a record already free or
// unknown feeds the counters as a no-op: the crash fell between the
// drain's free commit and its slot clear) and their slots cleared. Corrupt
// entries are LEFT IN PLACE for the audit to report, and the ring stays
// disarmed so producers cannot overwrite the evidence — the sub-heap then
// serves through the locked free path only. Caller holds mu with metadata
// rights on a ready sub-heap.
func (s *subheap) replayRingLocked() error {
	g := s.mgr.Geometry()
	base := s.ring.Base()
	corrupt, cleared := 0, 0
	for i := uint64(0); i < memblock.RingSlots; i++ {
		off := base + i*memblock.RingSlotBytes
		word, err := s.readRetry(off)
		if err != nil {
			return err
		}
		if word == 0 {
			continue
		}
		rel, _, ok := memblock.DecodeRingEntry(word)
		if !ok || rel >= g.UserSize {
			corrupt++
			continue
		}
		switch ferr := s.freeLocked(g.UserBase + rel); {
		case ferr == nil:
			s.stats.remoteDrains.Add(1)
		case errors.Is(ferr, ErrInvalidFree) || errors.Is(ferr, ErrDoubleFree):
			s.stats.recoveredNoops.Add(1)
		default:
			return ferr
		}
		if err := s.win.WriteU64(off, 0); err != nil {
			return err
		}
		if err := s.win.Flush(off, 8); err != nil {
			return err
		}
		cleared++
	}
	if cleared > 0 {
		s.win.Fence()
	}
	s.ring.Reset()
	if corrupt == 0 && s.h.opts.RemoteFreeRings {
		s.ring.Arm()
	}
	return nil
}

// timeDrain retags device traffic as ClassFree (a drain is the deferred
// half of frees) and returns a closure that restores the previous class
// and records the batch in the drain latency histogram. A no-op (returning
// a no-op) without telemetry.
func (s *subheap) timeDrain() func() {
	if s.h.tel == nil {
		return func() {}
	}
	start := time.Now()
	prev := s.rec.Class()
	s.rec.SetClass(nvm.ClassFree)
	return func() {
		s.rec.SetClass(prev)
		s.h.tel.RecordOn(s.id, obs.OpDrain, time.Since(start))
	}
}

// refillMagazine carves up to want blocks of class `class` for a thread
// magazine: one lock acquisition, one undo transaction for the whole
// batch, and — inside the commit hook, after the undo snapshot is sealed
// but before it truncates — one persistent manifest entry per block with
// a single flush+fence for all of them. That ordering is the crash-leak
// argument: by the time the undo log lets go of the carve, every carved
// block is durably named in the manifest, so recovery either rolls the
// carve back (crash before commit) or finds the entries and returns the
// blocks to their free lists (crash after).
//
// Entries land at manifest words man.WordOff(slot0)…; the caller owns
// that window exclusively. Under space pressure a partial batch (fewer
// than want, at least one) commits; with nothing carvable the underlying
// errNoFreeBlock surfaces so the caller can fall back to the full
// pressure loop of alloc. An undo log too small for the batch halves
// want and retries.
func (s *subheap) refillMagazine(class, want int, man plog.Manifest, slot0 uint64) (_ []uint64, err error) {
	if s.isQuarantined() {
		return nil, fmt.Errorf("%w: sub-heap %d (%s)", ErrSubheapQuarantined, s.id, s.quarantineReason())
	}
	s.lockOp(obs.OpRefill)
	defer s.unlockOp()
	if err := s.ensureReady(); err != nil {
		return nil, err
	}
	s.setClass(nvm.ClassAlloc)
	if err := s.maybeDrainLocked(); err != nil {
		return nil, err
	}
	done := s.timeRefill()
	defer done()
	g := s.mgr.Geometry()
	if tdone := s.traceBegin(obs.OpRefill, uint64(want)*g.ClassSize(class)); tdone != nil {
		defer func() { tdone(err) }()
	}
	// Same pressure-recovery ladder as the alloc slow path (shared via
	// relievePressure): hash-table pressure defragments the probe window
	// then extends the table; space pressure drains the remote ring then
	// merges free lists. stageCarves aborts its batch before surfacing
	// either, so the recovery ops run on a clean slate.
	var p pressure
	for {
		blocks, founds, err := s.stageCarves(class, want)
		if err != nil {
			retry, err := s.relievePressure(&p, class, err)
			if retry {
				continue
			}
			if errors.Is(err, errNoFreeBlock) {
				return nil, fmt.Errorf("%w: magazine refill of class %d", ErrOutOfMemory, class)
			}
			return nil, err
		}
		hook := func() error {
			for i, off := range blocks {
				word := plog.EncodeCacheEntry(off-g.UserBase, uint16(s.id))
				if werr := s.win.WriteU64(man.WordOff(slot0+uint64(i)), word); werr != nil {
					return werr
				}
			}
			if ferr := s.win.Flush(man.WordOff(slot0), uint64(len(blocks))*8); ferr != nil {
				return ferr
			}
			s.win.Fence()
			return nil
		}
		if cerr := s.batch.CommitWith(hook); cerr != nil {
			s.batch.Abort()
			if rerr := s.undo.Replay(); rerr != nil {
				return nil, fmt.Errorf("poseidon: rollback after failed refill: %w", rerr)
			}
			_ = s.reseedFreeMask()
			if errors.Is(cerr, plog.ErrLogFull) && want > 1 {
				want /= 2
				continue
			}
			return nil, cerr
		}
		s.stats.magazineRefills.Add(1)
		s.noteMirrorMutation()
		if s.gauge != nil {
			size := int64(g.ClassSize(class))
			for i := range blocks {
				s.gauge.allocBlocks.Add(1)
				s.gauge.allocBytes.Add(size)
				s.gauge.freeByClass[founds[i]].Add(-1)
				for cc := class; cc < founds[i]; cc++ {
					s.gauge.freeByClass[cc].Add(1)
				}
			}
		}
		return blocks, nil
	}
}

// stageCarves stages up to want carves of class `class` into s.batch.
// Space pressure after at least one successful carve truncates the batch
// there (the find phase stages nothing, so the batch is commit-clean);
// any other error — including hash-table pressure mid-split, which leaves
// a half-staged carve — aborts the whole batch and surfaces.
func (s *subheap) stageCarves(class, want int) (blocks []uint64, founds []int, err error) {
	for i := 0; i < want; i++ {
		off, found, cerr := s.carveOne(class)
		if cerr != nil {
			if errors.Is(cerr, errNoFreeBlock) && len(blocks) > 0 {
				break
			}
			s.batch.Abort()
			return nil, nil, cerr
		}
		blocks = append(blocks, off)
		founds = append(founds, found)
	}
	return blocks, founds, nil
}

// flushCached returns magazine-cached blocks to their free lists: one
// lock acquisition, one undo transaction for the whole batch (overflow,
// thread close, lane-manifest adoption). Entries whose block is unknown
// or already free are skipped as idempotent no-ops feeding the counters —
// exactly the states a crashed predecessor can leave behind.
//
// The given manifest words are cleared (and the clears flushed + fenced)
// after the commit, while the sub-heap lock is still held. The ordering
// is load-bearing twice over. Clears must come after the undo log
// truncates: a crash mid-commit replays the undo log and un-frees the
// blocks, so their entries must still exist or the blocks would leak. And
// they must complete before the lock is released: the commit puts the
// blocks back on free lists, so a clear after unlock would race a
// re-allocation — a crash in that window would make recovery's manifest
// replay free a block some other thread just carved. A crash between
// commit and clears leaves stale entries whose replay is an idempotent
// no-op (the blocks are durably free). Returns how many blocks were
// freed.
func (s *subheap) flushCached(devOffs []uint64, man plog.Manifest, words []uint64) (int, error) {
	if s.isQuarantined() {
		return 0, fmt.Errorf("%w: sub-heap %d (%s)", ErrSubheapQuarantined, s.id, s.quarantineReason())
	}
	s.lockOp(obs.OpFree)
	defer s.unlockOp()
	if err := s.ensureReady(); err != nil {
		return 0, err
	}
	s.setClass(nvm.ClassFree)
	g := s.mgr.Geometry()
	b := s.batch
	type freedBlock struct {
		class int
		size  uint64
	}
	var freed []freedBlock
	for _, dev := range devOffs {
		slot, err := s.mgr.Lookup(s.win, dev)
		if errors.Is(err, memblock.ErrNotFound) {
			s.stats.invalidFrees.Add(1)
			continue
		}
		if err != nil {
			b.Abort()
			return 0, err
		}
		rec, err := s.mgr.ReadRecord(s.win, slot)
		if err != nil {
			b.Abort()
			return 0, err
		}
		if rec.Status == memblock.StatusFree {
			s.stats.doubleFrees.Add(1)
			continue
		}
		class, err := g.ClassOf(rec.Size)
		if err != nil {
			b.Abort()
			return 0, fmt.Errorf("%w: record size %d", ErrCorruptHeap, rec.Size)
		}
		if err := s.mgr.PushFreeTail(b, class, slot); err != nil {
			b.Abort()
			return 0, err
		}
		s.freeMask |= 1 << uint(class)
		freed = append(freed, freedBlock{class: class, size: rec.Size})
	}
	if len(freed) > 0 {
		if err := b.Commit(); err != nil {
			b.Abort()
			if rerr := s.undo.Replay(); rerr != nil {
				return 0, fmt.Errorf("poseidon: rollback after failed flush-back: %w", rerr)
			}
			_ = s.reseedFreeMask()
			return 0, err
		}
		s.stats.magazineFlushes.Add(1)
		s.noteMirrorMutation()
		if s.gauge != nil {
			for _, f := range freed {
				s.gauge.allocBlocks.Add(-1)
				s.gauge.allocBytes.Add(-int64(f.size))
				s.gauge.freeByClass[f.class].Add(1)
			}
		}
	} else {
		b.Abort()
	}
	if len(words) > 0 {
		lo, hi := words[0], words[0]
		for _, w := range words {
			if err := s.win.WriteU64(man.WordOff(w), 0); err != nil {
				return len(freed), err
			}
			if w < lo {
				lo = w
			}
			if w > hi {
				hi = w
			}
		}
		// One flush over the covering range: persisting unrelated words in
		// between is harmless (their content is either already durable or
		// pending under the relaxed contract, where early durability is
		// always safe).
		if err := s.win.Flush(man.WordOff(lo), (hi-lo+1)*8); err != nil {
			return len(freed), err
		}
		s.win.Fence()
	}
	return len(freed), nil
}

// timeRefill retags device traffic as ClassAlloc (a refill is the
// deferred half of magazine allocs) and returns a closure that restores
// the previous class and records the batch in the refill latency
// histogram. A no-op (returning a no-op) without telemetry.
func (s *subheap) timeRefill() func() {
	if s.h.tel == nil {
		return func() {}
	}
	start := time.Now()
	prev := s.rec.Class()
	s.rec.SetClass(nvm.ClassAlloc)
	return func() {
		s.rec.SetClass(prev)
		s.h.tel.RecordOn(s.id, obs.OpRefill, time.Since(start))
	}
}

// mergeBuddy coalesces the free block recorded at slot with its buddy if
// the buddy is also free and the same size. One merge is one failure-atomic
// batch. Returns whether a merge happened.
func (s *subheap) mergeBuddy(slot uint64) (bool, error) {
	g := s.mgr.Geometry()
	rec, err := s.mgr.ReadRecord(s.win, slot)
	if err != nil {
		return false, err
	}
	// The slot may have been emptied or repurposed by an earlier merge in
	// the same defrag pass.
	if rec.BlockOff == 0 || rec.BlockOff == ^uint64(0) || rec.Status != memblock.StatusFree {
		return false, nil
	}
	if rec.Size >= g.UserSize {
		return false, nil // already the maximum class
	}
	rel := rec.BlockOff - g.UserBase
	buddyOff := g.UserBase + (rel ^ rec.Size)
	bslot, err := s.mgr.Lookup(s.win, buddyOff)
	if errors.Is(err, memblock.ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	brec, err := s.mgr.ReadRecord(s.win, bslot)
	if err != nil {
		return false, err
	}
	if brec.Status != memblock.StatusFree || brec.Size != rec.Size {
		return false, nil
	}
	class, err := g.ClassOf(rec.Size)
	if err != nil {
		return false, err
	}
	lower, higher := rec, brec
	if brec.BlockOff < rec.BlockOff {
		lower, higher = brec, rec
	}
	b := s.batch
	merge := func() error {
		if err := s.mgr.RemoveFree(b, class, rec.Slot); err != nil {
			return err
		}
		if err := s.mgr.RemoveFree(b, class, brec.Slot); err != nil {
			return err
		}
		if err := s.mgr.Delete(b, higher.Slot); err != nil {
			return err
		}
		if err := s.mgr.SetSize(b, lower.Slot, rec.Size*2); err != nil {
			return err
		}
		return s.mgr.PushFreeTail(b, class+1, lower.Slot)
	}
	if err := merge(); err != nil {
		b.Abort()
		return false, err
	}
	if err := b.Commit(); err != nil {
		b.Abort()
		if rerr := s.undo.Replay(); rerr != nil {
			return false, fmt.Errorf("poseidon: rollback after failed merge: %w", rerr)
		}
		_ = s.reseedFreeMask()
		return false, err
	}
	s.freeMask |= 1 << uint(class+1)
	s.stats.defragMerges.Add(1)
	s.noteMirrorMutation()
	if s.gauge != nil {
		s.gauge.freeByClass[class].Add(-2)
		s.gauge.freeByClass[class+1].Add(1)
	}
	return true, nil
}

// defragFreeLists merges smaller free blocks upward until a block of at
// least class target exists or no merge makes progress (§5.4 case 1).
func (s *subheap) defragFreeLists(target int) (bool, error) {
	defer s.timeDefrag()()
	g := s.mgr.Geometry()
	satisfied := func() (bool, error) {
		for c := target; c < g.NumClasses; c++ {
			head, err := s.mgr.FreeHead(s.win, c)
			if err != nil {
				return false, err
			}
			if head != 0 {
				return true, nil
			}
		}
		return false, nil
	}
	anyMerge := false
	for c := 0; c < target; c++ {
		slots, err := s.freeListSlots(c)
		if err != nil {
			return false, err
		}
		for _, slot := range slots {
			merged, err := s.mergeBuddy(slot)
			if err != nil {
				return false, err
			}
			if merged {
				anyMerge = true
				if ok, err := satisfied(); err != nil || ok {
					return ok, err
				}
			}
		}
	}
	ok, err := satisfied()
	if err != nil {
		return false, err
	}
	return ok && anyMerge || ok, nil
}

// timeDefrag retags device traffic as ClassDefrag and returns a closure
// that restores the previous class and records the pass in the defrag
// latency histogram. A no-op (returning a no-op) without telemetry.
func (s *subheap) timeDefrag() func() {
	if s.h.tel == nil {
		return func() {}
	}
	start := time.Now()
	prev := s.rec.Class()
	s.rec.SetClass(nvm.ClassDefrag)
	return func() {
		s.rec.SetClass(prev)
		s.h.tel.RecordOn(s.id, obs.OpDefrag, time.Since(start))
	}
}

// defragProbeWindow merges free blocks recorded in the probe window of key
// to open a hash slot there (§5.4 case 2).
func (s *subheap) defragProbeWindow(key uint64) (bool, error) {
	defer s.timeDefrag()()
	slots, err := s.mgr.ProbeWindowSlots(s.win, key)
	if err != nil {
		return false, err
	}
	any := false
	for _, slot := range slots {
		merged, err := s.mergeBuddy(slot)
		if err != nil {
			return false, err
		}
		any = any || merged
	}
	return any, nil
}

// freeListSlots snapshots the slots on class c's free list.
func (s *subheap) freeListSlots(c int) ([]uint64, error) {
	var out []uint64
	head, err := s.mgr.FreeHead(s.win, c)
	if err != nil {
		return nil, err
	}
	for slot := head; slot != 0; {
		out = append(out, slot)
		rec, err := s.mgr.ReadRecord(s.win, slot)
		if err != nil {
			return nil, err
		}
		slot = rec.NextFree
		if uint64(len(out)) > s.mgr.Geometry().TotalSlots() {
			return nil, fmt.Errorf("%w: cyclic free list (class %d)", ErrCorruptHeap, c)
		}
	}
	return out, nil
}

// extendLevel activates the next hash-table level in its own batch. The
// level count is mirrored critical metadata, so the mirror is refreshed
// eagerly — a level activation is rare and must not wait out the
// mutation-paced refresh.
func (s *subheap) extendLevel() error {
	if err := s.mgr.ExtendLevel(s.batch); err != nil {
		s.batch.Abort()
		return err
	}
	if err := s.batch.Commit(); err != nil {
		s.batch.Abort()
		if rerr := s.undo.Replay(); rerr != nil {
			return fmt.Errorf("poseidon: rollback after failed extend: %w", rerr)
		}
		_ = s.reseedFreeMask()
		return err
	}
	_ = s.updateMirrorLocked()
	return nil
}

// blockSize returns the size of the allocated block starting at device
// offset blockOff (used by the facade for bounds-checked access).
func (s *subheap) blockSize(blockOff uint64) (uint64, error) {
	if s.isQuarantined() {
		return 0, fmt.Errorf("%w: sub-heap %d (%s)", ErrSubheapQuarantined, s.id, s.quarantineReason())
	}
	s.mu.Lock()
	s.h.grant(s.thread)
	defer func() {
		s.h.revoke(s.thread)
		s.mu.Unlock()
	}()
	if err := s.ensureReady(); err != nil {
		return 0, err
	}
	slot, err := s.mgr.Lookup(s.win, blockOff)
	if errors.Is(err, memblock.ErrNotFound) {
		return 0, ErrBadPointer
	}
	if err != nil {
		return 0, err
	}
	rec, err := s.mgr.ReadRecord(s.win, slot)
	if err != nil {
		return 0, err
	}
	if rec.Status != memblock.StatusAllocated {
		return 0, ErrBadPointer
	}
	return rec.Size, nil
}
