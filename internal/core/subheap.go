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

// subheap is one per-CPU sub-heap (paper §4.1): its own lock, commit log,
// buddy lists and memory-block hash table, all inside its MPK-protected
// metadata region.
type subheap struct {
	id   int
	h    *Heap
	base uint64

	// marks is the magazine block state (magazine.go), nil until the
	// first refill; written under mu, read lock-free by every magazine
	// op on this sub-heap's blocks, from any shard's thread. It is kept
	// off the cache lines of stats, which this shard's threads write on
	// every op.
	marks atomic.Pointer[blockMarks]

	mu     sync.Mutex
	thread *mpk.Thread // the allocator's execution context on this sub-heap
	win    mpk.Window
	mgr    *memblock.Manager
	log    *plog.RedoLog
	batch  *txn.Batch
	ready  bool // log opened and persistent structures formatted

	// freeMask is a DRAM bitmap of the classes whose free list is
	// (probably) non-empty: bit c set means class c may hold a block, so
	// the allocation find loop is one TrailingZeros64 instead of per-class
	// device head reads. It over-approximates — bits are set eagerly at
	// every free-list push and cleared lazily when a head proves empty —
	// and is reseeded from the device after every attach and aborted
	// commit, so it can never under-approximate (which would fake an
	// out-of-memory).
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

	stats subheapStats

	// rec tags this sub-heap's device traffic with the operation class in
	// flight (retagged under mu); gauge tracks live occupancy. Both are
	// non-nil only when the heap runs with telemetry.
	rec   *nvm.AttrRecorder
	gauge *subheapGauges

	// Watchdog hold-state (watchdog.go), published by lock only when h.wd
	// is set. Publication order matters: lock stores wdOp, bumps wdToken,
	// and stores wdSince LAST, so a watchdog scan that sees a non-zero
	// wdSince observes the op/token of that acquisition. stallInject is a
	// one-shot test failpoint armed by Heap.InjectStall.
	wdSince     atomic.Int64  // hold-start UnixNano; 0 = lock not held
	wdOp        atomic.Uint32 // obs.Op in flight
	wdToken     atomic.Uint64 // acquisition counter for stall de-dup
	stallInject atomic.Int64  // ns to sleep inside the next lock

	env envelope // the lock holder's envelope, guarded by mu
}

// samples says what an envelope records on exit besides the lock timings.
type samples uint8

const (
	sampleLatency    samples = 1 << iota // the op's latency, on this sub-heap
	sampleSpan                           // an op span, on the tracer's 1-in-N roll
	sampleSpanAlways                     // an op span on every call
)

// envelope is the lock holder's telemetry state, from lock to unlock.
type envelope struct {
	op    obs.Op
	prev  nvm.OpClass // the class lock replaced, restored by unlock
	take  samples
	span  bool       // this hold records a span
	start time.Time  // when the lock was taken; zero when nothing is timed
	mark  nvm.OpMark // the recorder's totals at start, for the span
	r0    uint64     // transient retries at start, for the span
	bytes uint64     // the span's payload (a carve's blocks)
}

// lock is the one envelope of every holder of a sub-heap lock. It takes mu
// with metadata rights and tags the sub-heap's device traffic cls; unlock
// restores the class it replaced. With a watchdog it times the lock wait
// and publishes the hold (op) for stall detection; take asks for op's
// latency sample and span, which unlock records. The recorder is nil
// exactly when telemetry is off, and the watchdog and the tracer need
// telemetry, so without it lock is the plain lock and grant behind two nil
// checks, and unlock the plain release behind one.
func (s *subheap) lock(op obs.Op, cls nvm.OpClass, take samples) {
	wd := s.h.wd
	var wait time.Time
	if wd != nil {
		wait = time.Now()
	}
	s.mu.Lock()
	s.h.grant(s.thread)
	if s.rec == nil {
		return
	}
	e := &s.env
	*e = envelope{op: op, prev: s.retag(cls), take: take}
	tr := s.h.tracer
	e.span = take&sampleSpanAlways != 0 && tr != nil || take&sampleSpan != 0 && tr.Sampled()
	if wd != nil || e.span || take&sampleLatency != 0 {
		e.start = time.Now()
	}
	if e.span {
		e.mark, e.r0 = s.rec.Mark(), s.h.transientRetries.Load()
	}
	if wd != nil {
		s.h.tel.RecordOn(s.id, obs.OpLockWait, e.start.Sub(wait))
		s.wdOp.Store(uint32(op))
		s.wdToken.Add(1)
		s.wdSince.Store(e.start.UnixNano())
		if d := s.stallInject.Swap(0); d > 0 {
			// Armed failpoint: hold the lock long enough for the watchdog.
			time.Sleep(time.Duration(d))
		}
	}
}

// unlock closes lock's envelope and releases rights and lock. err is the
// outcome a span records.
func (s *subheap) unlock(err error) {
	if s.rec != nil {
		s.record(err)
	}
	s.h.revoke(s.thread)
	s.mu.Unlock()
}

// record is unlock with telemetry: it clears the watchdog's hold marker,
// records the lock hold, the op's latency and its span, and restores the
// class lock replaced.
func (s *subheap) record(err error) {
	e := &s.env
	var d time.Duration
	if !e.start.IsZero() {
		d = time.Since(e.start)
	}
	if s.h.wd != nil {
		s.wdSince.Store(0)
		s.h.tel.RecordOn(s.id, obs.OpLockHold, d)
	}
	if e.take&sampleLatency != 0 {
		s.h.tel.RecordOn(s.id, e.op, d)
	}
	if e.span {
		m := s.rec.Since(e.mark)
		sp := obs.Span{
			Op:      e.op,
			Subheap: s.id,
			Lane:    -1,
			StartNS: e.start.UnixNano(),
			DurNS:   d.Nanoseconds(),
			Writes:  m.Writes,
			Flushes: m.Flushes,
			Fences:  m.Fences,
			Retries: s.h.transientRetries.Load() - e.r0,
			Bytes:   e.bytes,
		}
		if err != nil {
			sp.Err = err.Error()
		}
		s.h.tracer.Record(sp)
	}
	s.rec.SetClass(e.prev)
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
	if h.tel != nil {
		s.rec = nvm.NewAttrRecorder(h.tel.Attribution(), nvm.ClassOther)
		s.win = s.win.WithRecorder(s.rec)
		s.gauge = &subheapGauges{freeByClass: make([]atomic.Int64, g.NumClasses)}
	}
	s.mgr = memblock.NewManager(s.win, g)
	s.log = plog.NewRedoLog(s.win, h.lay.undoBase(id), h.lay.undoSize)
	s.batch = txn.NewBatch(s.win, s.log)
	return s, nil
}

// retag tags this sub-heap's device traffic c and returns the class it
// replaced. Callers hold mu, which is the recorder's required
// serialization. Without telemetry it does nothing.
func (s *subheap) retag(c nvm.OpClass) nvm.OpClass {
	if s.rec == nil {
		return c
	}
	prev := s.rec.Class()
	s.rec.SetClass(c)
	return prev
}

// initializedFlag reads the persistent formatted marker: 0 is never
// formatted and shFormatted formatted. Any other value is ErrCorruptHeap,
// so Load quarantines the sub-heap instead of formatting over its blocks.
func (s *subheap) initializedFlag() (bool, error) {
	switch v, err := s.win.ReadU64(s.base + shInitializedOff); {
	case err != nil || v == 0:
		return false, err
	case v == shFormatted:
		return true, nil
	default:
		return false, fmt.Errorf("%w: initialized word %#x", ErrCorruptHeap, v)
	}
}

// recoverLogs opens the log of a formatted sub-heap and replays its newest
// commit records (heap load path, §5.1). Unformatted sub-heaps are left
// untouched — they format lazily on first use, like the paper's
// first-malloc-on-CPU.
func (s *subheap) recoverLogs() error {
	s.lock(obs.OpRecovery, nvm.ClassRecovery, 0)
	defer s.unlock(nil)
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
	// No mirror refresh here: the header has not been audited yet, and
	// copying a corrupt header over the last good mirror would defeat the
	// restore path. recover() refreshes mirrors after the scrub passes.
	return s.attach(true)
}

// attach opens a formatted sub-heap and rebuilds its DRAM state: the mirror
// sequence, the free-list mask and the gauges. With replay it also replays
// the newest commit records (the load path); without, the image stays
// untouched (raw Attach: fsck -raw audits the post-crash image as it is).
// Caller holds the lock with metadata write rights.
func (s *subheap) attach(replay bool) error {
	if err := s.open(replay); err != nil {
		return err
	}
	s.seedMirrorSeq()
	if err := s.reseedFreeMask(); err != nil {
		return err
	}
	s.seedGauges()
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

// open attaches the commit log; with replay it also replays the newest
// records. Caller holds the lock with metadata write rights.
func (s *subheap) open(replay bool) error {
	s.batch.Abort()
	if err := s.log.Open(replay); err != nil {
		return err
	}
	s.ready = true
	return nil
}

// commit commits s.batch (txn.Batch.CommitWith). An aborted commit drops
// the staged words and reseeds the free-list mask, which staging may have
// widened. A commit left in doubt — durable perhaps, and not in place —
// drops the sub-heap to not ready, so its next ensureReady replays it.
// Caller holds mu with metadata rights.
func (s *subheap) commit(hook func() error) error {
	err := s.batch.CommitWith(hook)
	if err == nil {
		return nil
	}
	s.batch.Abort()
	if errors.Is(err, plog.ErrInDoubt) {
		s.ready = false
	} else {
		_ = s.reseedFreeMask()
	}
	return err
}

// ensureReady formats the sub-heap on first use, or attaches a formatted
// one recovery did not (a quarantined sub-heap reached through Check or
// Inspect, or any sub-heap of a raw-attached heap). Caller holds the lock
// with metadata write rights.
func (s *subheap) ensureReady() error {
	if s.ready {
		return nil
	}
	init, err := s.initializedFlag()
	if err != nil {
		return err
	}
	if init {
		return s.attach(!s.h.rawAttach)
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
	prev := s.retag(nvm.ClassFormat)
	defer s.retag(prev)
	g := s.mgr.Geometry()
	// Zero everything format will touch: header page, commit log region, and
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
	if err := s.commit(nil); err != nil {
		return err
	}
	// Commit point.
	if err := s.win.PersistU64(s.base+shInitializedOff, shFormatted); err != nil {
		return err
	}
	s.freeMask = 1 << uint(g.MaxClass())
	s.seedGauges()
	// First mirror image of the freshly formatted header (best-effort).
	s.mirrorSeq = 0
	_ = s.updateMirrorLocked()
	return nil
}

// quarantinedErr is the error of an op on a quarantined sub-heap.
func (s *subheap) quarantinedErr() error {
	return fmt.Errorf("%w: sub-heap %d (%s)", ErrSubheapQuarantined, s.id, s.quarantineReason())
}

// timeOp retags device traffic cls and returns a closure that restores the
// previous class and records op's latency on this sub-heap: the pressure
// ladder's defragmentation rungs, which run inside a carve's envelope. A
// no-op (returning a no-op) without telemetry.
func (s *subheap) timeOp(op obs.Op, cls nvm.OpClass) func() {
	if s.h.tel == nil {
		return func() {}
	}
	start := time.Now()
	prev := s.retag(cls)
	return func() {
		s.retag(prev)
		s.h.tel.RecordOn(s.id, op, time.Since(start))
	}
}

// alloc carves one block of at least size bytes out of this sub-heap and
// returns its device offset (paper §5.2). If lane is non-nil the allocation
// is transactional: the carve's hook persists the block's address to the
// micro-log lane before the commit record is written (§5.3), and a commit
// that fails before its record cuts the entry again.
func (s *subheap) alloc(size uint64, lane *plog.MicroLog) (uint64, error) {
	g := s.mgr.Geometry()
	class, err := g.ClassOf(size)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadSize, err)
	}
	var out [1]carved
	op, cls := obs.OpAlloc, nvm.ClassAlloc
	var name, unname func(int) error
	if lane != nil {
		op, cls = obs.OpTxAlloc, nvm.ClassTxAlloc
		n0 := lane.Count()
		name = func(int) error {
			return lane.Append(uint64(s.id)<<subheapShift | (out[0].off - g.UserBase))
		}
		unname = func(int) error { return lane.Cut(n0) }
	}
	if _, err := s.carve(op, cls, class, out[:], name, unname); err != nil {
		return 0, err
	}
	if lane != nil {
		s.stats.txAllocs.Add(1)
	} else {
		s.stats.allocs.Add(1)
	}
	return out[0].off, nil
}

// pressure tracks which one-shot recovery rungs of the allocation pressure
// ladder have fired. One instance spans all retries of one carve.
type pressure struct {
	defraggedList, defraggedProbe, extended bool
}

// relievePressure runs the allocation pressure ladder rung matching err:
// hash-table pressure defragments the probe window then extends the table
// (§5.2); space pressure merges free lists upward (§5.4). It returns
// retry=true when a rung made progress and the caller should re-attempt.
// With the ladder exhausted, space pressure returns errNoFreeBlock
// unwrapped, which carve words as out of memory without halving its
// batch; everything else returns ready to surface. Caller holds mu with
// metadata rights on a ready sub-heap and must have aborted any
// half-staged batch.
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
		if !p.defraggedList {
			p.defraggedList = true
			done := s.timeOp(obs.OpDefrag, nvm.ClassDefrag)
			progress, derr := s.defragFreeLists(class)
			done()
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
// batch exactly as it was — carve relies on that to commit a partial
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

// carved is one block a carve staged: its device offset and the class it
// was split from (for the gauges).
type carved struct {
	off   uint64
	found int
}

// carve carves up to len(out) blocks of class under one lock hold and one
// commit (paper §5.2), fills out with them and returns how many: Alloc and
// TxAlloc carve one, a magazine refill its capacity. A non-nil name runs
// as the commit hook, before the record is written, and makes the n blocks'
// names durable — a TxAlloc's micro-log entry, a refill's manifest entries
// — so by the time the carve's record is durable every block is named, and
// recovery either finds the carve undone (its names free no-ops) or the
// names and returns the blocks. A commit that fails before its record is
// durable calls unname(n) before the lock is released: the blocks stay free
// for anyone to carve, and a surviving name would let recovery free them
// under their next owner.
//
// Under space pressure a partial batch (at least one block) commits; with
// nothing carvable the pressure ladder runs (relievePressure). A batch too
// large for one commit record, or for the hash table's probe windows after
// the ladder ran, halves and retries.
func (s *subheap) carve(op obs.Op, cls nvm.OpClass, class int, out []carved, name, unname func(n int) error) (n int, err error) {
	if s.isQuarantined() {
		return 0, s.quarantinedErr()
	}
	take := sampleSpan
	if op == obs.OpRefill {
		take |= sampleLatency
	}
	g := s.mgr.Geometry()
	s.lock(op, cls, take)
	defer func() { s.unlock(err) }()
	if s.env.span {
		s.env.bytes = uint64(len(out)) * g.ClassSize(class)
	}
	if err := s.ensureReady(); err != nil {
		return 0, err
	}
	var hook func() error
	if name != nil {
		hook = func() error { return name(n) }
	}
	var p pressure
	for want := len(out); ; {
		for n = 0; n < want; n++ {
			if out[n].off, out[n].found, err = s.carveOne(class); err != nil {
				break
			}
		}
		// A failed find stages nothing, so space pressure after the first
		// carve leaves a batch that commits as it is.
		if n == want || n > 0 && errors.Is(err, errNoFreeBlock) {
			if err = s.commit(hook); err == nil {
				break
			}
			if errors.Is(err, plog.ErrLogFull) && want > 1 {
				want /= 2 // the record does not fit, and the hook did not run
				continue
			}
			var uerr error
			if unname != nil && !errors.Is(err, plog.ErrInDoubt) {
				k := n
				uerr = s.h.retry(func() error { return unname(k) })
			}
			switch {
			case uerr != nil:
				err = errors.Join(err, uerr)
			case errors.Is(err, plog.ErrLogFull):
				err = ErrTxTooLarge
			}
			return 0, err
		}
		s.batch.Abort()
		var retry bool
		if retry, err = s.relievePressure(&p, class, err); retry {
			continue
		}
		if errors.Is(err, ErrOutOfMemory) && want > 1 {
			want /= 2 // the probe windows cannot index the whole batch
			continue
		}
		if errors.Is(err, errNoFreeBlock) {
			err = fmt.Errorf("%w: no free block of class %d", ErrOutOfMemory, class)
		}
		return 0, err
	}
	s.noteMirrorMutation()
	if s.gauge != nil {
		size := int64(g.ClassSize(class))
		for _, c := range out[:n] {
			s.gauge.allocBlocks.Add(1)
			s.gauge.allocBytes.Add(size)
			s.gauge.freeByClass[c.found].Add(-1)
			// Splitting left one free buddy at every class between the
			// request and the block carved.
			for cc := class; cc < c.found; cc++ {
				s.gauge.freeByClass[cc].Add(1)
			}
		}
	}
	return n, nil
}

// stageFree validates and stages the free of the block at blockOff into
// s.batch, reading metadata through the batch, so a block already staged
// free in it is a double free. A record that fails checkRecord is
// ErrCorruptHeap: filing it would hand out a block that overlaps others.
// Validation rejects bump the counters and leave the batch untouched; a
// staging error requires the caller to abort it. The freeMask bit is set
// at stage time — an over-approximation until the commit lands, which is
// always safe (and an aborted commit reseeds the mask).
func (s *subheap) stageFree(blockOff uint64) (class int, size uint64, err error) {
	r := s.batch
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
	g := s.mgr.Geometry()
	if err := checkRecord(g, rec); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrCorruptHeap, err)
	}
	if rec.Status == memblock.StatusFree {
		s.stats.doubleFrees.Add(1)
		return 0, 0, ErrDoubleFree
	}
	class, _ = g.ClassOf(rec.Size) // checkRecord accepted the size
	// Tail insertion delays reuse of the just-freed block (§5.5).
	if err := s.mgr.PushFreeTail(s.batch, class, slot); err != nil {
		return 0, 0, err
	}
	s.freeMask |= 1 << uint(class)
	return class, rec.Size, nil
}

// freedBlock is a staged free's block: its size class and size.
type freedBlock struct {
	class int
	size  uint64
}

// stageFreeSlack is the most words one staged free adds to a batch
// (memblock.PushFreeTail stages five).
const stageFreeSlack = 8

// free frees the blocks at devs under one lock hold (paper §5.5),
// committing whenever the next free might not fit one record; staging
// through the batch frees a block named twice once. A Free passes one
// block and a nil after and gets that block's rejection; a block a
// magazine caches is a double free, and a popped one loses its mark.
// Flush-backs and recovery pass an after: a block unknown or already free
// is then a no-op, counted in the result, and after gets, after each
// commit, how many blocks it freed and the index of the first dev it did
// not cover — also after a commit left in doubt, with none counted:
// settling it frees them. The no-op count is returned also on error. A
// corrupt record (ErrCorruptHeap) quarantines the sub-heap, whoever met it;
// the caller's misuse (ErrInvalidFree, ErrDoubleFree) changes nothing.
func (s *subheap) free(op obs.Op, cls nvm.OpClass, devs []uint64, after func(freed, upto int) error) (noops int, err error) {
	if s.isQuarantined() {
		return 0, s.quarantinedErr()
	}
	s.lock(op, cls, sampleSpan)
	defer func() { s.unlock(err) }()
	if err := s.ensureReady(); err != nil {
		return 0, err
	}
	var one [1]freedBlock // a Free stages its block without a heap allocation
	staged := one[:0]
	for i := 0; ; i++ {
		if i == len(devs) || s.batch.Len() > s.log.MaxWords()-stageFreeSlack {
			n := len(staged)
			if n > 0 {
				err := s.commit(nil)
				if errors.Is(err, plog.ErrInDoubt) && after != nil {
					return noops, errors.Join(err, after(0, i))
				}
				if err != nil {
					return noops, err
				}
				if s.gauge != nil {
					for _, f := range staged {
						s.gauge.allocBlocks.Add(-1)
						s.gauge.allocBytes.Add(-int64(f.size))
						s.gauge.freeByClass[f.class].Add(1)
					}
				}
				s.noteMirrorMutation()
				staged = staged[:0]
			}
			if after != nil {
				if err := after(n, i); err != nil {
					return noops, err
				}
			}
			if i == len(devs) {
				return noops, nil
			}
		}
		if marks := s.marks.Load(); after == nil && marks != nil && marks.release(devs[i]-s.h.lay.userBase(s.id)) {
			s.stats.doubleFrees.Add(1)
			return 0, ErrDoubleFree
		}
		class, size, err := s.stageFree(devs[i])
		switch {
		case after != nil && (errors.Is(err, ErrInvalidFree) || errors.Is(err, ErrDoubleFree)):
			noops++
		case err != nil:
			s.batch.Abort()
			if errors.Is(err, ErrCorruptHeap) {
				s.quarantine(fmt.Sprintf("free refused a corrupt record: %v", err))
			}
			return noops, err
		default:
			staged = append(staged, freedBlock{class, size})
		}
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
	if err := s.commit(nil); err != nil {
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

// defragFreeLists merges free buddies upward, class by class below target,
// until a block of class target or above exists, and reports whether one
// does (§5.4 case 1). No block reaches class NumClasses, so that target
// merges everything it can: the explicit Defragment.
func (s *subheap) defragFreeLists(target int) (bool, error) {
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
				if ok, err := satisfied(); err != nil || ok {
					return ok, err
				}
			}
		}
	}
	return satisfied()
}

// defragProbeWindow merges free blocks recorded in the probe window of key
// to open a hash slot there (§5.4 case 2).
func (s *subheap) defragProbeWindow(key uint64) (bool, error) {
	defer s.timeOp(obs.OpDefrag, nvm.ClassDefrag)()
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
	if err := s.commit(nil); err != nil {
		return err
	}
	_ = s.updateMirrorLocked()
	return nil
}

// blockSize returns the size of the allocated block starting at device
// offset blockOff (used by the facade for bounds-checked access).
func (s *subheap) blockSize(blockOff uint64) (uint64, error) {
	if s.isQuarantined() {
		return 0, s.quarantinedErr()
	}
	s.lock(obs.OpLookup, nvm.ClassOther, 0)
	defer s.unlock(nil)
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
