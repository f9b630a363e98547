package core

import (
	"errors"
	"fmt"
	"time"

	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
)

// Thread is a per-goroutine allocation context: it pins the goroutine to
// one sub-heap for carving blocks (a freed block goes back to the sub-heap
// that owns it, directly or through this thread's magazine), owns a
// persistent micro-log lane for transactional allocation, and carries the
// goroutine's PKRU for user-data access.
//
// A Thread must not be used concurrently from multiple goroutines. Close
// returns the lane to the heap's pool.
type Thread struct {
	h     *Heap
	shard int
	lane  *plog.MicroLog
	laneI int

	pkru *mpk.Thread // the application thread: metadata read-only
	win  mpk.Window

	// rec attributes this thread's device traffic (user-data stores, and
	// micro-log writes retagged during TxAlloc). Non-nil only with
	// telemetry; a Thread is single-goroutine by contract, so plain
	// retagging is race-free.
	rec *nvm.AttrRecorder

	// mag is the thread's block magazine (nil when the image cannot host
	// one): the lock-free alloc/free fast path, persistently shadowed by
	// the cache manifest adjacent to this lane. See magazine.go.
	mag *magazine

	// prof/profLeft drive allocation-site sampling: prof is non-nil only
	// when sampling is on (Options.Profile.Rate > 0), so a disabled
	// profiler costs the alloc path exactly one nil check. profLeft is this
	// thread's countdown to the next sample — deterministic 1-in-rate with
	// no hot-path atomics (a Thread is single-goroutine by contract).
	prof     *obs.Profiler
	profLeft int

	closed bool
}

// Thread registers a new allocation context. Shards are assigned
// round-robin over the sub-heaps — the portable analogue of the paper's
// "sub-heap of the CPU the thread runs on" (DESIGN.md §1). Quarantined
// sub-heaps are skipped: pinning a fresh thread to one would make its very
// first Alloc pay the redirect penalty for the thread's whole lifetime.
// When every sub-heap is quarantined the raw pick stands — registration
// still succeeds, and the per-op paths surface the quarantine errors.
func (h *Heap) Thread() (*Thread, error) {
	shard := int(h.nextShard.Add(1)-1) % h.lay.subheaps
	if hs, err := h.healthyShard(shard); err == nil {
		shard = hs
	}
	return h.ThreadOn(shard)
}

// ThreadOn registers an allocation context pinned to a specific sub-heap
// (benchmarks use this to model one thread per CPU).
func (h *Heap) ThreadOn(shard int) (*Thread, error) {
	if h.closed.Load() {
		return nil, ErrClosed
	}
	if shard < 0 || shard >= h.lay.subheaps {
		return nil, fmt.Errorf("poseidon: shard %d out of range [0, %d)", shard, h.lay.subheaps)
	}
	h.laneMu.Lock()
	if len(h.freeLanes) == 0 {
		h.laneMu.Unlock()
		return nil, ErrNoThreads
	}
	laneI := h.freeLanes[len(h.freeLanes)-1]
	h.freeLanes = h.freeLanes[:len(h.freeLanes)-1]
	h.laneMu.Unlock()

	pkru := h.unit.NewThread(defaultRights(h.opts))
	win := mpk.NewWindow(h.dev, pkru)
	var rec *nvm.AttrRecorder
	if h.tel != nil {
		rec = nvm.NewAttrRecorder(h.tel.Attribution(), nvm.ClassUser)
		win = win.WithRecorder(rec)
	}

	// The lane is written under the heap's protection discipline: TxAlloc
	// grants this thread metadata write access around micro-log operations.
	var sc laneScan
	err := h.retry(func() (err error) {
		sc, err = h.scanMicro(win, laneI)
		return err
	})
	if err != nil {
		h.putLane(laneI)
		return nil, err
	}
	t := &Thread{h: h, shard: shard, lane: sc.ml, laneI: laneI, pkru: pkru, win: win, rec: rec}
	if h.prof != nil && h.prof.Rate() > 0 {
		t.prof = h.prof
		t.profLeft = h.prof.Rate()
	}
	if h.magsOn && !h.rawAttach {
		t.mag = newMagazine(h.magClasses, h.magCap,
			plog.NewManifest(h.lay.laneManifestBase(laneI)))
		// A previous holder of this lane may have vanished without its
		// Close flush-back; clean (or disable on) whatever it left.
		t.magAdopt()
	}
	return t, nil
}

// Close releases the thread's micro-log lane, flushing any magazine-cached
// blocks back to the sub-heap first (best-effort: on failure the blocks
// stay durably recorded in the cache manifest and the next Load — or the
// lane's next adopter — reclaims them). An open (uncommitted) transaction
// stays logged and is rolled back at the next heap load.
func (t *Thread) Close() {
	if t.closed {
		return
	}
	_, _ = t.magFlushAll()
	t.closed = true
	t.h.putLane(t.laneI)
}

// putLane returns lane to the pool ThreadOn takes lanes from.
func (h *Heap) putLane(lane int) {
	h.laneMu.Lock()
	h.freeLanes = append(h.freeLanes, lane)
	h.laneMu.Unlock()
}

// Shard returns the sub-heap this thread carves blocks from. A magazine
// Alloc may also hand out a block another sub-heap owns, one this thread
// freed.
func (t *Thread) Shard() int { return t.shard }

// Heap returns the owning heap.
func (t *Thread) Heap() *Heap { return t.h }

func (t *Thread) check() error {
	if t.closed || t.h.closed.Load() {
		return ErrClosed
	}
	return nil
}

// allocShard resolves the sub-heap Alloc/TxAlloc should use: normally the
// thread's pinned shard, but if that sub-heap was quarantined at recovery
// the allocation redirects to the nearest healthy one — degrade, don't die.
func (t *Thread) allocShard() (int, error) {
	if !t.h.subheaps[t.shard].isQuarantined() {
		return t.shard, nil
	}
	return t.h.healthyShard(t.shard)
}

// Alloc carves a block of at least size bytes from the thread's sub-heap —
// poseidon_alloc (§4.6, §5.2).
func (t *Thread) Alloc(size uint64) (NVMPtr, error) {
	if t.h.tel == nil {
		return t.alloc(size)
	}
	start := time.Now()
	p, err := t.alloc(size)
	t.h.tel.RecordOn(t.laneI, obs.OpAlloc, time.Since(start))
	if err == nil && t.prof != nil {
		t.profSample(p, size)
	}
	return p, err
}

// profSample is the allocation-site sampling countdown: every rate-th
// successful allocation on this thread captures its call stack and charges
// the carved block (not the request) to the site, then paces a background
// side-table persist.
func (t *Thread) profSample(p NVMPtr, size uint64) {
	t.profLeft--
	if t.profLeft > 0 {
		return
	}
	t.profLeft = t.prof.Rate()
	t.prof.SampleAlloc(p.Loc(), profCharge(size), 2)
	t.h.maybePersistProfile()
}

func (t *Thread) alloc(size uint64) (NVMPtr, error) {
	if err := t.check(); err != nil {
		return NVMPtr{}, err
	}
	if err := t.h.writable(); err != nil {
		return NVMPtr{}, err
	}
	// Magazine fast path: pop a pre-carved block — no lock, no commit.
	// Falls through on any miss.
	if p, ok, err := t.magAlloc(size); ok {
		return p, err
	}
	shard, err := t.allocShard()
	if err != nil {
		return NVMPtr{}, err
	}
	s := t.h.subheaps[shard]
	dev, err := s.alloc(size, nil)
	if errors.Is(err, ErrOutOfMemory) {
		// Blocks cached here are allocated on the device: return them to
		// their owners and try once more. Other threads' caches stay
		// stranded.
		if n, _ := t.magFlushAll(); n > 0 {
			dev, err = s.alloc(size, nil)
		}
	}
	if err != nil {
		return NVMPtr{}, err
	}
	return makePtr(t.h.heapID, uint16(shard), dev-t.h.lay.userBase(shard)), nil
}

// TxAlloc performs a transactional allocation — poseidon_tx_alloc (§4.6,
// §5.3). Every allocated address is persisted to the thread's micro log;
// isEnd commits the transaction by truncating the log. If the process
// crashes before the commit, recovery frees every logged allocation.
func (t *Thread) TxAlloc(size uint64, isEnd bool) (NVMPtr, error) {
	if t.h.tel == nil {
		return t.txAlloc(size, isEnd)
	}
	start := time.Now()
	p, err := t.txAlloc(size, isEnd)
	t.h.tel.RecordOn(t.laneI, obs.OpTxAlloc, time.Since(start))
	if err == nil && t.prof != nil {
		t.profSample(p, size)
	}
	return p, err
}

func (t *Thread) txAlloc(size uint64, isEnd bool) (NVMPtr, error) {
	if err := t.check(); err != nil {
		return NVMPtr{}, err
	}
	if err := t.h.writable(); err != nil {
		return NVMPtr{}, err
	}
	// Micro-log lane writes through this thread's window are part of the
	// transactional allocation, not user traffic.
	if t.rec != nil {
		t.rec.SetClass(nvm.ClassTxAlloc)
		defer t.rec.SetClass(nvm.ClassUser)
	}
	shard, err := t.allocShard()
	if err != nil {
		return NVMPtr{}, err
	}
	s := t.h.subheaps[shard]

	// Micro-log writes happen inside the allocator: grant this thread
	// metadata write access for the duration (the lane lives in the
	// protected superblock region).
	t.h.grant(t.pkru)
	dev, err := s.alloc(size, t.lane)
	if err != nil {
		t.h.revoke(t.pkru)
		return NVMPtr{}, err
	}
	if isEnd {
		if terr := t.lane.Truncate(); terr != nil {
			t.h.revoke(t.pkru)
			return NVMPtr{}, terr
		}
	}
	t.h.revoke(t.pkru)
	return makePtr(t.h.heapID, uint16(shard), dev-t.h.lay.userBase(shard)), nil
}

// TxAbandon drops the current transaction's log without freeing its
// allocations — test helper modeling a crash between allocations.
func (t *Thread) TxAbandon() error {
	if err := t.check(); err != nil {
		return err
	}
	if t.rec != nil {
		t.rec.SetClass(nvm.ClassTxAlloc)
		defer t.rec.SetClass(nvm.ClassUser)
	}
	t.h.grant(t.pkru)
	defer t.h.revoke(t.pkru)
	return t.lane.Truncate()
}

// Free returns a block to its owning sub-heap — poseidon_free (§5.5). A
// block a magazine popped goes into this thread's magazine, whichever
// sub-heap owns it, without a lock or a commit; it returns to its owner
// when the magazine overflows or the thread closes. Any other
// cross-sub-heap free contends on the owner's lock, exactly as in the
// paper (§5.7). Invalid and double frees return an error and leave the
// heap untouched.
//
// Rejected frees are journalled (EventFreeRejected), not latency-recorded:
// an error return measures the validation path, and mixing it into the
// OpFree histogram would pollute the tail percentiles.
func (t *Thread) Free(p NVMPtr) error {
	if t.h.tel == nil {
		return t.free(p)
	}
	start := time.Now()
	err := t.free(p)
	if err != nil {
		sh := -1
		if int(p.Subheap()) < len(t.h.subheaps) {
			sh = int(p.Subheap())
		}
		t.h.tel.Emit(obs.EventFreeRejected, sh, err.Error())
		return err
	}
	t.h.tel.RecordOn(t.laneI, obs.OpFree, time.Since(start))
	// Every successful free checks the live table (not sampled): a sampled
	// allocation's site must be decremented whichever thread frees it.
	if t.prof != nil {
		t.prof.SampleFree(p.Loc())
	}
	return nil
}

func (t *Thread) free(p NVMPtr) error {
	if err := t.check(); err != nil {
		return err
	}
	if err := t.h.writable(); err != nil {
		return err
	}
	s, dev, err := t.h.resolve(p)
	if err != nil {
		return err
	}
	// Magazine fast path: a popped block, whichever shard owns it, goes
	// on this thread's class stack — no lock, no commit. Also rejects a
	// free of a block cached in any magazine.
	if handled, err := t.magFree(p); handled {
		return err
	}
	if _, err := s.free(obs.OpFree, nvm.ClassFree, []uint64{dev}, nil); err != nil {
		return err
	}
	s.stats.frees.Add(1)
	return nil
}

// BlockSize returns the usable size of the allocated block p points at.
func (t *Thread) BlockSize(p NVMPtr) (uint64, error) {
	if err := t.check(); err != nil {
		return 0, err
	}
	s, dev, err := t.h.resolve(p)
	if err != nil {
		return 0, err
	}
	return s.blockSize(dev)
}

// Window returns the thread's protection-checked device view for user-data
// access. Stores through it that stray into the metadata region fault with
// *mpk.ProtectionError — the paper's headline safety property.
func (t *Thread) Window() mpk.Window { return t.win }

// access is the shared prologue of the data accessors below: the
// closed-thread guard (Write on a closed Thread must fail like Alloc and
// Free do, not silently succeed through a stale window) plus a single
// pointer decode.
func (t *Thread) access(p NVMPtr) (uint64, error) {
	if err := t.check(); err != nil {
		return 0, err
	}
	_, dev, err := t.h.resolve(p)
	return dev, err
}

// writeAccess is access plus the health gate: user-data stores are rejected
// once the heap is ReadOnly, while reads (and Flush of already-written data)
// stay available.
func (t *Thread) writeAccess(p NVMPtr) (uint64, error) {
	if err := t.h.writable(); err != nil {
		return 0, err
	}
	return t.access(p)
}

// Write stores b into the block at p starting at byte off. The store goes
// through the thread's MPK window: in-bounds stores land in the user
// region; overflowing into metadata faults.
func (t *Thread) Write(p NVMPtr, off uint64, b []byte) error {
	dev, err := t.writeAccess(p)
	if err != nil {
		return err
	}
	return t.win.Write(dev+off, b)
}

// Read loads len(b) bytes from the block at p starting at byte off.
func (t *Thread) Read(p NVMPtr, off uint64, b []byte) error {
	dev, err := t.access(p)
	if err != nil {
		return err
	}
	return t.win.Read(dev+off, b)
}

// WriteU64 stores an 8-byte word into the block at p.
func (t *Thread) WriteU64(p NVMPtr, off uint64, v uint64) error {
	dev, err := t.writeAccess(p)
	if err != nil {
		return err
	}
	return t.win.WriteU64(dev+off, v)
}

// ReadU64 loads an 8-byte word from the block at p.
func (t *Thread) ReadU64(p NVMPtr, off uint64) (uint64, error) {
	dev, err := t.access(p)
	if err != nil {
		return 0, err
	}
	return t.win.ReadU64(dev + off)
}

// Persist writes b into the block at p and makes it durable.
func (t *Thread) Persist(p NVMPtr, off uint64, b []byte) error {
	dev, err := t.writeAccess(p)
	if err != nil {
		return err
	}
	return t.win.Persist(dev+off, b)
}

// Flush makes [off, off+n) of the block at p durable.
func (t *Thread) Flush(p NVMPtr, off, n uint64) error {
	dev, err := t.access(p)
	if err != nil {
		return err
	}
	if err := t.win.Flush(dev+off, n); err != nil {
		return err
	}
	t.win.Fence()
	return nil
}
