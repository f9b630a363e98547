package core

import (
	"fmt"
	"math/bits"

	"poseidon/internal/memblock"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
)

// Per-thread block magazines (Options.Magazines): the lock-free fast path
// for small allocations.
//
// A magazine is a DRAM stack of pre-carved block offsets per small size
// class. Alloc pops — no lock, no flush, no device metadata read; a
// same-shard Free pushes. The persistent shadow is the thread's cache
// manifest (plog.Manifest, one 8-byte checksummed word per cached block,
// adjacent to its micro-log lane): refill writes its entries inside the
// carve transaction's commit hook with one flush+fence for the whole
// batch, so a crash can never leak a magazine — recovery returns every
// surviving entry's block to its free list idempotently.
//
// Fast-path pops and pushes update their manifest word with a plain
// store. Durability of an individual pop/push therefore defers to the
// next explicit sync point (Thread.SyncMagazines or Thread.Close): after
// a crash, a dropped push-entry replays as if the free never happened,
// and a resurrected pre-pop entry rolls the allocation back — the same
// visibility hazard as a transactional allocation whose lane never
// committed, now extended to the magazined singleton path.
//
// Known limitation: a block sitting in one thread's magazine is still
// StatusAllocated on the device, so a buggy free of it from a DIFFERENT
// thread is accepted by the locked path instead of being rejected as a
// double free. The owning thread detects its own double frees via the
// track map below.

const (
	// magStateCached marks a tracked block currently cached in the
	// magazine (vs popped out to the application).
	magStateCached = 1

	// maxMagTrack bounds the track map. Cached blocks are always tracked
	// (they are bounded by classes×capacity and correctness depends on
	// them); beyond the bound, popped blocks simply go untracked — their
	// frees take the safe locked path.
	maxMagTrack = 1 << 15
)

// magazine is the DRAM half of a thread's block cache.
type magazine struct {
	classes int
	cap     int
	man     plog.Manifest

	// blocks[c] is class c's stack of cached user-region-relative block
	// offsets; manifest words [c*cap, c*cap+len) mirror it positionally.
	blocks [][]uint64

	// track maps rel → class<<1 | state for blocks this magazine has
	// touched: cached entries catch same-thread double frees, popped
	// entries route the eventual free back onto the fast path with the
	// class already known.
	track map[uint64]uint8

	// dirty is a per-class bitmap of manifest windows touched since the
	// last sync; a clean class costs zero device ops at sync time.
	dirty uint64

	// disabled latches the magazine off (quarantined shard, uncleanable
	// adopted manifest, failed flush-back); all ops take the locked path.
	disabled bool
}

func newMagazine(classes, capacity int, man plog.Manifest) *magazine {
	m := &magazine{
		classes: classes,
		cap:     capacity,
		man:     man,
		blocks:  make([][]uint64, classes),
		track:   make(map[uint64]uint8),
	}
	for c := range m.blocks {
		m.blocks[c] = make([]uint64, 0, capacity)
	}
	return m
}

// magClassOf mirrors memblock.Geometry.ClassOf for the in-range sizes the
// fast path handles; callers bound the result against the magazine's
// class count, which caps well below the geometry's.
func magClassOf(size uint64) int {
	if size <= 1<<memblock.MinClassLog {
		return 0
	}
	return bits.Len64(size-1) - memblock.MinClassLog
}

// magAlloc is the allocation fast path: pop a cached block, refilling the
// class from the sub-heap in one batched transaction when empty. Reports
// handled=false (and the caller takes the locked path) when magazines are
// off, the size is not magazined, the shard is quarantined, or the refill
// could not deliver.
func (t *Thread) magAlloc(size uint64) (NVMPtr, bool) {
	m := t.mag
	if m == nil || m.disabled || size == 0 {
		return NVMPtr{}, false
	}
	class := magClassOf(size)
	if class >= m.classes {
		return NVMPtr{}, false
	}
	s := t.h.subheaps[t.shard]
	if s.isQuarantined() {
		// Leave any cached entries in the manifest: the capacity is out
		// of service and recovery/audit owns the evidence.
		m.disabled = true
		return NVMPtr{}, false
	}
	if len(m.blocks[class]) == 0 && !t.magRefill(s, class) {
		s.stats.magazineMisses.Add(1)
		return NVMPtr{}, false
	}
	stack := m.blocks[class]
	d := len(stack) - 1
	rel := stack[d]
	// Clear the manifest word with a plain store: the pop's durability
	// defers to the next sync point (the relaxed magazine contract).
	if t.magWriteWord(m.man.WordOff(uint64(class*m.cap+d)), 0, nvm.ClassAlloc) != nil {
		s.stats.magazineMisses.Add(1)
		return NVMPtr{}, false
	}
	m.blocks[class] = stack[:d]
	m.dirty |= 1 << uint(class)
	if len(m.track) < maxMagTrack {
		m.track[rel] = uint8(class) << 1 // popped
	} else {
		delete(m.track, rel)
	}
	s.stats.allocs.Add(1)
	s.stats.magazineHits.Add(1)
	return makePtr(t.h.heapID, uint16(t.shard), rel), true
}

// magRefill fills class from the sub-heap: one lock acquisition, one
// commit, one flush+fence for the whole batch of manifest entries.
func (t *Thread) magRefill(s *subheap, class int) bool {
	m := t.mag
	want := m.cap / 2
	if want < 1 {
		want = 1
	}
	blocks, err := s.refillMagazine(class, want, m.man, uint64(class*m.cap))
	if err != nil || len(blocks) == 0 {
		return false
	}
	base := t.h.lay.userBase(t.shard)
	for _, dev := range blocks {
		rel := dev - base
		m.blocks[class] = append(m.blocks[class], rel)
		m.track[rel] = uint8(class)<<1 | magStateCached
	}
	m.dirty |= 1 << uint(class)
	return true
}

// magFree is the free fast path: push a block this magazine previously
// popped back onto its class stack, flushing half the stack back to the
// sub-heap first when full. Reports handled=false for anything it cannot
// prove safe lock-free — the caller takes the locked (or remote-ring)
// path. A free of a block currently CACHED here is this thread's own
// double free: rejected without touching the device.
func (t *Thread) magFree(p NVMPtr) (handled bool, err error) {
	m := t.mag
	if m == nil || m.disabled || int(p.Subheap()) != t.shard {
		return false, nil
	}
	rel := p.Offset()
	enc, tracked := m.track[rel]
	if !tracked {
		return false, nil
	}
	s := t.h.subheaps[t.shard]
	if enc&magStateCached != 0 {
		s.stats.doubleFrees.Add(1)
		return true, ErrDoubleFree
	}
	class := int(enc >> 1)
	if class >= m.classes || s.isQuarantined() {
		return false, nil
	}
	if len(m.blocks[class]) == m.cap && !t.magOverflow(s, class) {
		s.stats.magazineMisses.Add(1)
		return false, nil
	}
	d := len(m.blocks[class])
	word := plog.EncodeCacheEntry(rel, uint16(t.shard))
	if t.magWriteWord(m.man.WordOff(uint64(class*m.cap+d)), word, nvm.ClassFree) != nil {
		s.stats.magazineMisses.Add(1)
		return false, nil
	}
	m.blocks[class] = append(m.blocks[class], rel)
	m.dirty |= 1 << uint(class)
	m.track[rel] = uint8(class)<<1 | magStateCached
	s.stats.frees.Add(1)
	s.stats.magazineHits.Add(1)
	return true, nil
}

// magOverflow flushes the newest cap/2 blocks of class back to the
// sub-heap; flushCached clears their manifest words under the lock so
// they cannot replay against re-carved blocks. A failed flush-back may
// have freed some of them, so it latches the magazine off.
func (t *Thread) magOverflow(s *subheap, class int) bool {
	m := t.mag
	n := m.cap / 2
	stack := m.blocks[class]
	d := len(stack)
	top := stack[d-n:]
	base := t.h.lay.userBase(t.shard)
	devs := make([]uint64, n)
	words := make([]uint64, n)
	for i, rel := range top {
		devs[i] = base + rel
		words[i] = uint64(class*m.cap + d - n + i)
	}
	if _, err := s.flushCached(devs, m.man, words); err != nil {
		m.disabled = true
		return false
	}
	for _, rel := range top {
		delete(m.track, rel)
	}
	m.blocks[class] = stack[:d-n]
	return true
}

// magSyncAll is the magazine durability sync point: every cached block
// returns to its free list, and every dirty class's full manifest window
// is cleared, flushed and fenced — covering the plain-store pops and
// pushes since the last sync, which makes every earlier magazine-path
// Alloc and Free on this thread durable. A magazine that was never
// touched since the last sync costs zero device ops. On error the blocks
// not yet freed stay durably recorded in the manifest (the next Load or
// lane adoption reclaims them) and the magazine latches off.
func (t *Thread) magSyncAll() error {
	m := t.mag
	if m == nil || m.disabled || m.dirty == 0 {
		return nil
	}
	base := t.h.lay.userBase(t.shard)
	var devs, words, rest []uint64
	for class, stack := range m.blocks {
		for i, rel := range stack {
			devs = append(devs, base+rel)
			words = append(words, uint64(class*m.cap+i))
		}
		if m.dirty&(1<<uint(class)) != 0 {
			for i := len(stack); i < m.cap; i++ {
				rest = append(rest, uint64(class*m.cap+i))
			}
		}
	}
	words = append(words, rest...)
	s := t.h.subheaps[t.shard]
	if _, err := s.flushCached(devs, m.man, words); err != nil {
		m.disabled = true
		return err
	}
	for class, stack := range m.blocks {
		for _, rel := range stack {
			delete(m.track, rel)
		}
		m.blocks[class] = stack[:0]
	}
	m.dirty = 0
	return nil
}

// magAdopt cleans a recycled lane's manifest before this thread starts
// using it: a previous Thread on this lane may have gone away without a
// successful Close flush-back (the heap stayed open, so no recovery ran).
// Valid entries are flushed back to their owning sub-heaps — adopting
// them into this magazine is unsound, they may belong to other shards —
// and their words cleared. Anything that cannot be cleaned (corrupt word,
// out-of-bounds entry, quarantined owner, device error) leaves ALL the
// evidence in place for check/recovery and latches the magazine off.
func (t *Thread) magAdopt() {
	m := t.mag
	type pending struct {
		devs  []uint64
		words []uint64
	}
	byShard := map[int]*pending{}
	for k := uint64(0); k < m.man.Slots(); k++ {
		var word uint64
		err := t.h.retry(func() error {
			var e error
			word, e = t.win.ReadU64(m.man.WordOff(k))
			return e
		})
		if err != nil {
			m.disabled = true
			return
		}
		if word == 0 {
			continue
		}
		rel, shard, ok := plog.DecodeCacheEntry(word)
		if !ok || int(shard) >= len(t.h.subheaps) || rel >= t.h.lay.userSize ||
			t.h.subheaps[shard].isQuarantined() {
			t.h.tel.Emit(obs.EventScrubFinding, -1, fmt.Sprintf(
				"lane %d manifest slot %d: uncleanable entry %#x; magazines off for this thread",
				t.laneI, k, word))
			m.disabled = true
			return
		}
		p := byShard[int(shard)]
		if p == nil {
			p = &pending{}
			byShard[int(shard)] = p
		}
		p.devs = append(p.devs, t.h.lay.userBase(int(shard))+rel)
		p.words = append(p.words, k)
	}
	for shard, p := range byShard {
		if _, err := t.h.subheaps[shard].flushCached(p.devs, m.man, p.words); err != nil {
			m.disabled = true
			return
		}
	}
}

// magWriteWord is one plain manifest-word store under the thread's grant,
// charged to the given attribution class (the manifest lives in protected
// superblock metadata, and the producer is an application thread — the
// same discipline as a remote-free ring publish).
func (t *Thread) magWriteWord(off, v uint64, cls nvm.OpClass) error {
	if t.rec != nil {
		t.rec.SetClass(cls)
		defer t.rec.SetClass(nvm.ClassUser)
	}
	t.h.grant(t.pkru)
	err := t.win.WriteU64(off, v)
	t.h.revoke(t.pkru)
	return err
}

// SyncMagazines flushes every block cached in this thread's magazines
// back to its sub-heap and persists the manifest state — the durability
// sync point of the relaxed magazine contract: after it returns, every
// earlier magazine-path Alloc and Free on this thread is durable. A no-op
// without Options.Magazines. Thread.Close performs the same sync
// (best-effort) automatically.
func (t *Thread) SyncMagazines() error {
	if err := t.check(); err != nil {
		return err
	}
	return t.magSyncAll()
}
