package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"poseidon/internal/memblock"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
)

// Per-thread block magazines (Options.Magazines): the lock-free path for
// small allocations.
//
// A magazine is a DRAM stack of pre-carved blocks per small size class.
// Alloc pops without a lock or a commit; a Free of a popped block pushes,
// whichever sub-heap owns it, so a stack can hold blocks of several
// owners and a pop hands each out under its owner's pointer. A refill
// carves from the thread's own sub-heap only. The persistent shadow is
// the thread's cache manifest (plog.Manifest, one 8-byte checksummed word
// per cached block naming its owner and offset, adjacent to its micro-log
// lane). A refill writes its entries inside the carve's commit hook, so a
// crash can never leak a magazine: recovery returns every surviving
// entry's block to its owner's free list. Every pop clears its word and
// every push sets one with a single store, flush and fence before
// returning, so each magazine Alloc and Free is as durable on return as a
// locked one, and the manifest names exactly the cached blocks.
//
// A cached block stays allocated on the device, so the owner's block
// marks (blockMarks) tell the free paths apart: a free of a cached block is
// a double free whichever thread issues it, and only a block that left a
// magazine through a pop may go back into one.

// magazine is the DRAM half of a thread's block cache.
type magazine struct {
	classes int
	cap     int
	man     plog.Manifest

	// blocks[c] is class c's stack of cached blocks as location words
	// (owner<<subheapShift | user-region offset, as in NVMPtr); manifest
	// words [c*cap, c*cap+len) mirror it positionally.
	blocks [][]uint64

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
	}
	for c := range m.blocks {
		m.blocks[c] = make([]uint64, 0, capacity)
	}
	return m
}

// Block marks: one 4-bit state per 64-byte granule of a sub-heap's user
// region, sixteen to a word, kept on the granule a block starts at.
// markCached means the block sits in some thread's magazine; markPopped+c
// means a magazine popped it (class c) and it has not been freed since;
// markNone covers everything else. Refills set markCached, pops move it to
// markPopped+c, and flush-backs and locked frees clear it. Marks change
// only by compare-and-swap, so of two frees racing for one popped block
// exactly one claims it. The marks are DRAM only, allocated at the
// sub-heap's first refill (a sub-heap no magazine refills from pays
// nothing), and start empty after Load, since recovery frees every block a
// manifest names.
type blockMarks struct{ words []atomic.Uint64 }

const (
	markNone   = 0
	markCached = 1
	markPopped = 2

	// maxMarkedClasses is how many classes a popped mark can name.
	maxMarkedClasses = 16 - markPopped
)

func newBlockMarks(userSize uint64) *blockMarks {
	return &blockMarks{words: make([]atomic.Uint64, (userSize>>memblock.MinClassLog+15)/16)}
}

// word returns the word and bit shift holding rel's mark; ok is false for
// an offset that is not granule-aligned, which no block starts at, and on
// nil marks (no refill yet), so every block reads markNone.
func (m *blockMarks) word(rel uint64) (w *atomic.Uint64, shift uint, ok bool) {
	if m == nil || rel&(1<<memblock.MinClassLog-1) != 0 {
		return nil, 0, false
	}
	g := rel >> memblock.MinClassLog
	return &m.words[g/16], uint(g%16) * 4, true
}

// get returns the mark of the block at rel.
func (m *blockMarks) get(rel uint64) uint64 {
	w, sh, ok := m.word(rel)
	if !ok {
		return markNone
	}
	return w.Load() >> sh & 15
}

// swap moves the mark of the block at rel from old to new and reports
// whether it held old.
func (m *blockMarks) swap(rel, old, new uint64) bool {
	w, sh, ok := m.word(rel)
	if !ok {
		return false
	}
	for {
		v := w.Load()
		if v>>sh&15 != old {
			return false
		}
		if w.CompareAndSwap(v, v&^(15<<sh)|new<<sh) {
			return true
		}
	}
}

// release clears the popped mark of the block at rel, if it has one, and
// reports whether the block is cached instead.
func (m *blockMarks) release(rel uint64) (cached bool) {
	for {
		switch mark := m.get(rel); {
		case mark == markCached:
			return true
		case mark == markNone || m.swap(rel, mark, markNone):
			return false
		}
	}
}

// set overwrites the mark of the block at rel.
func (m *blockMarks) set(rel, mark uint64) {
	w, sh, ok := m.word(rel)
	if !ok {
		return
	}
	for v := w.Load(); !w.CompareAndSwap(v, v&^(15<<sh)|mark<<sh); v = w.Load() {
	}
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
// class from the sub-heap in one commit when empty. Reports handled=false
// (and the caller takes the locked path) when the size is not magazined,
// the shard is quarantined, or the refill found no space; any other
// refill error is the Alloc's.
func (t *Thread) magAlloc(size uint64) (_ NVMPtr, handled bool, _ error) {
	m := t.mag
	if m == nil || m.disabled || size == 0 {
		return NVMPtr{}, false, nil
	}
	class := magClassOf(size)
	if class >= m.classes {
		return NVMPtr{}, false, nil
	}
	s := t.h.subheaps[t.shard]
	if s.isQuarantined() {
		// Leave any cached entries in the manifest: the capacity is out
		// of service and recovery/audit owns the evidence.
		m.disabled = true
		return NVMPtr{}, false, nil
	}
	if len(m.blocks[class]) == 0 {
		if err := t.magRefill(s, class); err != nil {
			s.stats.magazineMisses.Add(1)
			if errors.Is(err, ErrOutOfMemory) || errors.Is(err, ErrSubheapQuarantined) {
				return NVMPtr{}, false, nil
			}
			return NVMPtr{}, true, err
		}
	}
	stack := m.blocks[class]
	d := len(stack) - 1
	p := ptrFromWords(t.h.heapID, stack[d])
	owner := t.h.subheaps[p.Subheap()]
	if owner.isQuarantined() {
		m.disabled = true // as above: the entry stays for recovery
		return NVMPtr{}, false, nil
	}
	if t.magPersistWord(m.man.WordOff(uint64(class*m.cap+d)), 0, nvm.ClassAlloc) != nil {
		s.stats.magazineMisses.Add(1)
		return NVMPtr{}, false, nil
	}
	m.blocks[class] = stack[:d]
	owner.marks.Load().set(p.Offset(), markPopped+uint64(class))
	s.stats.allocs.Add(1)
	s.stats.magazineHits.Add(1)
	return p, true, nil
}

// magRefill fills class to capacity from the sub-heap in one carve: one
// lock acquisition, one commit. The carve's hook names the blocks before
// its record is written: it marks them cached and persists their manifest
// entries, at words class*cap… of the thread's manifest, with one
// flush+fence for the whole batch.
func (t *Thread) magRefill(s *subheap, class int) error {
	m := t.mag
	base := t.h.lay.userBase(s.id)
	out := make([]carved, m.cap)
	entries := make([]byte, 8*m.cap)
	at := m.man.WordOff(uint64(class * m.cap))
	name := func(n int) error {
		marks := s.marks.Load()
		if marks == nil {
			marks = newBlockMarks(t.h.lay.userSize)
			s.marks.Store(marks)
		}
		for i, c := range out[:n] {
			marks.set(c.off-base, markCached)
			binary.LittleEndian.PutUint64(entries[8*i:], plog.EncodeCacheEntry(c.off-base, uint16(s.id)))
		}
		return s.win.Persist(at, entries[:8*n])
	}
	unname := func(n int) error {
		marks := s.marks.Load()
		for _, c := range out[:n] {
			marks.set(c.off-base, markNone)
		}
		clear(entries)
		return s.win.Persist(at, entries[:8*n])
	}
	n, err := s.carve(obs.OpRefill, nvm.ClassAlloc, class, out, name, unname)
	if err != nil {
		return err
	}
	s.stats.magazineRefills.Add(1)
	for _, c := range out[:n] {
		m.blocks[class] = append(m.blocks[class], makePtr(0, uint16(s.id), c.off-base).Loc())
	}
	return nil
}

// magFree is the free fast path: claim a popped block, whichever sub-heap
// owns it, and push it onto its class stack, returning half the stack to
// its owners first when full. A free of a cached block is a double free,
// rejected without touching the device. Reports handled=false for every
// other block, for a quarantined owner or own shard, and when another
// free claims the block first: the caller takes the locked path. Counters go to the thread's own shard, so the fast
// path writes no other sub-heap's cache lines but the owner's mark.
func (t *Thread) magFree(p NVMPtr) (handled bool, err error) {
	m := t.mag
	if m == nil || m.disabled {
		return false, nil
	}
	owner := t.h.subheaps[p.Subheap()]
	marks := owner.marks.Load()
	rel := p.Offset()
	mark := marks.get(rel)
	s := t.h.subheaps[t.shard]
	switch {
	case mark == markCached:
		owner.stats.doubleFrees.Add(1)
		return true, ErrDoubleFree
	case mark < markPopped || owner.isQuarantined() || s.isQuarantined():
		return false, nil
	}
	class := int(mark - markPopped)
	if len(m.blocks[class]) == m.cap && !t.magOverflow(class) {
		s.stats.magazineMisses.Add(1)
		return false, nil
	}
	if !marks.swap(rel, mark, markCached) {
		return false, nil
	}
	d := len(m.blocks[class])
	off := m.man.WordOff(uint64(class*m.cap + d))
	if err := t.magPersistWord(off, plog.EncodeCacheEntry(rel, p.Subheap()), nvm.ClassFree); err != nil {
		// The word may have reached the device: the locked path may free
		// the block only once it is cleared, or recovery would free it
		// again. Failing that, the block stays cached and the magazine
		// latches off; the next Load returns the block if the word is
		// durable.
		if t.h.retry(func() error { return t.magPersistWord(off, 0, nvm.ClassFree) }) != nil {
			m.disabled = true
			return true, err
		}
		marks.set(rel, markNone)
		s.stats.magazineMisses.Add(1)
		return false, nil
	}
	m.blocks[class] = append(m.blocks[class], p.Loc())
	s.stats.frees.Add(1)
	s.stats.magazineHits.Add(1)
	return true, nil
}

// magOverflow returns the newest cap/2 blocks of class to their owners
// and reports whether they all went back (see magReturn).
func (t *Thread) magOverflow(class int) bool {
	m := t.mag
	d, n := len(m.blocks[class]), m.cap/2
	words := make([]uint64, n)
	for i := range words {
		words[i] = uint64(class*m.cap + d - n + i)
	}
	if _, err := t.magReturn(m.blocks[class][d-n:], words); err != nil {
		return false
	}
	m.blocks[class] = m.blocks[class][:d-n]
	return true
}

// magFlushAll returns every block cached in this thread's magazines to its
// owner (Close, and an Alloc that ran out of space) and reports how many
// it freed. An empty magazine costs zero device ops.
func (t *Thread) magFlushAll() (int, error) {
	m := t.mag
	if m == nil || m.disabled {
		return 0, nil
	}
	var locs, words []uint64
	for class, stack := range m.blocks {
		for i, loc := range stack {
			locs = append(locs, loc)
			words = append(words, uint64(class*m.cap+i))
		}
	}
	if len(locs) == 0 {
		return 0, nil
	}
	n, err := t.magReturn(locs, words)
	if err != nil {
		return n, err
	}
	for class := range m.blocks {
		m.blocks[class] = m.blocks[class][:0]
	}
	return n, nil
}

// magAdopt cleans a recycled lane's manifest, as scanManifest reads it,
// before this thread starts using it: a previous Thread on this lane may
// have gone away without a successful Close flush-back (the heap stayed
// open, so no recovery ran). Valid entries are returned to their owners,
// and their words and marks cleared. Anything that cannot be cleaned (an
// invalid word, a quarantined owner) leaves ALL the evidence in place for
// check/recovery and latches the magazine off, as does a manifest read
// that still fails after retries.
func (t *Thread) magAdopt() {
	var man []laneItem
	var bad []string
	err := t.h.retry(func() (err error) {
		man, bad, err = t.h.scanManifest(t.win, t.laneI, make([]byte, 8*t.h.lay.magSlots))
		return err
	})
	if err != nil {
		t.mag.disabled = true
		return
	}
	var locs, words []uint64
	for _, it := range man {
		if t.h.subheaps[it.sub].isQuarantined() {
			bad = append(bad, fmt.Sprintf("lane %d manifest slot %d: sub-heap %d quarantined", it.lane, it.slot, it.sub))
		}
		locs = append(locs, makePtr(0, uint16(it.sub), it.dev-t.h.lay.userBase(it.sub)).Loc())
		words = append(words, it.slot)
	}
	if len(bad) > 0 {
		t.h.tel.Emit(obs.EventScrubFinding, -1, bad[0]+"; magazines off for this thread")
		t.mag.disabled = true
		return
	}
	_, _ = t.magReturn(locs, words)
}

// magReturn returns cached blocks to their owners' free lists (overflow,
// thread close, an alloc out of space, lane-manifest adoption): locs[i] is
// a block's location word and words[i] the manifest word naming it. Each
// owner's blocks go back in one locked free, owners in shard order, so at
// most one sub-heap lock is held at a time. A block unknown or already
// free is a no-op — a state a crashed predecessor leaves.
//
// Each commit's words and marks are cleared (the words flushed and fenced)
// after it and under the owner's lock: before the commit point a crash
// leaves the blocks allocated, so their entries must survive or the blocks
// would leak; after unlock the blocks can be re-carved, and a surviving
// entry would let recovery free them under their new owner. A crash in
// between leaves stale, no-op entries. A commit left in doubt clears its
// words too, since its settling frees the blocks; a crash that loses it
// leaks them. A failed group may have freed some of its blocks, so it
// latches the magazine off; the blocks not yet freed stay recorded in the
// manifest, and the next Load or lane adopter reclaims them. Reports how
// many blocks were freed, also on error.
func (t *Thread) magReturn(locs, words []uint64) (n int, err error) {
	devs := make([][]uint64, len(t.h.subheaps))
	slots := make([][]uint64, len(t.h.subheaps))
	for i, loc := range locs {
		p := ptrFromWords(0, loc)
		sh := p.Subheap()
		devs[sh] = append(devs[sh], t.h.lay.userBase(int(sh))+p.Offset())
		slots[sh] = append(slots[sh], words[i])
	}
	for sh, d := range devs {
		if len(d) == 0 {
			continue
		}
		s, base := t.h.subheaps[sh], t.h.lay.userBase(sh)
		done := 0 // blocks whose words are cleared
		_, err := s.free(obs.OpFree, nvm.ClassFree, d, func(freed, upto int) error {
			if freed > 0 {
				n += freed
				s.stats.magazineFlushes.Add(1)
			}
			marks := s.marks.Load()
			for _, dev := range d[done:upto] {
				marks.set(dev-base, markNone)
			}
			clr := slots[sh][done:upto]
			done = upto
			if len(clr) == 0 {
				return nil
			}
			for _, w := range clr {
				if err := s.win.WriteU64(t.mag.man.WordOff(w), 0); err != nil {
					return err
				}
			}
			// One flush over the covering range: every pop and push persisted
			// the words between, so flushing them again changes nothing.
			lo, hi := slices.Min(clr), slices.Max(clr)
			if err := s.win.Flush(t.mag.man.WordOff(lo), (hi-lo+1)*8); err != nil {
				return err
			}
			s.win.Fence()
			return nil
		})
		if err != nil {
			t.mag.disabled = true
			return n, err
		}
	}
	return n, nil
}

// magPersistWord stores, flushes and fences one manifest word under the
// thread's grant, charged to the given attribution class (the manifest
// lives in protected superblock metadata, and the producer is an
// application thread).
func (t *Thread) magPersistWord(off, v uint64, cls nvm.OpClass) error {
	if t.rec != nil {
		t.rec.SetClass(cls)
		defer t.rec.SetClass(nvm.ClassUser)
	}
	t.h.grant(t.pkru)
	err := t.win.PersistU64(off, v)
	t.h.revoke(t.pkru)
	return err
}
