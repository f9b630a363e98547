package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"

	"poseidon"
	"poseidon/internal/alloc"
	"poseidon/internal/core"
	"poseidon/internal/fastfair"
	"poseidon/internal/nvm"
)

// workload is one input set. Its set-up builds a heap and positions every
// worker's op stream after warm-up; the timed pass and the traced pass each
// get their own set-up, from the same seed.
type workload struct {
	name  string
	setup func(e *env) (instance, error)
	// tracedSteps is the traced pass's steps per worker at scale 1.
	tracedSteps int
	// busyClock rates throughput over op time only: restart spends most of
	// its wall time decoding images, which a DAX restart would not do.
	busyClock bool
}

var workloads = []workload{
	{name: "fig6-256", setup: setupFig6, tracedSteps: 200_000},
	{name: "larson", setup: setupLarson, tracedSteps: 50_000},
	{name: "tx-mixed", setup: setupTxMixed, tracedSteps: 200_000},
	{name: "ycsb-a", setup: setupYCSB, tracedSteps: 100_000},
	{name: "restart", setup: setupRestart, tracedSteps: 20, busyClock: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what a set-up needs: the seed and scale and, in the traced pass
// only, the telemetry registry and the span recorder.
type env struct {
	seed  int64
	scale float64
	tel   *poseidon.Telemetry
	tr    *tracer
}

// n scales a size, keeping at least one.
func (e *env) n(base int) int { return max(1, int(float64(base)*e.scale)) }

func (e *env) thread(t *core.Thread) thread {
	if e.tr == nil {
		return t
	}
	return tracedThread{t: t, tr: e.tr}
}

func (e *env) tagger(h *core.Heap) tagger {
	return tagger{on: e.tr != nil, seed: uint64(e.seed), dev: h.Device()}
}

// newHeap creates a heap with library defaults: only geometry is set, and
// telemetry only in the traced pass.
func (e *env) newHeap(subheaps int, userSize, metaSize uint64) (*core.Heap, error) {
	h, err := poseidon.Create(poseidon.Options{
		Subheaps:        subheaps,
		SubheapUserSize: userSize,
		SubheapMetaSize: metaSize,
		Telemetry:       e.tel,
	})
	if err != nil {
		return nil, err
	}
	return h.Heap, nil
}

// instance is one set-up heap and its workers.
type instance interface {
	workers() int
	// step performs worker w's next op (Larson: one alloc and one free).
	step(w int, r *recorder) error
	heap() *core.Heap
	// live is the number of blocks the benchmark holds.
	live() uint64
	// counts returns the cumulative device and allocator counters.
	counts() counts
	close()
}

// warm runs every worker for steps steps without recording.
func warm(inst instance, steps int) error {
	for i := 0; i < steps; i++ {
		for w := 0; w < inst.workers(); w++ {
			if err := inst.step(w, nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// verify is the end-of-pass correctness gate: a clean audit, and exactly
// the blocks the benchmark holds are allocated.
func verify(h *core.Heap, live uint64) error {
	rep, err := h.Check()
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if !rep.OK() {
		return fmt.Errorf("check: %s", strings.Join(rep.Problems, "; "))
	}
	if rep.AllocatedBlocks != live {
		return fmt.Errorf("check: %d blocks allocated, benchmark holds %d", rep.AllocatedBlocks, live)
	}
	return nil
}

// reload restarts a heap the way a cleanly stopped process would: save the
// image, decode it onto a fresh device and run recovery.
func reload(h *core.Heap, tel *poseidon.Telemetry) (*core.Heap, int64, error) {
	var buf bytes.Buffer
	if err := h.Device().SaveTo(&buf); err != nil {
		return nil, 0, err
	}
	t := nanotime()
	dev, err := nvm.LoadFrom(&buf, nvm.Options{Stats: true})
	if err != nil {
		return nil, 0, err
	}
	decode := nanotime() - t
	h2, err := core.Load(dev, core.Options{Telemetry: tel})
	return h2, decode, err
}

const (
	cWrites = iota
	cBytes
	cFlushes
	cFences
	cSwitches
	cAllocs // Alloc and TxAlloc
	cFrees
	cMagHits
	cMagMisses
	cRingFrees
	cCombinedOps
	cRecovered
	numCounts
)

type counts [numCounts]uint64

func countsOf(h *core.Heap) counts {
	d, s := h.DeviceStats(), h.Stats()
	return counts{
		cWrites: d.Writes, cBytes: d.BytesWritten, cFlushes: d.Flushes, cFences: d.Fences,
		cSwitches: s.PermissionSwitches, cAllocs: s.Allocs + s.TxAllocs, cFrees: s.Frees,
		cMagHits: s.MagazineHits, cMagMisses: s.MagazineMisses, cRingFrees: s.RemoteFrees,
		cCombinedOps: s.CombinedOps, cRecovered: s.RecoveredBlocks,
	}
}

func (a counts) plus(b counts) counts {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

func (a counts) minus(b counts) counts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// tagger writes a check word into each block at allocation and verifies it
// at free. Only the traced pass tags, through the untraced thread, so the
// check costs the timed pass nothing and adds no spans. The device writes
// the tags make are tallied, and exclude takes them out of the counts.
type tagger struct {
	on            bool
	seed          uint64
	seq           uint64
	dev           *nvm.Device
	writes, bytes uint64
}

func (g *tagger) put(t *core.Thread, p core.NVMPtr) (uint64, error) {
	if !g.on {
		return 0, nil
	}
	g.seq++
	tag := tagOf(g.seed, g.seq)
	d0 := g.dev.StatsSnapshot()
	err := t.WriteU64(p, 0, tag)
	d1 := g.dev.StatsSnapshot()
	g.writes += d1.Writes - d0.Writes
	g.bytes += d1.BytesWritten - d0.BytesWritten
	return tag, err
}

// exclude takes the tags' device writes out of c.
func (g *tagger) exclude(c counts) counts {
	c[cWrites] -= g.writes
	c[cBytes] -= g.bytes
	return c
}

func (g *tagger) check(t *core.Thread, p core.NVMPtr, want uint64) error {
	if !g.on {
		return nil
	}
	got, err := t.ReadU64(p, 0)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("block %v: tag %#x, want %#x", p, got, want)
	}
	return nil
}

// fig6 is the Figure 6 micro at 256 B: one worker on one sub-heap.
type fig6 struct {
	h     *core.Heap
	raw   *core.Thread
	t     thread
	gen   *microGen
	slots []core.NVMPtr
	tags  []uint64
	tag   tagger
}

const fig6Size = 256

func setupFig6(e *env) (instance, error) {
	h, err := e.newHeap(1, 16<<20, 0)
	if err != nil {
		return nil, err
	}
	raw, err := h.ThreadOn(0)
	if err != nil {
		return nil, err
	}
	w := &fig6{h: h, raw: raw, t: e.thread(raw), gen: newMicroGen(streamSeed(e.seed, "fig6-256", 0)), tag: e.tagger(h)}
	return w, warm(w, e.n(100_000))
}

func (w *fig6) workers() int     { return 1 }
func (w *fig6) heap() *core.Heap { return w.h }
func (w *fig6) live() uint64     { return uint64(len(w.slots)) }
func (w *fig6) counts() counts   { return w.tag.exclude(countsOf(w.h)) }
func (w *fig6) close()           { w.raw.Close(); _ = w.h.Close() }

func (w *fig6) step(_ int, r *recorder) error {
	alloc, k := w.gen.next()
	if alloc {
		t0 := r.begin()
		p, err := w.t.Alloc(fig6Size)
		if err := r.end(opAlloc, t0, err); err != nil {
			return err
		}
		tag, err := w.tag.put(w.raw, p)
		w.slots = append(w.slots, p)
		w.tags = append(w.tags, tag)
		return err
	}
	p := w.slots[k]
	if err := w.tag.check(w.raw, p, w.tags[k]); err != nil {
		return err
	}
	t0 := r.begin()
	err := w.t.Free(p)
	if err := r.end(opFree, t0, err); err != nil {
		return err
	}
	last := len(w.slots) - 1
	w.slots[k], w.tags[k] = w.slots[last], w.tags[last]
	w.slots, w.tags = w.slots[:last], w.tags[:last]
	return nil
}

// larson is Larson's server loop: two workers on two sub-heaps replace
// blocks in one shared slot array, so about half of all frees cross
// sub-heaps.
type larson struct {
	h      *core.Heap
	heapID uint64
	raw    []*core.Thread
	t      []thread
	gens   []*larsonGen
	slots  []atomic.Uint64 // NVMPtr.Loc of each slot's block
	tags   []uint64        // traced pass only: one goroutine
	tag    tagger
}

const (
	larsonWorkers = 2
	larsonSlots   = 2048
)

func setupLarson(e *env) (instance, error) {
	h, err := e.newHeap(larsonWorkers, 16<<20, 0)
	if err != nil {
		return nil, err
	}
	l := &larson{h: h, heapID: h.HeapID(), slots: make([]atomic.Uint64, larsonSlots),
		tags: make([]uint64, larsonSlots), tag: e.tagger(h)}
	for w := 0; w < larsonWorkers; w++ {
		raw, err := h.ThreadOn(w)
		if err != nil {
			return nil, err
		}
		l.raw = append(l.raw, raw)
		l.t = append(l.t, e.thread(raw))
		l.gens = append(l.gens, newLarsonGen(streamSeed(e.seed, "larson", w), larsonSlots))
	}
	fill := rand.New(rand.NewSource(streamSeed(e.seed, "larson", -1)))
	for k := range l.slots {
		w := k % larsonWorkers
		p, err := l.t[w].Alloc(larsonMin + uint64(fill.Int63n(larsonMax-larsonMin+1)))
		if err != nil {
			return nil, fmt.Errorf("fill: %w", err)
		}
		if l.tags[k], err = l.tag.put(l.raw[w], p); err != nil {
			return nil, err
		}
		l.slots[k].Store(p.Loc())
	}
	return l, warm(l, e.n(25_000))
}

func (l *larson) workers() int     { return larsonWorkers }
func (l *larson) heap() *core.Heap { return l.h }
func (l *larson) live() uint64     { return larsonSlots }
func (l *larson) counts() counts   { return l.tag.exclude(countsOf(l.h)) }

func (l *larson) close() {
	for _, t := range l.raw {
		t.Close()
	}
	_ = l.h.Close()
}

func (l *larson) step(w int, r *recorder) error {
	k, size := l.gens[w].next()
	t0 := r.begin()
	p, err := l.t[w].Alloc(size)
	if err := r.end(opAlloc, t0, err); err != nil {
		return err
	}
	tag, err := l.tag.put(l.raw[w], p)
	if err != nil {
		return err
	}
	old := core.PtrFromLoc(l.heapID, l.slots[k].Swap(p.Loc()))
	if l.tag.on {
		if err := l.tag.check(l.raw[w], old, l.tags[k]); err != nil {
			return err
		}
		l.tags[k] = tag
	}
	if r != nil && int(old.Subheap()) != l.raw[w].Shard() {
		r.remoteFrees++
	}
	t0 = r.begin()
	err = l.t[w].Free(old)
	return r.end(opFree, t0, err)
}

// txMixed is transactional allocation across 11 size classes, with the
// oldest transactions freed FIFO.
type txMixed struct {
	h    *core.Heap
	raw  *core.Thread
	t    thread
	gen  *txGen
	fifo []txBlock // fifo[head:] are live, oldest first
	head int
	tag  tagger
}

type txBlock struct {
	p   core.NVMPtr
	tag uint64
}

func setupTxMixed(e *env) (instance, error) {
	h, err := e.newHeap(1, 64<<20, 0)
	if err != nil {
		return nil, err
	}
	raw, err := h.ThreadOn(0)
	if err != nil {
		return nil, err
	}
	w := &txMixed{h: h, raw: raw, t: e.thread(raw), gen: newTxGen(streamSeed(e.seed, "tx-mixed", 0)), tag: e.tagger(h)}
	return w, warm(w, e.n(20_000))
}

func (w *txMixed) workers() int     { return 1 }
func (w *txMixed) heap() *core.Heap { return w.h }
func (w *txMixed) live() uint64     { return uint64(len(w.fifo) - w.head) }
func (w *txMixed) counts() counts   { return w.tag.exclude(countsOf(w.h)) }
func (w *txMixed) close()           { w.raw.Close(); _ = w.h.Close() }

// txOpen reports whether the last TxAlloc left its transaction uncommitted.
func (w *txMixed) txOpen() bool { return w.gen.pos != 0 }

func (w *txMixed) step(_ int, r *recorder) error {
	free, size, end := w.gen.next()
	if !free {
		t0 := r.begin()
		p, err := w.t.TxAlloc(size, end)
		if err := r.end(opAlloc, t0, err); err != nil {
			return err
		}
		tag, err := w.tag.put(w.raw, p)
		w.fifo = append(w.fifo, txBlock{p: p, tag: tag})
		return err
	}
	b := w.fifo[w.head]
	if err := w.tag.check(w.raw, b.p, b.tag); err != nil {
		return err
	}
	t0 := r.begin()
	err := w.t.Free(b.p)
	if err := r.end(opFree, t0, err); err != nil {
		return err
	}
	w.head++
	if w.head >= fifoTxs*txLen {
		w.fifo = append(w.fifo[:0], w.fifo[w.head:]...)
		w.head = 0
	}
	return nil
}

// ycsb is YCSB workload A over FAST-FAIR: one worker, values of 100 B.
type ycsb struct {
	h       *core.Heap
	ch      *countedHandle
	hd      alloc.Handle // ch, or ch traced
	tree    index
	gen     *ycsbGen
	payload []byte
	buf     []byte
	version uint64
}

const (
	ycsbKeys  = 100_000
	ycsbValue = 100
)

// countedHandle tracks how many blocks the tree and its values hold.
type countedHandle struct {
	alloc.Handle
	live uint64
}

func (c *countedHandle) Alloc(size uint64) (alloc.Ptr, error) {
	p, err := c.Handle.Alloc(size)
	if err == nil {
		c.live++
	}
	return p, err
}

func (c *countedHandle) Free(p alloc.Ptr) error {
	err := c.Handle.Free(p)
	if err == nil {
		c.live--
	}
	return err
}

func setupYCSB(e *env) (instance, error) {
	h, err := e.newHeap(1, 64<<20, 16<<20)
	if err != nil {
		return nil, err
	}
	th, err := alloc.WrapPoseidon(h).Thread(0)
	if err != nil {
		return nil, err
	}
	y := &ycsb{h: h, ch: &countedHandle{Handle: th}, payload: make([]byte, ycsbValue), buf: make([]byte, ycsbValue)}
	y.hd = y.ch
	tree, err := fastfair.New(y.hd)
	if err != nil {
		return nil, err
	}
	y.tree = tree
	if e.tr != nil {
		y.hd = tracedHandle{Handle: y.ch, tr: e.tr}
		y.tree = tracedIndex{index: tree, tr: e.tr}
	}
	n := uint64(e.n(ycsbKeys))
	for i := uint64(0); i < n; i++ {
		key := keyOf(i)
		y.fill(key)
		v, err := y.hd.Alloc(ycsbValue)
		if err == nil {
			err = y.hd.Write(v, 0, y.payload)
		}
		if err == nil {
			err = y.hd.Persist(v, 0, ycsbValue)
		}
		if err == nil {
			err = y.tree.Insert(y.hd, key, uint64(v))
		}
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	y.gen = newYCSBGen(streamSeed(e.seed, "ycsb-a", 0), n)
	return y, nil
}

// fill writes the value payload: the key (the tag reads check), a version
// and a fixed pattern.
func (y *ycsb) fill(key uint64) {
	y.version++
	binary.LittleEndian.PutUint64(y.payload, key)
	binary.LittleEndian.PutUint64(y.payload[8:], y.version)
	for i := 16; i < len(y.payload); i++ {
		y.payload[i] = byte(i)
	}
}

func (y *ycsb) workers() int     { return 1 }
func (y *ycsb) heap() *core.Heap { return y.h }
func (y *ycsb) live() uint64     { return y.ch.live }
func (y *ycsb) counts() counts   { return countsOf(y.h) }
func (y *ycsb) close()           { y.ch.Close(); _ = y.h.Close() }

func (y *ycsb) step(_ int, r *recorder) error {
	item, update := y.gen.next()
	key := keyOf(item)
	if update {
		y.fill(key)
		t0 := r.begin()
		err := y.update(key)
		return r.end(opUpdate, t0, err)
	}
	t0 := r.begin()
	v, ok, err := y.tree.Search(y.hd, key)
	if err == nil && !ok {
		err = fmt.Errorf("read: key %#x missing", key)
	}
	if err == nil {
		err = y.hd.Read(alloc.Ptr(v), 0, y.buf)
	}
	if err := r.end(opRead, t0, err); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint64(y.buf); got != key {
		return fmt.Errorf("read: key %#x holds value tagged %#x", key, got)
	}
	return nil
}

// update puts a new value block in and frees the old one.
func (y *ycsb) update(key uint64) error {
	nv, err := y.hd.Alloc(ycsbValue)
	if err != nil {
		return err
	}
	if err := y.hd.Write(nv, 0, y.payload); err != nil {
		return err
	}
	if err := y.hd.Persist(nv, 0, ycsbValue); err != nil {
		return err
	}
	old, ok, err := y.tree.Update(y.hd, key, uint64(nv))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("update: key %#x missing", key)
	}
	return y.hd.Free(alloc.Ptr(old))
}

// restart times crash recovery of one fixed image. Set-up builds it: 8
// sub-heaps of live 256 B blocks, 16 sentinel blocks, and 32 threads each
// holding 32 uncommitted TxAllocs, crashed with EvictNone.
type restart struct {
	img       []byte
	heapID    uint64
	blocks    uint64
	sentinels []sentinel
	tel       *poseidon.Telemetry
	tr        *tracer
	last      *core.Heap
	done      counts // summed over every loaded heap, taken right after Load
	decodeNS  int64  // image decode time, outside the timed restart
	decodes   uint64
}

type sentinel struct{ loc, tag uint64 }

const (
	restartSubheaps  = 8
	restartBlocks    = 5000 // per sub-heap
	restartTxThreads = 32
	restartTxAllocs  = 32 // per thread
	restartSentinels = 16
	// restartRecovered is what every restart must roll back.
	restartRecovered = restartTxThreads * restartTxAllocs
)

func setupRestart(e *env) (instance, error) {
	ph, err := poseidon.Create(poseidon.Options{
		Subheaps: restartSubheaps, SubheapUserSize: 2 << 20, CrashTracking: true,
	})
	if err != nil {
		return nil, err
	}
	h := ph.Heap
	x := &restart{heapID: h.HeapID(), tel: e.tel, tr: e.tr}
	per := e.n(restartBlocks)
	for s := 0; s < restartSubheaps; s++ {
		t, err := h.ThreadOn(s)
		if err != nil {
			return nil, err
		}
		for i := 0; i < per; i++ {
			if _, err := t.Alloc(256); err != nil {
				return nil, err
			}
		}
		t.Close()
	}
	// Only the sentinels' contents come from the seed: the image's layout,
	// and so the recovery work and memory, is the same for every seed.
	rng := rand.New(rand.NewSource(streamSeed(e.seed, "restart", 0)))
	var word [8]byte
	for i := 0; i < restartSentinels; i++ {
		t, err := h.ThreadOn(i % restartSubheaps)
		if err != nil {
			return nil, err
		}
		p, err := t.Alloc(64)
		if err != nil {
			return nil, err
		}
		s := sentinel{loc: p.Loc(), tag: rng.Uint64()}
		binary.LittleEndian.PutUint64(word[:], s.tag)
		if err := t.Persist(p, 0, word[:]); err != nil {
			return nil, err
		}
		x.sentinels = append(x.sentinels, s)
		t.Close()
	}
	x.blocks = uint64(restartSubheaps*per + restartSentinels)
	for i := 0; i < restartTxThreads; i++ {
		t, err := h.ThreadOn(i % restartSubheaps)
		if err != nil {
			return nil, err
		}
		for j := 0; j < restartTxAllocs; j++ {
			if _, err := t.TxAlloc(256, false); err != nil {
				return nil, err
			}
		}
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := h.Device().SaveTo(&buf); err != nil {
		return nil, err
	}
	// A copy, so the image does not pin the buffer's spare capacity.
	x.img = bytes.Clone(buf.Bytes())
	return x, h.Close()
}

func (x *restart) workers() int     { return 1 }
func (x *restart) heap() *core.Heap { return x.last }
func (x *restart) live() uint64     { return x.blocks }
func (x *restart) counts() counts   { return x.done }

func (x *restart) close() {
	if x.last != nil {
		_ = x.last.Close()
		x.last = nil
	}
}

func (x *restart) step(_ int, r *recorder) error {
	t := nanotime()
	dev, err := nvm.LoadFrom(bytes.NewReader(x.img), nvm.Options{Stats: x.tel != nil})
	if err != nil {
		return err
	}
	x.decodeNS += nanotime() - t
	x.decodes++
	x.close()
	// Collect the previous image's garbage now rather than inside the
	// timed load.
	runtime.GC()
	t0 := r.begin()
	if x.tr != nil {
		x.tr.enter(spanCoreLoad)
	}
	h, err := core.Load(dev, core.Options{Telemetry: x.tel})
	if x.tr != nil {
		x.tr.exit()
	}
	if err := r.end(opRestart, t0, err); err != nil {
		return err
	}
	x.last = h
	x.done = x.done.plus(countsOf(h))
	if n := h.Stats().RecoveredBlocks; n != restartRecovered {
		return fmt.Errorf("restart rolled back %d blocks, want %d", n, restartRecovered)
	}
	t1, err := h.ThreadOn(0)
	if err != nil {
		return err
	}
	defer t1.Close()
	for _, s := range x.sentinels {
		got, err := t1.ReadU64(core.PtrFromLoc(x.heapID, s.loc), 0)
		if err != nil {
			return fmt.Errorf("sentinel %#x: %w", s.loc, err)
		}
		if got != s.tag {
			return fmt.Errorf("sentinel %#x holds %#x, want %#x", s.loc, got, s.tag)
		}
	}
	return nil
}
