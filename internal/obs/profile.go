package obs

// Allocation-site heap profiler: sample 1-in-N allocations, capture the
// caller stack, and aggregate per-site live objects/bytes plus cumulative
// allocation counts in a sharded lock-free table. The persistent half —
// serializing the table into the heap image so a leak profile survives
// crashes — lives in internal/core (profile.go) and internal/plog
// (sites.go); this file is the DRAM aggregation and rendering layer.
//
// Two kinds of site coexist in the table:
//
//   - Live sites, keyed by a hash of raw caller PCs (cheap to compute on
//     the sampled alloc path). Their frames are symbolized lazily at
//     snapshot time via runtime.CallersFrames.
//   - Recovered sites, adopted from the persistent side-table after a
//     restart. PCs do not survive a restart (a recompiled or re-laid-out
//     binary reuses addresses for different code), so they are keyed by a
//     hash of their symbolized frames and carry the frame strings
//     directly.
//
// Sites() merges the two views by symbolized-frame identity: an allocation
// site that leaked before a crash and keeps leaking after the restart shows
// up as ONE row whose live bytes span both lives of the process.

import (
	"hash/fnv"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

const (
	// profMaxFrames is how many caller PCs a sample captures.
	profMaxFrames = 24

	// profShardCount shards both the site table and the live-pointer map.
	// Power of two; indexed by site-hash / pointer-hash bits.
	profShardCount = 8

	// profShardSlots is the open-addressed site capacity per shard. A
	// program has a bounded number of distinct allocation sites; 512×8 =
	// 4096 sites is far beyond any real workload, and overflow is counted
	// (droppedSites), never silent.
	profShardSlots = 512

	// profProbeLimit bounds linear probing before a site is dropped.
	profProbeLimit = 64
)

// SiteFrame is one symbolized stack frame of an allocation site.
type SiteFrame struct {
	Func string
	File string
	Line int
}

// siteEntry is one allocation site's counters. Counter fields are atomics
// (hot path); the PC array is written exactly once by the inserting
// goroutine and published with the ready flag.
type siteEntry struct {
	liveObjects  atomic.Int64
	liveBytes    atomic.Int64
	allocObjects atomic.Uint64
	allocBytes   atomic.Uint64
	freeObjects  atomic.Uint64
	freeBytes    atomic.Uint64
	firstEpoch   atomic.Uint64

	ready atomic.Bool // pcs/recFrames published
	npcs  int
	pcs   [profMaxFrames]uintptr
	// recFrames is set instead of pcs for sites adopted from the
	// persistent side-table (recovered=true).
	recFrames []SiteFrame
	recovered bool
}

// profShard is one lock-free slice of the site table: open-addressed
// CAS-claimed keys with parallel entries, allocated lazily on first insert.
type profShard struct {
	init    atomic.Bool
	initMu  sync.Mutex
	keys    []atomic.Uint64
	entries []siteEntry

	// live maps a sampled pointer's location word to its site + charged
	// bytes so the eventual free decrements the right site. Mutex-guarded:
	// only sampled pointers (1-in-N) ever enter, and frees of unsampled
	// pointers pay one lock/lookup/unlock only while profiling is enabled.
	liveMu sync.Mutex
	live   map[uint64]liveRec
}

type liveRec struct {
	site  *siteEntry
	bytes uint64
}

func (sh *profShard) ensure() {
	if sh.init.Load() {
		return
	}
	sh.initMu.Lock()
	if !sh.init.Load() {
		sh.keys = make([]atomic.Uint64, profShardSlots)
		sh.entries = make([]siteEntry, profShardSlots)
		sh.live = make(map[uint64]liveRec)
		sh.init.Store(true)
	}
	sh.initMu.Unlock()
}

// Profiler samples allocations and aggregates them by call site. All
// methods are safe for concurrent use and nil-safe (no-ops on nil).
type Profiler struct {
	rate   int
	shards [profShardCount]profShard

	epoch atomic.Uint64 // current boot epoch (set by core at load)

	sampledAllocs atomic.Uint64
	sampledFrees  atomic.Uint64
	droppedSites  atomic.Uint64 // samples lost to a full site table
	persistGen    atomic.Uint64 // persisted generations (set by core)
}

// NewProfiler creates a profiler sampling 1-in-rate allocations. rate 0 (or
// negative) disables sampling — the profiler still accepts recovered sites
// and renders them, which is what offline tools need.
func NewProfiler(rate int) *Profiler {
	if rate < 0 {
		rate = 0
	}
	return &Profiler{rate: rate}
}

// Rate returns the sampling rate (0 = sampling disabled).
func (p *Profiler) Rate() int {
	if p == nil {
		return 0
	}
	return p.rate
}

// SetEpoch sets the current boot epoch stamped on newly seen sites.
func (p *Profiler) SetEpoch(e uint64) {
	if p != nil {
		p.epoch.Store(e)
	}
}

// Epoch returns the current boot epoch.
func (p *Profiler) Epoch() uint64 {
	if p == nil {
		return 0
	}
	return p.epoch.Load()
}

// hashPCs mixes a PC stack into a 64-bit site key (never 0).
func hashPCs(pcs []uintptr) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, pc := range pcs {
		h ^= uint64(pc)
		h *= 0x100000001B3
		h ^= h >> 29
	}
	if h == 0 {
		h = 1
	}
	return h
}

// findOrInsert returns the entry for key, claiming an empty slot if new.
// Returns nil when the probe window is exhausted (table pressure).
func (p *Profiler) findOrInsert(key uint64) *siteEntry {
	sh := &p.shards[key&(profShardCount-1)]
	sh.ensure()
	idx := (key >> 3) % profShardSlots
	for i := 0; i < profProbeLimit; i++ {
		slot := (idx + uint64(i)) % profShardSlots
		k := sh.keys[slot].Load()
		if k == key {
			return &sh.entries[slot]
		}
		if k == 0 {
			if sh.keys[slot].CompareAndSwap(0, key) {
				return &sh.entries[slot]
			}
			// Lost the race; re-check the slot for our key.
			if sh.keys[slot].Load() == key {
				return &sh.entries[slot]
			}
		}
	}
	p.droppedSites.Add(1)
	return nil
}

// SampleAlloc records one sampled allocation of size bytes at the caller's
// call site. loc is the pointer's stable location word (used to attribute
// the eventual free); skip is the number of stack frames above
// runtime.Callers to drop (the caller's own wrappers). Nil-safe.
func (p *Profiler) SampleAlloc(loc, size uint64, skip int) {
	if p == nil {
		return
	}
	var buf [profMaxFrames]uintptr
	n := runtime.Callers(skip+2, buf[:]) // +2: runtime.Callers + SampleAlloc
	if n == 0 {
		return
	}
	key := hashPCs(buf[:n])
	e := p.findOrInsert(key)
	if e == nil {
		return
	}
	if !e.ready.Load() {
		// First claimant publishes the frames. A racing second sampler of
		// the same site key writes identical PCs, so the double store is
		// benign; ready is only observed by snapshotting readers.
		e.npcs = n
		copy(e.pcs[:], buf[:n])
		e.firstEpoch.Store(p.epoch.Load())
		e.ready.Store(true)
	}
	e.liveObjects.Add(1)
	e.liveBytes.Add(int64(size))
	e.allocObjects.Add(1)
	e.allocBytes.Add(size)
	p.sampledAllocs.Add(1)

	lsh := &p.shards[(loc*0x9E3779B97F4A7C15>>32)&(profShardCount-1)]
	lsh.ensure()
	lsh.liveMu.Lock()
	lsh.live[loc] = liveRec{site: e, bytes: size}
	lsh.liveMu.Unlock()
}

// SampleFree attributes a free to the site that allocated loc, if that
// allocation was sampled. Nil-safe; unknown pointers are no-ops.
func (p *Profiler) SampleFree(loc uint64) {
	if p == nil {
		return
	}
	lsh := &p.shards[(loc*0x9E3779B97F4A7C15>>32)&(profShardCount-1)]
	if !lsh.init.Load() {
		return
	}
	lsh.liveMu.Lock()
	rec, ok := lsh.live[loc]
	if ok {
		delete(lsh.live, loc)
	}
	lsh.liveMu.Unlock()
	if !ok {
		return
	}
	rec.site.liveObjects.Add(-1)
	rec.site.liveBytes.Add(-int64(rec.bytes))
	rec.site.freeObjects.Add(1)
	rec.site.freeBytes.Add(rec.bytes)
	p.sampledFrees.Add(1)
}

// AdoptRecovered seeds the table with sites decoded from the persistent
// side-table after a restart. Each record is keyed by its persisted
// (frame-identity) hash and carries its symbolized frames; its live counts
// become the pre-crash baseline. Nil-safe.
func (p *Profiler) AdoptRecovered(sites []SiteStat) {
	if p == nil {
		return
	}
	for i := range sites {
		s := &sites[i]
		e := p.findOrInsert(s.Hash)
		if e == nil {
			continue
		}
		if !e.ready.Load() {
			e.recFrames = append([]SiteFrame(nil), s.Frames...)
			e.recovered = true
			e.firstEpoch.Store(s.FirstEpoch)
			e.ready.Store(true)
		}
		e.liveObjects.Add(s.LiveObjects)
		e.liveBytes.Add(s.LiveBytes)
		e.allocObjects.Add(s.AllocObjects)
		e.allocBytes.Add(s.AllocBytes)
		e.freeObjects.Add(s.FreeObjects)
		e.freeBytes.Add(s.FreeBytes)
	}
}

// SiteStat is one allocation site in a profile snapshot. Counts are the raw
// sampled values; multiply by Rate for an estimate of the population (the
// pprof renderer does this scaling).
type SiteStat struct {
	// Hash identifies the site by symbolized-frame identity — stable
	// across restarts, and the key the persistent side-table uses.
	Hash   uint64
	Frames []SiteFrame
	// LiveObjects/LiveBytes are sampled blocks allocated and not yet
	// freed (for recovered sites: as of the last persisted snapshot).
	LiveObjects  int64
	LiveBytes    int64
	AllocObjects uint64
	AllocBytes   uint64
	FreeObjects  uint64
	FreeBytes    uint64
	// FirstEpoch is the boot epoch the site was first observed in. A site
	// with live bytes and FirstEpoch < the current epoch has been leaking
	// across restarts.
	FirstEpoch uint64
	// Recovered marks a site (partly) reconstructed from the persistent
	// side-table rather than observed live in this process.
	Recovered bool
}

// FrameHash returns the symbolized-frame identity hash of frames — the
// restart-stable site key.
func FrameHash(frames []SiteFrame) uint64 {
	h := fnv.New64a()
	for _, f := range frames {
		h.Write([]byte(f.Func))
		h.Write([]byte{0})
		h.Write([]byte(f.File))
		h.Write([]byte{0})
		h.Write([]byte(strconv.Itoa(f.Line)))
		h.Write([]byte{'\n'})
	}
	v := h.Sum64()
	if v == 0 {
		v = 1
	}
	return v
}

// internalFrame reports frames inside the allocator itself, trimmed from
// symbolized stacks so profiles lead with the application call site.
func internalFrame(fn string) bool {
	return strings.Contains(fn, "poseidon/internal/core.") ||
		strings.Contains(fn, "poseidon/internal/obs.") ||
		strings.HasPrefix(fn, "poseidon.")
}

// symbolize resolves a PC stack to frames, dropping the allocator's own
// leading wrappers.
func symbolize(pcs []uintptr) []SiteFrame {
	frames := runtime.CallersFrames(pcs)
	var out []SiteFrame
	for {
		fr, more := frames.Next()
		if fr.Function != "" && !(len(out) == 0 && internalFrame(fr.Function)) {
			out = append(out, SiteFrame{Func: fr.Function, File: fr.File, Line: fr.Line})
		}
		if !more {
			break
		}
	}
	if len(out) == 0 {
		out = append(out, SiteFrame{Func: "unknown", File: "", Line: 0})
	}
	return out
}

// Sites returns the profile: every site with any activity, symbolized and
// merged by frame identity (a recovered site and its live re-observation
// collapse into one row), sorted by live bytes descending. Nil-safe.
func (p *Profiler) Sites() []SiteStat {
	if p == nil {
		return nil
	}
	merged := map[uint64]*SiteStat{}
	for si := range p.shards {
		sh := &p.shards[si]
		if !sh.init.Load() {
			continue
		}
		for i := range sh.entries {
			if sh.keys[i].Load() == 0 {
				continue
			}
			e := &sh.entries[i]
			if !e.ready.Load() {
				continue
			}
			var frames []SiteFrame
			if e.recovered {
				frames = e.recFrames
			} else {
				frames = symbolize(e.pcs[:e.npcs])
			}
			key := FrameHash(frames)
			st, ok := merged[key]
			if !ok {
				st = &SiteStat{Hash: key, Frames: frames, FirstEpoch: e.firstEpoch.Load()}
				merged[key] = st
			}
			st.LiveObjects += e.liveObjects.Load()
			st.LiveBytes += e.liveBytes.Load()
			st.AllocObjects += e.allocObjects.Load()
			st.AllocBytes += e.allocBytes.Load()
			st.FreeObjects += e.freeObjects.Load()
			st.FreeBytes += e.freeBytes.Load()
			st.Recovered = st.Recovered || e.recovered
			if fe := e.firstEpoch.Load(); fe < st.FirstEpoch {
				st.FirstEpoch = fe
			}
		}
	}
	out := make([]SiteStat, 0, len(merged))
	for _, st := range merged {
		if st.LiveObjects != 0 || st.LiveBytes != 0 || st.AllocObjects != 0 {
			out = append(out, *st)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LiveBytes != out[j].LiveBytes {
			return out[i].LiveBytes > out[j].LiveBytes
		}
		return out[i].Hash < out[j].Hash
	})
	return out
}

// LeakSites returns the sites still holding live bytes that were first seen
// before the given epoch — "blocks live since before epoch E, by allocation
// site", the persistent-heap leak report. Nil-safe.
func (p *Profiler) LeakSites(beforeEpoch uint64) []SiteStat {
	var out []SiteStat
	for _, s := range p.Sites() {
		if s.LiveBytes > 0 && s.FirstEpoch < beforeEpoch {
			out = append(out, s)
		}
	}
	return out
}

// Reset drops every site and live-pointer record — the recovery action when
// the persistent side-table proves torn. Counters (sampled totals, dropped
// sites) survive; the persisted-generation counter is reset by core.
func (p *Profiler) Reset() {
	if p == nil {
		return
	}
	for si := range p.shards {
		sh := &p.shards[si]
		if !sh.init.Load() {
			continue
		}
		sh.liveMu.Lock()
		for i := range sh.keys {
			sh.keys[i].Store(0)
			sh.entries[i] = siteEntry{}
		}
		sh.live = make(map[uint64]liveRec)
		sh.liveMu.Unlock()
	}
}

// ProfileStats is the profiler's summary block in a telemetry snapshot.
type ProfileStats struct {
	Enabled       bool // sampling active (rate > 0)
	Rate          int
	Epoch         uint64
	Sites         int
	SampledAllocs uint64
	SampledFrees  uint64
	DroppedSites  uint64
	PersistedGens uint64
}

// Stats summarises the profiler. Nil-safe (zero value).
func (p *Profiler) Stats() ProfileStats {
	if p == nil {
		return ProfileStats{}
	}
	return ProfileStats{
		Enabled:       p.rate > 0,
		Rate:          p.rate,
		Epoch:         p.epoch.Load(),
		Sites:         len(p.Sites()),
		SampledAllocs: p.sampledAllocs.Load(),
		SampledFrees:  p.sampledFrees.Load(),
		DroppedSites:  p.droppedSites.Load(),
		PersistedGens: p.persistGen.Load(),
	}
}

// NotePersisted bumps the persisted-generation counter (called by core
// after each successful side-table write).
func (p *Profiler) NotePersisted() {
	if p != nil {
		p.persistGen.Add(1)
	}
}
