package core

// Heap-side glue for the allocation-site profiler and op-span tracer:
// persistence of the profiler's site table into the image's side-table
// arena, recovery of the previous table at Load, and the trace-span
// helpers the operation paths call.
//
// The side-table is a double-buffered record (plog.Slots; payload format in
// internal/plog/sites.go): a crash can lose at most the generation being
// written. A torn table is detected at Load, journalled
// (EventProfileReset), and the profile simply starts fresh. The side-table
// carries no allocator metadata, so a torn table can never quarantine a
// sub-heap or affect allocation correctness.

import (
	"fmt"
	"math/bits"
	"time"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
)

// profPersistInterval paces the background side-table writes: every Nth
// sampled allocation attempts a snapshot (TryLock — a persist already in
// flight is never waited on).
const profPersistInterval = 64

// profCharge is the bytes a sampled allocation is charged: the power-of-two
// block the allocator actually carves (min class 64 B), so profile bytes
// line up with heap occupancy rather than request sizes.
func profCharge(size uint64) uint64 {
	if size <= 64 {
		return 64
	}
	return 1 << bits.Len64(size-1)
}

// ProfileEpoch returns the current boot epoch (1 on a fresh heap,
// incremented by every Load that found a valid side-table snapshot).
func (h *Heap) ProfileEpoch() uint64 { return h.profEpoch }

// loadProfile restores the persisted site table after recovery: the newest
// valid snapshot seeds the profiler with its recovered sites and advances
// the boot epoch past the one that wrote it. Never fails the load — a torn
// or unreadable table resets the profile and journals why.
func (h *Heap) loadProfile() {
	if h.prof == nil {
		return
	}
	h.profEpoch = 1
	h.profSeq = 1
	h.prof.SetEpoch(1)
	table := h.lay.profArena()
	if table.Cap() == 0 {
		return // pre-profiler image: profiles aggregate in DRAM only
	}
	gen, blob, torn := table.Read(func(off uint64, b []byte) error {
		return h.retry(func() error { return h.profWin.Read(off, b) })
	})
	if torn {
		// No valid snapshot in a written table. Reset the (empty) profile
		// and journal it; allocation correctness is untouched.
		h.prof.Reset()
		h.tel.Emit(obs.EventProfileReset, -1,
			"profile side-table torn: no valid snapshot slot; profile reset")
	}
	if gen == 0 {
		return
	}
	h.profSeq = gen + 1 // the next snapshot supersedes this one, decodable or not
	epoch, recs, err := plog.DecodeSites(blob)
	if err != nil {
		h.prof.Reset()
		h.tel.Emit(obs.EventProfileReset, -1,
			fmt.Sprintf("profile side-table decode failed: %v; profile reset", err))
		return
	}
	h.prof.AdoptRecovered(siteRecordsToStats(recs))
	h.profEpoch = epoch + 1
	h.profWrote = true
	h.prof.SetEpoch(h.profEpoch)
}

func siteRecordsToStats(recs []plog.SiteRecord) []obs.SiteStat {
	out := make([]obs.SiteStat, 0, len(recs))
	for _, r := range recs {
		frames := make([]obs.SiteFrame, 0, len(r.Frames))
		for _, f := range r.Frames {
			frames = append(frames, obs.SiteFrame{Func: f.Func, File: f.File, Line: int(f.Line)})
		}
		out = append(out, obs.SiteStat{
			Hash:         r.Hash,
			Frames:       frames,
			LiveObjects:  r.LiveObjects,
			LiveBytes:    r.LiveBytes,
			AllocObjects: r.AllocObjects,
			AllocBytes:   r.AllocBytes,
			FreeObjects:  r.FreeObjects,
			FreeBytes:    r.FreeBytes,
			FirstEpoch:   r.FirstEpoch,
			Recovered:    true,
		})
	}
	return out
}

func siteStatsToRecords(sites []obs.SiteStat) []plog.SiteRecord {
	out := make([]plog.SiteRecord, 0, len(sites))
	for _, s := range sites {
		frames := make([]plog.SiteFrame, 0, len(s.Frames))
		for _, f := range s.Frames {
			frames = append(frames, plog.SiteFrame{Func: f.Func, File: f.File, Line: uint32(f.Line)})
		}
		out = append(out, plog.SiteRecord{
			Hash:         s.Hash,
			LiveObjects:  s.LiveObjects,
			LiveBytes:    s.LiveBytes,
			AllocObjects: s.AllocObjects,
			AllocBytes:   s.AllocBytes,
			FreeObjects:  s.FreeObjects,
			FreeBytes:    s.FreeBytes,
			FirstEpoch:   s.FirstEpoch,
			Frames:       frames,
		})
	}
	return out
}

// PersistProfile writes the profiler's current site table into the image's
// side-table arena as one snapshot generation. Safe to call at any time; a
// failed or interrupted write leaves the previous generation intact. No-op
// on heaps without telemetry, without an arena (pre-profiler image), or in
// read-only health.
func (h *Heap) PersistProfile() error {
	if h.prof == nil || h.lay.profArena().Cap() == 0 {
		return nil
	}
	if h.writable() != nil {
		return nil // read-only heap: keep the last good snapshot
	}
	h.profMu.Lock()
	defer h.profMu.Unlock()
	return h.persistProfileLocked()
}

// maybePersistProfile is the paced background persist on the sampled-alloc
// path: every profPersistInterval-th sample tries a snapshot, skipping if
// one is already in flight.
func (h *Heap) maybePersistProfile() {
	if h.profPace.Add(1)%profPersistInterval != 0 {
		return
	}
	if h.lay.profArena().Cap() == 0 || h.writable() != nil {
		return
	}
	if !h.profMu.TryLock() {
		return
	}
	_ = h.persistProfileLocked()
	h.profMu.Unlock()
}

// persistProfileLocked writes one snapshot generation. Caller holds profMu.
func (h *Heap) persistProfileLocked() error {
	sites := h.prof.Sites()
	if len(sites) == 0 && !h.profWrote {
		return nil // nothing sampled, nothing recovered: leave the arena blank
	}
	table := h.lay.profArena()
	blob, _ := plog.EncodeSites(h.profEpoch, siteStatsToRecords(sites), uint64(table.Cap()))
	h.grant(h.profThread)
	defer h.revoke(h.profThread)
	if err := table.Write(h.profWin, h.profSeq, blob, new([]byte)); err != nil {
		return err
	}
	h.profSeq++
	h.profWrote = true
	h.prof.NotePersisted()
	return nil
}

// ProfilePprof renders the current allocation-site profile as a gzipped
// pprof protobuf — the bytes /debug/pprof/poseidon_heap serves.
func (h *Heap) ProfilePprof() ([]byte, error) {
	if h.prof == nil {
		return nil, fmt.Errorf("poseidon: profiling not enabled (Options.Telemetry required)")
	}
	return h.prof.WritePprofGzip()
}

// TraceJSON renders the buffered op spans as Chrome trace-event JSON — the
// bytes /debug/optrace serves. Empty trace on heaps without Options.Trace.
func (h *Heap) TraceJSON() []byte { return h.tracer.WriteChromeTrace() }

// traceForced opens a span that records unconditionally (no sampling
// decision) — for rare, long operations like recovery and repair whose
// timeline is the whole point of the tracer. Device-op counts are diffed
// from the whole attribution table, which is exact while the operation has
// the heap to itself (load-time recovery) and best-effort otherwise.
// Returns nil when tracing is off.
func (h *Heap) traceForced(op obs.Op, subheap int) func(error) {
	if h.tracer == nil {
		return nil
	}
	start := time.Now()
	w0, f0, fe0 := attrTotals(h.tel.Attribution().Snapshot())
	r0 := h.transientRetries.Load()
	return func(err error) {
		w1, f1, fe1 := attrTotals(h.tel.Attribution().Snapshot())
		sp := obs.Span{
			Op:      op,
			Subheap: subheap,
			Lane:    -1,
			StartNS: start.UnixNano(),
			DurNS:   time.Since(start).Nanoseconds(),
			Writes:  w1 - w0,
			Flushes: f1 - f0,
			Fences:  fe1 - fe0,
			Retries: h.transientRetries.Load() - r0,
		}
		if err != nil {
			sp.Err = err.Error()
		}
		h.tracer.Record(sp)
	}
}

func attrTotals(s nvm.AttrSnapshot) (writes, flushes, fences uint64) {
	for _, c := range s {
		writes += c.Writes
		flushes += c.Flushes
		fences += c.Fences
	}
	return
}
