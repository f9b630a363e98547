// Crash recovery (paper §5.8): everything Load does after reading the
// superblock's geometry record is per-sub-heap independent — each
// sub-heap's commit log, the micro-log rollbacks and cache-manifest frees
// targeting it, and its fsck audit touch only that sub-heap's metadata
// region — so the load tail fans out over a worker pool as wide as
// runtime.GOMAXPROCS(0). It is the only load path: a single-core process
// runs the same phases on one worker.
//
// The recovered image does not depend on the width (the differential suite
// in internal/alloctest checks it image-for-image at widths 1, 2 and 8, and
// checks every width against a model of the acknowledged ops) because of
// how the work is split:
//
//   - Phase 1 recovers every sub-heap's own logs concurrently; the work was
//     already self-contained under the sub-heap lock.
//   - Phase 2 scans every lane read-only (scanLane, which lane adoption
//     and Check also call) and journals each invalid word it finds.
//   - Phase 3 replays the scanned entries grouped BY TARGET SUB-HEAP, not
//     by lane: a sub-heap's mutations depend only on its own projection of
//     the global (lane, position) replay order, and replaying its entries
//     in exactly that order — lanes ascending, positions ascending — from a
//     single worker yields the same image at every width. Replaying lanes
//     concurrently instead would interleave frees from different lanes into
//     the same free list nondeterministically. Rollbacks and manifest frees
//     go through the one locked free, in as few commits as fit one record
//     (subheap.replay).
//   - Phase 4 truncates replayed lanes and clears processed manifest words,
//     one worker per lane, after every free from phase 3 is durable, so a
//     crash at any interior point re-recovers idempotently (surviving
//     entries replay as no-ops against already-free blocks).
//
// Barriers between phases keep the crash-safety argument one-directional:
// nothing is erased (truncate, manifest clear) until everything it covers
// is durably replayed, and mirrors refresh only after the full audit joins.

package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
)

// forEachRecovery runs fn(worker, task) for every task in [0, n) on up to
// par workers. Every task runs to completion and the error of the
// LOWEST-numbered failing task is returned: aggregation is deterministic no
// matter how the pool interleaved, so a corrupt image yields the same fatal
// error at every width. Workers pull tasks from a shared counter (work
// stealing), bounding the pool while keeping long tasks from serializing
// behind short ones.
func (h *Heap) forEachRecovery(n, par int, fn func(worker, task int) error) error {
	if par > n {
		par = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// recWorker is one recovery worker's execution context: its own protection
// thread (mpk.Thread is register-like state and must never be shared
// between goroutines), its own device window so attribution recording
// stays owner-serialized — each worker charges ClassRecovery through its
// own recorder into the shared (atomic) attribution table — and the buffer
// its lane scans read a cache manifest into.
type recWorker struct {
	th  *mpk.Thread
	win mpk.Window
	buf []byte
}

// newRecWorkers builds par worker contexts. Threads are created through the
// unit so grant/revoke work under every protection mode, including a sealed
// ProtectMPKHardened unit (the authority vets the switch call sites, not
// the thread set).
func (h *Heap) newRecWorkers(par int) []recWorker {
	ws := make([]recWorker, par)
	for i := range ws {
		th := h.unit.NewThread(defaultRights(h.opts))
		win := mpk.NewWindow(h.dev, th)
		if h.tel != nil {
			win = win.WithRecorder(nvm.NewAttrRecorder(h.tel.Attribution(), nvm.ClassRecovery))
		}
		ws[i] = recWorker{th: th, win: win, buf: make([]byte, 8*h.lay.magSlots)}
	}
	return ws
}

// wrapLaneErr dresses a lane's fatal error: corruption-class failures get
// the ErrCorruptHeap prefix, device-class failures pass through with
// position context only.
func wrapLaneErr(prefix string, lane int, err error) error {
	if err == nil {
		return nil
	}
	if !quarantinable(err) {
		return fmt.Errorf("%s %d: %w", prefix, lane, err)
	}
	return fmt.Errorf("%w: %s %d: %v", ErrCorruptHeap, prefix, lane, err)
}

// laneItem is one valid entry of lane: the block at device offset dev in
// sub-heap sub, and for a manifest entry the word slot that names it.
type laneItem struct {
	sub, lane int
	slot, dev uint64
}

// laneScan is one lane as scanLane read it: its micro log, the blocks its
// open transaction's entries name (tx) and the blocks its cache manifest
// names (man), and a description of each entry and word that failed
// validation, a damaged epoch word included.
type laneScan struct {
	ml            *plog.MicroLog
	tx, man       []laneItem
	badTx, badMan []string
}

// scanLane reads lane through win and writes nothing: its micro log
// (scanMicro) and its cache manifest (scanManifest), the only code that
// decodes a lane. So Load, lane adoption and Check agree on what is valid,
// and each keeps only its policy for the invalid.
func (h *Heap) scanLane(win mpk.Window, lane int, buf []byte) (laneScan, error) {
	sc, err := h.scanMicro(win, lane)
	if err == nil {
		sc.man, sc.badMan, err = h.scanManifest(win, lane, buf)
	}
	return sc, err
}

// scanMicro reads lane's micro log, the laneScan without its manifest:
// the epoch word must pass its check, and each entry's location locToDevice.
func (h *Heap) scanMicro(win mpk.Window, lane int) (laneScan, error) {
	ml, err := plog.OpenMicroLog(win, h.lay.laneBase(lane), h.lay.laneSize)
	if err != nil {
		return laneScan{}, wrapLaneErr("micro lane", lane, err)
	}
	sc := laneScan{ml: ml}
	if ml.Damaged() {
		sc.badTx = append(sc.badTx, fmt.Sprintf("micro lane %d: epoch word fails its check; any open transaction in it leaks", lane))
	}
	for i, loc := range ml.Entries() {
		sub := uint16(loc >> subheapShift)
		dev, err := h.lay.locToDevice(sub, loc&offsetMask)
		if err != nil {
			sc.badTx = append(sc.badTx, fmt.Sprintf("micro lane %d entry %d: %v", lane, i, err))
			continue
		}
		sc.tx = append(sc.tx, laneItem{sub: int(sub), lane: lane, dev: dev})
	}
	return sc, nil
}

// scanManifest reads lane's cache manifest with one device Read into buf
// (8*magSlots bytes). A non-zero word is valid when it passes
// DecodeCacheEntry and then locToDevice; it returns the valid entries and
// a description of each invalid word.
func (h *Heap) scanManifest(win mpk.Window, lane int, buf []byte) (man []laneItem, bad []string, err error) {
	if err := win.Read(h.lay.laneManifestBase(lane), buf); err != nil {
		return nil, nil, wrapLaneErr("cache manifest", lane, err)
	}
	for k := range h.lay.magSlots {
		word := binary.LittleEndian.Uint64(buf[8*k:])
		if word == 0 {
			continue
		}
		rel, shard, ok := plog.DecodeCacheEntry(word)
		dev, err := h.lay.locToDevice(shard, rel)
		if !ok || err != nil {
			bad = append(bad, fmt.Sprintf("lane %d manifest slot %d: invalid entry %#x", lane, k, word))
			continue
		}
		man = append(man, laneItem{sub: int(shard), lane: lane, slot: k, dev: dev})
	}
	return man, bad, nil
}

// recoverFanout is the load tail on par workers: the phase structure
// documented at the top of this file.
func (h *Heap) recoverFanout(par int) error {
	// Phase 1: per-sub-heap commit-record replay and reseeding.
	err := h.forEachRecovery(len(h.subheaps), par, func(_, i int) error {
		s := h.subheaps[i]
		err := h.retry(s.recoverLogs)
		if err == nil {
			return nil
		}
		if !quarantinable(err) {
			return fmt.Errorf("sub-heap %d: %w", s.id, err)
		}
		s.quarantine(fmt.Sprintf("log recovery failed: %v", err))
		return nil
	})
	if err != nil {
		return err
	}

	workers := h.newRecWorkers(par)

	// Phase 2: read-only scan of every lane's micro log and cache manifest.
	scans := make([]laneScan, h.lay.laneCount)
	err = h.forEachRecovery(h.lay.laneCount, par, func(w, i int) error {
		return h.retry(func() (err error) {
			scans[i], err = h.scanLane(workers[w].win, i, workers[w].buf)
			return err
		})
	})
	if err != nil {
		return err
	}

	// Bucket the harvest by target sub-heap, preserving each sub-heap's
	// projection of the global replay order — lanes ascending, positions
	// ascending, micro-log rollbacks before manifest frees. This grouping
	// is the width-independence argument: sub-heap s's metadata mutations
	// are a pure function of the sequence of frees applied to s, and that
	// sequence does not depend on how many workers ran the scan. Invalid
	// entries and words are journaled and nothing is freed for them; an
	// invalid manifest word stays in place for the audit (media corruption
	// must stay visible).
	txBy := make([][]laneItem, len(h.subheaps))
	manBy := make([][]laneItem, len(h.subheaps))
	clears := make([][]bool, h.lay.laneCount)
	for lane, sc := range scans {
		for _, bad := range slices.Concat(sc.badTx, sc.badMan) {
			h.tel.Emit(obs.EventScrubFinding, -1, bad)
		}
		for _, it := range sc.tx {
			txBy[it.sub] = append(txBy[it.sub], it)
		}
		for _, it := range sc.man {
			manBy[it.sub] = append(manBy[it.sub], it)
		}
		if len(sc.man) > 0 {
			clears[lane] = make([]bool, h.lay.magSlots)
		}
	}

	// Phase 3: replay, one worker per sub-heap. Workers only mark clears —
	// each manifest slot belongs to exactly one entry and each entry to
	// exactly one sub-heap, so the marks are disjoint writes.
	err = h.forEachRecovery(len(h.subheaps), par, func(_, i int) error {
		return h.retry(func() error {
			return h.subheaps[i].replay(txBy[i], manBy[i], clears)
		})
	})
	if err != nil {
		return err
	}

	// Phase 4: truncate replayed lanes and clear processed manifest words.
	// Runs only after every replay joined: erasing a log entry before its
	// free is durable would turn a crash here into a leak.
	return h.forEachRecovery(h.lay.laneCount, par, func(w, i int) error {
		return h.retry(func() error {
			return h.finalizeLane(&workers[w], i, &scans[i], clears[i])
		})
	})
}

// replay frees one sub-heap's bucketed replay work under its lock, in as
// few commits as fit one record each: the blocks of open transactions
// first (the micro-log rollback, charged to txfree), then the blocks cache
// manifests name, marking the manifest words of each committed chunk for
// phase 4 to clear. An entry whose block is unknown or already free (the
// push never became durable, or a flush-back already returned it) counts
// as a RecoveredNoop, and its word clears too. One policy covers both: a
// corrupt record, or a sub-heap already quarantined, quarantines the
// sub-heap, counts its remaining entries as no-ops and leaves their words
// in place for the audit, and Load goes on; a device error is fatal. Each
// rolled-back entry gets an OpTxFree latency sample on its lane, an even
// share of the whole rollback.
func (s *subheap) replay(tx, man []laneItem, clears [][]bool) error {
	run := func(what string, op obs.Op, cls nvm.OpClass, items []laneItem, recovered *atomic.Uint64, words [][]bool) error {
		if len(items) == 0 {
			return nil
		}
		devs := make([]uint64, len(items))
		for i, it := range items {
			devs[i] = it.dev
		}
		freed, done := 0, 0
		noops, err := s.free(op, cls, devs, func(n, upto int) error {
			freed += n
			if words != nil {
				for _, it := range items[done:upto] {
					words[it.lane][it.slot] = true
				}
			}
			done = upto
			return nil
		})
		s.stats.frees.Add(uint64(freed))
		recovered.Add(uint64(freed))
		if quarantinable(err) {
			s.quarantine(fmt.Sprintf("%s failed: %v", what, err))
			noops, err = len(items)-freed, nil
		}
		s.stats.recoveredNoops.Add(uint64(noops))
		if err != nil {
			return fmt.Errorf("%s in sub-heap %d: %w", what, s.id, err)
		}
		return nil
	}
	start := time.Now()
	if err := run("micro-log rollback", obs.OpTxFree, nvm.ClassTxFree, tx, &s.stats.recoveredBlocks, nil); err != nil {
		return err
	}
	if s.h.tel != nil && len(tx) > 0 {
		d := time.Since(start) / time.Duration(len(tx))
		for _, it := range tx {
			s.h.tel.RecordOn(it.lane, obs.OpTxFree, d)
		}
	}
	return run("cache manifest replay", obs.OpFree, nvm.ClassRecovery, man, &s.stats.recoveredCached, clears)
}

// finalizeLane truncates lane's replayed micro log, as phase 2 read it and
// invalid entries included, rewrites it empty if its epoch word was
// damaged, and clears its processed manifest words — the durable statement
// that this lane's recovery work is done. Idempotent: re-running after a
// transient retry (or a crash and a fresh Load) redoes writes that are
// already in their final state.
func (h *Heap) finalizeLane(w *recWorker, lane int, sc *laneScan, clears []bool) error {
	if sc.ml.Count() == 0 && !sc.ml.Damaged() && !slices.Contains(clears, true) {
		return nil
	}
	h.grant(w.th)
	defer h.revoke(w.th)
	if err := sc.ml.On(w.win).Truncate(); err != nil {
		return wrapLaneErr("micro lane", lane, err)
	}
	man := plog.NewManifest(h.lay.laneManifestBase(lane))
	cleared := 0
	for slot, clear := range clears {
		if !clear {
			continue
		}
		off := man.WordOff(uint64(slot))
		if err := w.win.WriteU64(off, 0); err != nil {
			return wrapLaneErr("cache manifest", lane, err)
		}
		if err := w.win.Flush(off, 8); err != nil {
			return wrapLaneErr("cache manifest", lane, err)
		}
		cleared++
	}
	if cleared > 0 {
		w.win.Fence()
	}
	return nil
}
