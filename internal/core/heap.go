// Package core implements the Poseidon persistent memory allocator:
// per-CPU sub-heaps for scalability, fully segregated metadata guarded by
// (modeled) Intel MPK, a multi-level hash table of memory-block records for
// constant-time safety checks, and undo/micro logging for crash consistency.
//
// The exported facade for applications is the module-root package poseidon;
// this package holds the implementation and is exercised directly by the
// benchmarks and baselines.
package core

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
	"poseidon/internal/txn"
)

// Heap is a Poseidon persistent heap on one NVMM device.
type Heap struct {
	dev  *nvm.Device
	unit *mpk.Unit
	lay  layout
	opts Options

	heapID uint64

	// authority is non-nil under ProtectMPKHardened: the unit is sealed
	// and only these grant/revoke paths can switch permissions.
	authority *mpk.Authority

	sbMu     sync.Mutex // guards superblock metadata (root pointer)
	sbThread *mpk.Thread
	sbWin    mpk.Window
	sbUndo   *plog.UndoLog
	sbBatch  *txn.Batch

	subheaps []*subheap

	laneMu    sync.Mutex
	freeLanes []int
	nextShard atomic.Uint32

	// magsOn is set when Options.Magazines is enabled AND the image's
	// manifest arena is large enough for the requested geometry; magCap
	// and magClasses are the effective per-thread magazine shape.
	magsOn     bool
	magCap     int
	magClasses int

	// rawAttach marks a heap opened by Attach: no recovery has run, so
	// lazy sub-heap opening must not replay logs either (fsck -raw needs
	// the untouched post-crash image).
	rawAttach bool

	transientRetries atomic.Uint64 // I/O retries that survived ErrTransient

	// health is the current HealthState; recomputed from the quarantine set
	// and retry pressure after every transition-relevant event. healthMu
	// serializes recomputations: compute-then-store is not atomic, and two
	// concurrent recovery workers quarantining at once must not let a stale
	// computation overwrite a more-degraded state.
	health   atomic.Int32
	healthMu sync.Mutex

	// Self-healing counters (surfaced via Stats and the metrics endpoint).
	repairedSubheaps atomic.Uint64
	repairedBytes    atomic.Uint64
	mirrorRestores   atomic.Uint64

	// scrubStop/scrubDone coordinate the optional online scrubber goroutine
	// (Options.OnlineScrub); nil when the scrubber is not running.
	scrubStop chan struct{}
	scrubDone chan struct{}

	// tel is the optional telemetry registry (Options.Telemetry); nil when
	// the heap runs uninstrumented. sbRec attributes superblock-window
	// device traffic; it is retagged under sbMu (or during single-threaded
	// format/recovery).
	tel   *obs.Telemetry
	sbRec *nvm.AttrRecorder

	// prof is the allocation-site heap profiler (created whenever
	// telemetry is on, so recovered profiles render even with sampling
	// off); tracer is the sampled op-span tracer (nil unless
	// Options.Trace.Rate > 0). Both nil costs one pointer check per hook.
	prof   *obs.Profiler
	tracer *obs.Tracer

	// Profile persistence state (profile.go): a dedicated window writes
	// side-table snapshots under profMu; profEpoch is the current boot
	// epoch; profSeq is the next snapshot generation; profPace counts
	// sampled allocs to pace background persists.
	profMu     sync.Mutex
	profThread *mpk.Thread
	profWin    mpk.Window
	profSeq    uint64
	profEpoch  uint64
	profWrote  bool // a snapshot generation exists (written or recovered)
	profPace   atomic.Uint64

	// Black-box flight recorder state (blackbox.go): a dedicated window
	// publishes staged event/span records into the persistent ring under
	// bbMu; bbEpoch is the boot epoch (monotone across restarts), bbSeq the
	// next record sequence, bbHdrGen the next header generation.
	// bbRecovered holds the timeline replayed from the image at load for
	// post-mortem rendering.
	bbMu        sync.Mutex
	bbThread    *mpk.Thread
	bbWin       mpk.Window
	bbOn        bool
	bbEpoch     uint64
	bbSeq       uint64
	bbHdrGen    uint64
	bbStaged    []plog.BoxRecord
	bbSpanSeq   uint64 // tracer sequence high-water already mirrored
	bbRecovered []plog.BoxRecord
	bbPublished atomic.Uint64
	bbDropped   atomic.Uint64
	bbTorn      atomic.Uint64

	// Stall watchdog state (watchdog.go); wd is nil when disabled — the
	// sub-heap lock sites pay exactly one nil check then.
	wd          *watchdog
	tap         *nvm.LatencyTap
	stallsTotal atomic.Uint64
	openedAt    time.Time

	closed bool
	mu     sync.Mutex // guards closed
}

// Create formats a new heap on a fresh device.
func Create(opts Options) (*Heap, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	lay, err := computeLayout(opts.Subheaps, opts.SubheapUserSize, opts.SubheapMetaSize,
		opts.UndoLogSize, opts.MaxThreads, opts.MicroLogLaneSize, opts.magSlots(),
		defaultProfSize, defaultBoxSize)
	if err != nil {
		return nil, err
	}
	dev, err := nvm.NewDevice(nvm.Options{
		Capacity:      lay.capacity,
		CrashTracking: opts.CrashTracking,
		Stats:         opts.DeviceStats,
	})
	if err != nil {
		return nil, err
	}
	h, err := assemble(dev, lay, opts)
	if err != nil {
		return nil, err
	}
	if err := h.format(); err != nil {
		return nil, err
	}
	// A fresh image starts at boot epoch 1; a leak report asks for sites
	// first seen before the current epoch, so epoch 0 is reserved for
	// "never recorded".
	h.profEpoch = 1
	h.profSeq = 1
	h.prof.SetEpoch(1)
	h.initBlackboxFresh()
	h.recomputeHealth()
	h.startScrubber()
	h.startWatchdog()
	return h, nil
}

// Load attaches to an existing heap image on dev (e.g. after nvm.LoadFile,
// or in-process after a simulated crash) and runs crash recovery.
func Load(dev *nvm.Device, opts Options) (*Heap, error) {
	opts = opts.withDefaults()
	lay, err := readLayout(dev)
	if err != nil {
		return nil, err
	}
	h, err := assemble(dev, lay, opts)
	if err != nil {
		return nil, err
	}
	var start time.Time
	if h.tel != nil {
		start = time.Now()
	}
	// Recovery always records a span when tracing is on (no sampling roll):
	// its timeline is exactly what the tracer exists to show.
	tdone := h.traceForced(obs.OpRecovery, -1)
	rerr := h.recover()
	if tdone != nil {
		tdone(rerr)
	}
	if rerr != nil {
		return nil, rerr
	}
	h.loadProfile()
	h.loadBlackbox()
	h.recomputeHealth()
	if h.tel != nil {
		h.tel.Record(obs.OpLoad, time.Since(start))
		st := h.Stats()
		h.tel.Emit(obs.EventRecovery, -1, fmt.Sprintf(
			"load complete: %d tx blocks rolled back, %d no-ops, %d sub-heaps quarantined",
			st.RecoveredBlocks, st.RecoveredNoops, st.QuarantinedSubheaps))
	}
	h.startScrubber()
	h.startWatchdog()
	return h, nil
}

// Attach wires a heap over an existing image WITHOUT running recovery —
// the raw post-crash view poseidon-fsck -raw audits. Allocator operations
// on an un-recovered heap are unsafe; use Load for normal operation.
func Attach(dev *nvm.Device, opts Options) (*Heap, error) {
	opts = opts.withDefaults()
	lay, err := readLayout(dev)
	if err != nil {
		return nil, err
	}
	h, err := assemble(dev, lay, opts)
	if err != nil {
		return nil, err
	}
	h.rawAttach = true
	h.heapID, err = dev.ReadU64(sbHeapIDOff)
	if err != nil {
		return nil, err
	}
	h.grant(h.sbThread)
	h.sbUndo, err = plog.OpenUndoLog(h.sbWin, sbUndoOff, sbUndoSize)
	h.revoke(h.sbThread)
	if err != nil {
		return nil, fmt.Errorf("%w: superblock log: %v", ErrCorruptHeap, err)
	}
	h.sbBatch = txn.NewBatch(h.sbWin, h.sbUndo)
	return h, nil
}

// assemble wires the in-DRAM structures over a device (no persistent
// mutations). MPK tagging is (re)applied here: key assignments live in page
// tables, which do not survive a restart.
func assemble(dev *nvm.Device, lay layout, opts Options) (*Heap, error) {
	unit := mpk.NewUnit(dev.Capacity())
	switch opts.Protection {
	case ProtectMprotect:
		unit.SetSwitchCost(opts.MprotectCost)
	case ProtectMPK, ProtectNone:
		// MPK switch cost is ~23 cycles — below the resolution the Go
		// model can meaningfully spin, so it is charged as zero and
		// counted; ProtectNone performs no switches at all.
	}
	// Tag the superblock region and each sub-heap's metadata region.
	if err := unit.AssignRange(0, lay.subheapOff, metadataKey); err != nil {
		return nil, err
	}
	for i := 0; i < lay.subheaps; i++ {
		if err := unit.AssignRange(lay.subheapBase(i), lay.metaSize, metadataKey); err != nil {
			return nil, err
		}
	}
	h := &Heap{dev: dev, unit: unit, lay: lay, opts: opts, tel: opts.Telemetry}
	h.sbThread = unit.NewThread(defaultRights(opts))
	h.sbWin = mpk.NewWindow(dev, h.sbThread)
	if h.tel != nil {
		h.sbRec = nvm.NewAttrRecorder(h.tel.Attribution(), nvm.ClassRoot)
		h.sbWin = h.sbWin.WithRecorder(h.sbRec)
		// The profiler exists whenever telemetry does (rate 0 = sampling
		// off but recovered site tables still load and render); the tracer
		// only when a trace rate was requested.
		h.prof = obs.NewProfiler(opts.Profile.Rate)
		h.tel.SetProfiler(h.prof)
		if opts.Trace.Rate > 0 {
			h.tracer = obs.NewTracer(opts.Trace.Rate, opts.Trace.Buffer)
			h.tel.SetTracer(h.tracer)
		}
		// Side-table snapshot writes go through their own window so their
		// flushes are attributed to ClassProfile, never to the operation
		// that happened to trigger the paced persist.
		h.profThread = unit.NewThread(defaultRights(opts))
		h.profWin = mpk.NewWindow(dev, h.profThread).
			WithRecorder(nvm.NewAttrRecorder(h.tel.Attribution(), nvm.ClassProfile))
	}
	// The black-box window exists even without telemetry: Attach-mode tools
	// (poseidon-fsck, poseidon-inspect) replay the persistent ring from a
	// crashed image with no registry wired.
	h.bbThread = unit.NewThread(defaultRights(opts))
	h.bbWin = mpk.NewWindow(dev, h.bbThread)
	if h.tel != nil {
		h.bbWin = h.bbWin.WithRecorder(nvm.NewAttrRecorder(h.tel.Attribution(), nvm.ClassBlackbox))
		// Journal events mirror into the black-box staging buffer from here
		// on; the latest heap sharing a registry wins the mirror slot.
		h.tel.SetMirror(h)
	}
	if opts.Watchdog.StallThreshold > 0 {
		// Outlier threshold for the fence/flush latency tap: an eighth of
		// the stall threshold — slow device ops show up well before the
		// watchdog would fire.
		h.tap = nvm.NewLatencyTap(opts.Watchdog.StallThreshold/8, nil)
		dev.SetLatencyTap(h.tap)
	}
	h.openedAt = time.Now()

	h.freeLanes = make([]int, 0, lay.laneCount)
	for i := lay.laneCount - 1; i >= 0; i-- {
		h.freeLanes = append(h.freeLanes, i)
	}
	h.subheaps = make([]*subheap, lay.subheaps)
	for i := range h.subheaps {
		s, err := newSubheap(h, i)
		if err != nil {
			return nil, err
		}
		h.subheaps[i] = s
	}
	if opts.Magazines.Capacity > 0 {
		g, err := lay.memblockGeometry(0)
		if err != nil {
			return nil, err
		}
		classes := opts.Magazines.Classes
		if classes > g.NumClasses {
			classes = g.NumClasses
		}
		if need := uint64(classes) * uint64(opts.Magazines.Capacity); need <= lay.magSlots {
			h.magsOn = true
			h.magCap = opts.Magazines.Capacity
			h.magClasses = classes
		} else {
			// An old or differently-sized image: run without magazines
			// rather than fail the open.
			h.tel.Emit(obs.EventRecovery, -1, fmt.Sprintf(
				"magazines disabled: image provisions %d manifest words per lane, geometry needs %d",
				lay.magSlots, need))
		}
	}
	if opts.Protection == ProtectMPKHardened {
		authority, err := unit.Seal()
		if err != nil {
			return nil, err
		}
		h.authority = authority
	}
	return h, nil
}

// defaultRights is the PKRU every thread starts with: metadata read-only
// under MPK/mprotect, fully open when protection is disabled.
func defaultRights(opts Options) mpk.Rights {
	if opts.Protection == ProtectNone {
		return mpk.RightsRW
	}
	return mpk.RightsRO
}

// grant temporarily opens the metadata region for t; revoke closes it.
// Under ProtectNone both are free no-ops (the ablation baseline); under
// ProtectMPKHardened they are the only vetted WRPKRU call sites.
func (h *Heap) grant(t *mpk.Thread) {
	switch {
	case h.authority != nil:
		h.authority.SetRights(t, metadataKey, mpk.RightsRW)
	case h.opts.Protection != ProtectNone:
		t.SetRights(metadataKey, mpk.RightsRW)
	}
}

func (h *Heap) revoke(t *mpk.Thread) {
	switch {
	case h.authority != nil:
		h.authority.SetRights(t, metadataKey, mpk.RightsRO)
	case h.opts.Protection != ProtectNone:
		t.SetRights(metadataKey, mpk.RightsRO)
	}
}

// format writes the initial persistent image.
func (h *Heap) format() error {
	heapID := h.opts.HeapID
	if heapID == 0 {
		var buf [8]byte
		if _, err := rand.Read(buf[:]); err != nil {
			return fmt.Errorf("poseidon: heap id: %w", err)
		}
		heapID = binary.LittleEndian.Uint64(buf[:]) | 1 // never zero
	}
	h.heapID = heapID

	h.grant(h.sbThread)
	defer h.revoke(h.sbThread)
	w := h.sbWin
	fields := []struct {
		off uint64
		val uint64
	}{
		{sbMagicOff, heapMagic},
		{sbVersionOff, heapVersion},
		{sbHeapIDOff, heapID},
		{sbSubheapsOff, uint64(h.lay.subheaps)},
		{sbUserSizeOff, h.lay.userSize},
		{sbMetaSizeOff, h.lay.metaSize},
		{sbRootLocOff, 0},
		{sbLaneCountOff, uint64(h.lay.laneCount)},
		{sbLaneSizeOff, h.lay.laneSize},
		{sbUndoSizeOff, h.lay.undoSize},
		{sbMagSlotsOff, h.lay.magSlots},
		{sbProfSizeOff, h.lay.profSize},
		{sbBoxSizeOff, h.lay.boxSize},
	}
	for _, f := range fields {
		if err := w.WriteU64(f.off, f.val); err != nil {
			return err
		}
	}
	// Flush every header field (including the magSlots/profSize/boxSize
	// words past the initialized slot — the initialized word itself is
	// still zero here) before the commit point below makes them meaningful.
	if err := w.Flush(0, sbBoxSizeOff+8); err != nil {
		return err
	}
	w.Fence()
	// The initialized word is the creation commit point.
	if err := w.PersistU64(sbInitializedOff, 1); err != nil {
		return err
	}
	var err error
	h.sbUndo, err = plog.OpenUndoLog(w, sbUndoOff, sbUndoSize)
	if err != nil {
		return err
	}
	h.sbBatch = txn.NewBatch(w, h.sbUndo)
	return nil
}

// retry is nvm.Retry with the heap's stats counter and journal attached.
// It is the transient-error policy for recovery and runtime read paths: a
// bounded backoff absorbs the ECC-retry/clearing-poison class of fault
// instead of turning a survivable blip into an unavailable heap.
func (h *Heap) retry(fn func() error) error {
	n, err := nvm.Retry(fn)
	if n > 0 && err == nil {
		h.transientRetries.Add(uint64(n))
		h.tel.Emit(obs.EventTransientRetry, -1,
			fmt.Sprintf("device I/O succeeded after %d transient retries", n))
		h.recomputeHealth()
	}
	return err
}

// quarantinable classifies a recovery error: corruption-class failures are
// survivable by quarantining the sub-heap; device-level failures (dying
// machine, exhausted transient retries, range bugs) stay fatal — a heap
// that "recovers" on a failing device would be lying about durability.
func quarantinable(err error) bool {
	return err != nil &&
		!errors.Is(err, nvm.ErrDeviceFailed) &&
		!errors.Is(err, nvm.ErrTransient) &&
		!errors.Is(err, nvm.ErrOutOfRange)
}

// readLayout validates the superblock of an existing image and rebuilds the
// layout from it.
func readLayout(dev *nvm.Device) (layout, error) {
	var ioErr error
	read := func(off uint64) uint64 {
		var v uint64
		_, err := nvm.Retry(func() error {
			var e error
			v, e = dev.ReadU64(off)
			return e
		})
		if err != nil && ioErr == nil {
			ioErr = err
		}
		return v
	}
	if v := read(sbMagicOff); ioErr != nil {
		return layout{}, fmt.Errorf("superblock read: %w", ioErr)
	} else if v != heapMagic {
		return layout{}, fmt.Errorf("%w: bad magic", ErrCorruptHeap)
	}
	if v := read(sbVersionOff); v != heapVersion {
		return layout{}, fmt.Errorf("%w: version %d (want %d)", ErrCorruptHeap, v, heapVersion)
	}
	if read(sbInitializedOff) != 1 {
		return layout{}, fmt.Errorf("%w: creation never completed", ErrCorruptHeap)
	}
	lay, err := computeLayout(
		int(read(sbSubheapsOff)), read(sbUserSizeOff), read(sbMetaSizeOff),
		read(sbUndoSizeOff), int(read(sbLaneCountOff)), read(sbLaneSizeOff),
		read(sbMagSlotsOff), read(sbProfSizeOff), read(sbBoxSizeOff))
	if ioErr != nil {
		return layout{}, fmt.Errorf("superblock read: %w", ioErr)
	}
	if err != nil {
		return layout{}, fmt.Errorf("%w: %v", ErrCorruptHeap, err)
	}
	if lay.capacity > dev.Capacity() {
		return layout{}, fmt.Errorf("%w: image needs %d bytes, device has %d",
			ErrCorruptHeap, lay.capacity, dev.Capacity())
	}
	return lay, nil
}

// recover replays all logs after a restart (paper §5.1, §5.8): first the
// superblock and sub-heap undo logs restore metadata consistency, then the
// micro-log lanes roll back uncommitted transactional allocations.
//
// Recovery degrades instead of dying: transient device errors are retried
// with bounded backoff, and a sub-heap whose metadata proves corrupt — log
// recovery fails, or (with ScrubOnLoad) the audit finds problems — is
// quarantined, leaving the rest of the heap fully usable. Only superblock
// corruption or device-level failure aborts the load.
//
// Everything after the superblock replay is per-sub-heap independent, so
// with Options.RecoveryParallelism > 1 it fans out over a bounded worker
// pool (recovery.go) instead of running the serial loops below; the two
// paths produce byte-identical images.
func (h *Heap) recover() error {
	var phaseStart time.Time
	if h.tel != nil {
		phaseStart = time.Now()
		h.sbRec.SetClass(nvm.ClassRecovery)
		defer h.sbRec.SetClass(nvm.ClassRoot)
	}
	var v uint64
	if err := h.retry(func() error {
		var e error
		v, e = h.dev.ReadU64(sbHeapIDOff)
		return e
	}); err != nil {
		return err
	}
	h.heapID = v

	// The superblock log protects the root pointer; there is no smaller
	// unit to quarantine, so failure here is fatal.
	err := h.retry(func() error {
		h.grant(h.sbThread)
		defer h.revoke(h.sbThread)
		undo, err := plog.OpenUndoLog(h.sbWin, sbUndoOff, sbUndoSize)
		if err != nil {
			return err
		}
		if err := undo.Replay(); err != nil {
			return err
		}
		h.sbUndo = undo
		return nil
	})
	if err != nil {
		if !quarantinable(err) {
			return fmt.Errorf("superblock log: %w", err)
		}
		return fmt.Errorf("%w: superblock log: %v", ErrCorruptHeap, err)
	}
	h.sbBatch = txn.NewBatch(h.sbWin, h.sbUndo)

	par := h.recoveryParallelism()
	if par > 1 {
		if err := h.recoverFanout(par); err != nil {
			return err
		}
	} else if err := h.recoverSerial(); err != nil {
		return err
	}
	if h.tel != nil {
		h.tel.Record(obs.OpRecovery, time.Since(phaseStart))
	}

	if h.opts.ScrubOnLoad {
		var scrubStart time.Time
		if h.tel != nil {
			scrubStart = time.Now()
		}
		if err := h.scrub(par); err != nil {
			return err
		}
		if h.tel != nil {
			h.tel.Record(obs.OpScrub, time.Since(scrubStart))
		}
		// Every in-service sub-heap just passed a full audit — the one
		// moment a load is entitled to refresh the metadata mirrors.
		// Without ScrubOnLoad the mirrors stay stale-but-trustworthy until
		// the mutation-paced refresh catches up: a stale mirror only costs
		// repair its cheap path, a corrupt one would poison it. The mirror
		// refresh itself stays serial in every mode: it runs after the full
		// fan-out has joined, so ordering (superblock, then replay, then
		// audit, then mirrors) is identical for all parallelism levels.
		h.syncMirrors()
	}
	return nil
}

// recoverSerial is the legacy single-threaded load tail (RecoveryParallelism
// <= 1): sub-heap log recovery, micro-lane rollback and cache-manifest
// replay, strictly in order, stopping at the first fatal error.
func (h *Heap) recoverSerial() error {
	for _, s := range h.subheaps {
		err := h.retry(s.recoverLogs)
		if err == nil {
			continue
		}
		if !quarantinable(err) {
			return fmt.Errorf("sub-heap %d: %w", s.id, err)
		}
		s.quarantine(fmt.Sprintf("log recovery failed: %v", err))
	}

	// Roll back uncommitted transactions. Undo replay may already have
	// reverted a logged allocation, in which case the free is rejected by
	// the hash-table check — exactly the idempotency §5.8 relies on.
	for i := 0; i < h.lay.laneCount; i++ {
		if err := h.retry(func() error { return h.recoverLane(i) }); err != nil {
			if !quarantinable(err) {
				return fmt.Errorf("micro lane %d: %w", i, err)
			}
			return fmt.Errorf("%w: micro lane %d: %v", ErrCorruptHeap, i, err)
		}
	}

	// Return every block still recorded in a cache manifest to its free
	// list: a crash with populated magazines must never leak the cached
	// blocks. Replay is idempotent — an entry whose block is already free
	// (the push that cached it never became durable) is a no-op.
	if h.lay.magSlots > 0 {
		for i := 0; i < h.lay.laneCount; i++ {
			if err := h.retry(func() error { return h.recoverManifest(i) }); err != nil {
				if !quarantinable(err) {
					return fmt.Errorf("cache manifest %d: %w", i, err)
				}
				return fmt.Errorf("%w: cache manifest %d: %v", ErrCorruptHeap, i, err)
			}
		}
	}
	return nil
}

// scrub audits every in-service sub-heap with the fsck engine and
// quarantines those whose metadata fails — the load-time detector for
// corruption that log replay cannot see (media bit flips, stray writes).
// With par > 1 the audits run concurrently; each sub-heap's check is
// self-contained under its own lock, and quarantine/health transitions are
// serialized (qmu, healthMu), so concurrent findings bench their sub-heaps
// independently.
func (h *Heap) scrub(par int) error {
	return h.forEachRecovery(len(h.subheaps), par, func(_, i int) error {
		return h.scrubOne(h.subheaps[i])
	})
}

// scrubOne audits a single sub-heap and quarantines it on failure; only
// device-level errors are returned (and abort the load).
func (h *Heap) scrubOne(s *subheap) error {
	if s.isQuarantined() {
		return nil
	}
	var sub SubheapReport
	err := h.retry(func() error {
		var e error
		sub, e = s.check()
		return e
	})
	switch {
	case err == nil && len(sub.Problems) == 0:
	case err == nil:
		h.tel.Emit(obs.EventScrubFinding, s.id, fmt.Sprintf(
			"%d problems, first: %s", len(sub.Problems), sub.Problems[0]))
		s.quarantine(fmt.Sprintf("audit failed: %s (%d problems)",
			sub.Problems[0], len(sub.Problems)))
	case quarantinable(err):
		s.quarantine(fmt.Sprintf("audit aborted: %v", err))
	default:
		return fmt.Errorf("sub-heap %d scrub: %w", s.id, err)
	}
	return nil
}

// recoverLane frees every allocation logged in lane i and truncates it.
func (h *Heap) recoverLane(i int) error {
	h.grant(h.sbThread)
	lane, err := plog.OpenMicroLog(h.sbWin, h.lay.laneBase(i), h.lay.laneSize)
	if err != nil {
		h.revoke(h.sbThread)
		return err
	}
	if lane.IsEmpty() {
		h.revoke(h.sbThread)
		return nil
	}
	entries, err := lane.Entries()
	h.revoke(h.sbThread)
	if err != nil {
		return err
	}
	for _, e := range entries {
		sub := uint16(e.Offset >> subheapShift)
		off := e.Offset & offsetMask
		dev, err := h.lay.locToDevice(sub, off)
		if err != nil {
			continue // stale entry pointing nowhere valid; skip
		}
		if err := h.replayTxEntry(h.subheaps[sub], i, dev); err != nil {
			return err
		}
	}
	h.grant(h.sbThread)
	err = lane.Truncate()
	h.revoke(h.sbThread)
	return err
}

// replayTxEntry rolls back one micro-log allocation against its sub-heap —
// the per-entry body shared by the serial lane walk (recoverLane) and the
// parallel per-sub-heap replay (recovery.go). lane is the entry's micro
// lane, used only for latency attribution. Returns only fatal errors;
// no-op outcomes (quarantined target, already-reverted allocation) are
// absorbed into the recovery counters.
func (h *Heap) replayTxEntry(s *subheap, lane int, dev uint64) error {
	if s.isQuarantined() {
		// The block lives in a region already out of service; rolling
		// it back would touch metadata we no longer trust.
		s.stats.recoveredNoops.Add(1)
		return nil
	}
	var start time.Time
	if h.tel != nil {
		start = time.Now()
	}
	err := s.freeAs(dev, nvm.ClassTxFree)
	if h.tel != nil {
		h.tel.RecordOn(lane, obs.OpTxFree, time.Since(start))
	}
	if err != nil {
		// Invalid/double frees here mean the undo log already
		// reverted this allocation; anything else is fatal.
		if err == ErrInvalidFree || err == ErrDoubleFree {
			s.stats.recoveredNoops.Add(1)
			return nil
		}
		return err
	}
	s.stats.recoveredBlocks.Add(1)
	return nil
}

// recoverManifest frees every block still recorded in lane i's cache
// manifest and clears the processed words. Entries that fail to decode or
// point outside the heap are left in place for the audit (media
// corruption must stay visible); entries naming a quarantined sub-heap
// are left untouched — that capacity is out of service anyway.
func (h *Heap) recoverManifest(i int) error {
	man := plog.NewManifest(h.lay.laneManifestBase(i), h.lay.magSlots)
	cleared := 0
	for k := uint64(0); k < man.Slots(); k++ {
		off := man.WordOff(k)
		word, err := h.sbWin.ReadU64(off)
		if err != nil {
			return err
		}
		if word == 0 {
			continue
		}
		rel, shard, ok := plog.DecodeCacheEntry(word)
		if !ok || int(shard) >= h.lay.subheaps || rel >= h.lay.userSize {
			h.tel.Emit(obs.EventScrubFinding, -1, fmt.Sprintf(
				"cache manifest %d slot %d: invalid entry %#x", i, k, word))
			continue
		}
		clear, err := h.replayManifestEntry(h.subheaps[shard], rel)
		if err != nil {
			return err
		}
		if !clear {
			continue
		}
		h.grant(h.sbThread)
		werr := h.sbWin.WriteU64(off, 0)
		var ferr error
		if werr == nil {
			ferr = h.sbWin.Flush(off, 8)
		}
		h.revoke(h.sbThread)
		if werr != nil {
			return werr
		}
		if ferr != nil {
			return ferr
		}
		cleared++
	}
	if cleared > 0 {
		h.sbWin.Fence()
	}
	return nil
}

// replayManifestEntry returns one cached block to its sub-heap's free list
// — the per-entry body shared by the serial manifest walk (recoverManifest)
// and the parallel per-sub-heap replay (recovery.go). It reports whether
// the manifest word may be cleared: processed entries (freed, or no-op
// because the cache push never became durable) clear; entries naming a
// quarantined sub-heap stay in place — that capacity is out of service
// anyway, and the surviving word keeps replay idempotent if the sub-heap
// is later repaired. Returns only fatal errors.
func (h *Heap) replayManifestEntry(s *subheap, rel uint64) (clear bool, _ error) {
	if s.isQuarantined() {
		s.stats.recoveredNoops.Add(1)
		return false, nil
	}
	switch err := s.freeAs(h.lay.userBase(s.id)+rel, nvm.ClassRecovery); {
	case err == nil:
		s.stats.recoveredCached.Add(1)
		return true, nil
	case errors.Is(err, ErrInvalidFree) || errors.Is(err, ErrDoubleFree):
		// The block was never durably removed from its free list (or a
		// later flush-back already returned it) — nothing leaked.
		s.stats.recoveredNoops.Add(1)
		return true, nil
	case errors.Is(err, ErrSubheapQuarantined):
		s.stats.recoveredNoops.Add(1)
		return false, nil
	case quarantinable(err):
		s.quarantine(fmt.Sprintf("cache manifest replay failed: %v", err))
		s.stats.recoveredNoops.Add(1)
		return false, nil
	default:
		return false, err
	}
}

// HeapID returns the heap's persistent identity.
func (h *Heap) HeapID() uint64 { return h.heapID }

// Device exposes the underlying device (benchmarks, inspection, crash
// simulation).
func (h *Heap) Device() *nvm.Device { return h.dev }

// Unit exposes the protection unit (inspection and demos).
func (h *Heap) Unit() *mpk.Unit { return h.unit }

// Subheaps returns the number of sub-heaps.
func (h *Heap) Subheaps() int { return h.lay.subheaps }

// Root returns the root pointer (paper §4.6), or the null pointer if unset.
func (h *Heap) Root() (NVMPtr, error) {
	h.sbMu.Lock()
	defer h.sbMu.Unlock()
	set, err := h.sbWin.ReadU64(sbRootSetOff)
	if err != nil {
		return NVMPtr{}, err
	}
	if set == 0 {
		return NVMPtr{}, nil
	}
	loc, err := h.sbWin.ReadU64(sbRootLocOff)
	if err != nil {
		return NVMPtr{}, err
	}
	return ptrFromWords(h.heapID, loc), nil
}

// SetRoot durably stores the root pointer. The location and validity words
// update failure-atomically under the superblock undo log.
func (h *Heap) SetRoot(p NVMPtr) error {
	if err := h.writable(); err != nil {
		return err
	}
	if !p.IsNull() && p.HeapID != h.heapID {
		return fmt.Errorf("%w: root from heap %#x", ErrBadPointer, p.HeapID)
	}
	h.sbMu.Lock()
	defer h.sbMu.Unlock()
	h.grant(h.sbThread)
	defer h.revoke(h.sbThread)
	var set uint64
	if !p.IsNull() {
		set = 1
	}
	b := h.sbBatch
	if err := b.WriteU64(sbRootLocOff, p.Loc()); err != nil {
		b.Abort()
		return err
	}
	if err := b.WriteU64(sbRootSetOff, set); err != nil {
		b.Abort()
		return err
	}
	if err := b.Commit(); err != nil {
		b.Abort()
		if rerr := h.sbUndo.Replay(); rerr != nil {
			return fmt.Errorf("poseidon: rollback after failed root update: %w", rerr)
		}
		return err
	}
	return nil
}

// RawOffset translates a persistent pointer to its device offset — the
// analogue of poseidon_get_rawptr (§4.6).
func (h *Heap) RawOffset(p NVMPtr) (uint64, error) {
	if p.IsNull() || p.HeapID != h.heapID {
		return 0, fmt.Errorf("%w: %v", ErrBadPointer, p)
	}
	return h.lay.locToDevice(p.Subheap(), p.Offset())
}

// resolve validates p and returns its owning sub-heap together with its
// device offset in a single decode — the hot-path form of RawOffset that
// spares callers a second, unchecked subheaps[p.Subheap()] index.
func (h *Heap) resolve(p NVMPtr) (*subheap, uint64, error) {
	if p.IsNull() || p.HeapID != h.heapID {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadPointer, p)
	}
	sub, off := p.Subheap(), p.Offset()
	if int(sub) >= h.lay.subheaps || off >= h.lay.userSize {
		return nil, 0, fmt.Errorf("%w: sub=%d off=%#x", ErrBadPointer, sub, off)
	}
	return h.subheaps[sub], h.lay.userBase(int(sub)) + off, nil
}

// PtrAt translates a user-region device offset back to a persistent
// pointer — the analogue of poseidon_get_nvmptr (§4.6).
func (h *Heap) PtrAt(deviceOff uint64) (NVMPtr, error) {
	sub, off, err := h.lay.deviceToLoc(deviceOff)
	if err != nil {
		return NVMPtr{}, err
	}
	return makePtr(h.heapID, sub, off), nil
}

// SaveFile persists the heap image to path (atomic rename).
func (h *Heap) SaveFile(path string) error { return h.dev.SaveFile(path) }

// Close marks the heap unusable and stops the online scrubber (waiting for
// an in-flight slice to finish). It does not save; call SaveFile first if
// durability across process restarts is wanted.
func (h *Heap) Close() error {
	// Persist the final profile snapshot and seal the black-box ring while
	// the heap is still open (both best-effort: a failed write leaves the
	// previous generation valid).
	_ = h.PersistProfile()
	_ = h.FlushBlackbox()
	h.sealBlackbox()
	h.stopWatchdog()
	if h.tel != nil {
		// Detach the mirror so a shared registry stops staging into a
		// closed heap.
		h.tel.SetMirror(nil)
	}
	h.mu.Lock()
	h.closed = true
	stop := h.scrubStop
	h.scrubStop = nil
	h.mu.Unlock()
	if stop != nil {
		close(stop)
		<-h.scrubDone
	}
	return nil
}

func (h *Heap) isClosed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// DrainRemoteFrees drains every sub-heap's remote-free ring to empty —
// the quiesce point tests and tools use before auditing, and a hook for
// applications that want an empty ring at a checkpoint. A no-op on heaps
// without Options.RemoteFreeRings. Quarantined sub-heaps are skipped.
func (h *Heap) DrainRemoteFrees() error {
	if h.isClosed() {
		return ErrClosed
	}
	for _, s := range h.subheaps {
		if err := s.drainRemote(); err != nil {
			return fmt.Errorf("sub-heap %d: %w", s.id, err)
		}
	}
	return nil
}

// Stats aggregates per-sub-heap counters.
func (h *Heap) Stats() HeapStats {
	var out HeapStats
	for _, s := range h.subheaps {
		out.Allocs += s.stats.allocs.Load()
		out.Frees += s.stats.frees.Load()
		out.TxAllocs += s.stats.txAllocs.Load()
		out.DefragMerges += s.stats.defragMerges.Load()
		out.InvalidFrees += s.stats.invalidFrees.Load()
		out.DoubleFrees += s.stats.doubleFrees.Load()
		out.RecoveredBlocks += s.stats.recoveredBlocks.Load()
		out.RecoveredNoops += s.stats.recoveredNoops.Load()
		out.RemoteFrees += s.stats.remoteFrees.Load()
		out.RemoteDrains += s.stats.remoteDrains.Load()
		out.RingFallbacks += s.stats.ringFallbacks.Load()
		out.MagazineHits += s.stats.magazineHits.Load()
		out.MagazineMisses += s.stats.magazineMisses.Load()
		out.MagazineRefills += s.stats.magazineRefills.Load()
		out.MagazineFlushes += s.stats.magazineFlushes.Load()
		out.RecoveredCached += s.stats.recoveredCached.Load()
		if s.isQuarantined() {
			out.QuarantinedSubheaps++
			out.QuarantinedBytes += h.lay.userSize
		}
	}
	out.PermissionSwitches = h.unit.Switches()
	out.TransientRetries = h.transientRetries.Load()
	out.RepairedSubheaps = h.repairedSubheaps.Load()
	out.RepairedBytes = h.repairedBytes.Load()
	out.MirrorRestores = h.mirrorRestores.Load()
	return out
}

// healthyShard returns shard if it is in service, otherwise the nearest
// (round-robin) non-quarantined sub-heap. Errors only when every sub-heap
// is quarantined.
func (h *Heap) healthyShard(shard int) (int, error) {
	n := len(h.subheaps)
	for i := 0; i < n; i++ {
		cand := (shard + i) % n
		if !h.subheaps[cand].isQuarantined() {
			return cand, nil
		}
	}
	return 0, fmt.Errorf("%w: all %d sub-heaps", ErrSubheapQuarantined, n)
}
