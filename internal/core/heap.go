// Package core implements the Poseidon persistent memory allocator:
// per-CPU sub-heaps for scalability, fully segregated metadata guarded by
// (modeled) Intel MPK, a multi-level hash table of memory-block records for
// constant-time safety checks, and commit-record/micro logging for crash
// consistency.
//
// The exported facade for applications is the module-root package poseidon;
// this package holds the implementation and is exercised directly by the
// benchmarks and baselines.
package core

import (
	"cmp"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
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

	sbMu     sync.Mutex // guards the root record
	sbThread *mpk.Thread
	sbWin    mpk.Window

	subheaps []*subheap

	laneMu    sync.Mutex
	freeLanes []int
	nextShard atomic.Uint32

	// magsOn is set unless the image's manifest arena is too small for
	// Options.Magazines or its sub-heaps too wide for a manifest word;
	// magCap and magClasses are the effective per-thread magazine shape.
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
	// the heap runs uninstrumented.
	tel *obs.Telemetry

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
	bbMu        sync.Mutex
	bbThread    *mpk.Thread
	bbWin       mpk.Window
	bbOn        bool
	bbEpoch     uint64
	bbSeq       uint64
	bbHdrGen    uint64
	bbStaged    []plog.BoxRecord
	bbSpanSeq   uint64 // tracer sequence high-water already mirrored
	bbPublished atomic.Uint64
	bbDropped   atomic.Uint64
	bbTorn      atomic.Uint64

	// Stall watchdog state (watchdog.go); wd is nil when disabled — the
	// sub-heap lock sites pay exactly one nil check then.
	wd          *watchdog
	tap         *nvm.LatencyTap
	stallsTotal atomic.Uint64
	openedAt    time.Time

	closed atomic.Bool
}

// Create formats a new heap on a fresh device.
func Create(opts Options) (*Heap, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	lay, err := computeLayout(opts.Subheaps, opts.SubheapUserSize, opts.SubheapMetaSize,
		opts.UndoLogSize, opts.MaxThreads, opts.MicroLogLaneSize, opts.magSlots())
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
	h, err := openImage(dev, opts, false)
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
	return openImage(dev, opts, true)
}

// openImage wires a heap over an existing image from its superblock — the
// part of Load and Attach that writes nothing — and counts the superblock
// reads' transient retries. raw marks an Attach.
func openImage(dev *nvm.Device, opts Options, raw bool) (*Heap, error) {
	opts = opts.withDefaults()
	lay, heapID, retries, err := readLayout(dev)
	if err != nil {
		return nil, err
	}
	if err := opts.validateRuntime(); err != nil {
		return nil, err
	}
	h, err := assemble(dev, lay, opts)
	if err != nil {
		return nil, err
	}
	h.heapID, h.rawAttach = heapID, raw
	h.noteRetries(retries)
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
		h.sbWin = h.sbWin.WithRecorder(nvm.NewAttrRecorder(h.tel.Attribution(), nvm.ClassRoot))
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
	g, err := lay.memblockGeometry(0)
	if err != nil {
		return nil, err
	}
	classes := min(opts.Magazines.Classes, g.NumClasses, maxMarkedClasses)
	if need := uint64(classes) * uint64(opts.Magazines.Capacity); need <= lay.magSlots &&
		lay.userSize-1 <= plog.MaxCacheRel {
		h.magsOn = true
		h.magCap = opts.Magazines.Capacity
		h.magClasses = classes
	} else {
		// An image sized for smaller magazines, or with sub-heaps too wide
		// for a manifest word: run without magazines rather than fail the
		// open.
		h.tel.Emit(obs.EventRecovery, -1, fmt.Sprintf(
			"magazines disabled: image provisions %d manifest words per lane for %d-byte sub-heaps, sizing needs %d",
			lay.magSlots, lay.userSize, need))
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

// format writes the initial persistent image: magic and version, the null
// root, then the geometry record, whose first valid slot is the creation
// commit point. Sub-heaps format on first use.
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
	if err := w.PersistU64(sbMagicOff, heapMagic); err != nil {
		return err
	}
	if err := w.PersistU64(sbVersionOff, heapVersion); err != nil {
		return err
	}
	if err := writeBoth(w, rootRecord, 0, nil); err != nil {
		return err
	}
	l := h.lay
	var geo []byte
	for _, v := range []uint64{heapID, uint64(l.subheaps), l.userSize, l.metaSize,
		l.undoSize, uint64(l.laneCount), l.laneSize, l.magSlots} {
		geo = binary.LittleEndian.AppendUint64(geo, v)
	}
	return writeBoth(w, geometryRecord, 0, geo)
}

// writeBoth writes payload as generations gen+1 and gen+2 of r, so both
// slots hold it. One damaged slot then never changes the value read, and a
// crash between the two writes leaves the new value in one slot and the
// old one in the other.
func writeBoth(w mpk.Window, r plog.Slots, gen uint64, payload []byte) error {
	var buf []byte
	for g := gen + 1; g <= gen+2; g++ {
		if err := r.Write(w, g, payload, &buf); err != nil {
			return err
		}
	}
	return nil
}

// retry is nvm.Retry with the heap's stats counter and journal attached.
// It is the transient-error policy for recovery and runtime read paths: a
// bounded backoff absorbs the ECC-retry/clearing-poison class of fault
// instead of turning a survivable blip into an unavailable heap.
func (h *Heap) retry(fn func() error) error {
	n, err := nvm.Retry(fn)
	if err == nil {
		h.noteRetries(n)
	}
	return err
}

// noteRetries counts, journals and weighs n transient retries that ended
// in a successful device op.
func (h *Heap) noteRetries(n int) {
	if n == 0 {
		return
	}
	h.transientRetries.Add(uint64(n))
	h.tel.Emit(obs.EventTransientRetry, -1,
		fmt.Sprintf("device I/O succeeded after %d transient retries", n))
	h.recomputeHealth()
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

// readLayout validates the superblock of an existing image and returns
// the layout and heap id its geometry record holds, and how many transient
// retries its reads took. Only heapVersion loads: a format change bumps the
// version and keeps no reader for the one before. Every size is bounded by
// the device before any is multiplied, and the geometry must pass the
// bounds Create enforces.
func readLayout(dev *nvm.Device) (lay layout, heapID uint64, retries int, err error) {
	var ioErr error
	read := func(off uint64, b []byte) error {
		n, err := nvm.Retry(func() error { return dev.Read(off, b) })
		retries += n
		ioErr = cmp.Or(ioErr, err)
		return err
	}
	var hdr [16]byte
	if read(sbMagicOff, hdr[:]) != nil {
		return layout{}, 0, 0, fmt.Errorf("superblock read: %w", ioErr)
	}
	if binary.LittleEndian.Uint64(hdr[sbMagicOff:]) != heapMagic {
		return layout{}, 0, 0, fmt.Errorf("%w: bad magic", ErrCorruptHeap)
	}
	if v := binary.LittleEndian.Uint64(hdr[sbVersionOff:]); v != heapVersion {
		return layout{}, 0, 0, fmt.Errorf("%w: version %d (want %d)", ErrCorruptHeap, v, heapVersion)
	}
	// The words format writes; all but the heap id are sizes and counts.
	var word [8]uint64
	gen, p, torn := geometryRecord.Read(read)
	switch {
	case ioErr != nil:
		return layout{}, 0, 0, fmt.Errorf("superblock read: %w", ioErr)
	case torn:
		return layout{}, 0, 0, fmt.Errorf("%w: geometry record has no valid slot", ErrCorruptHeap)
	case gen == 0:
		return layout{}, 0, 0, fmt.Errorf("%w: creation never completed", ErrCorruptHeap)
	case len(p) != 8*len(word):
		return layout{}, 0, 0, fmt.Errorf("%w: geometry record holds %d bytes", ErrCorruptHeap, len(p))
	}
	c := dev.Capacity()
	for i := range word {
		if word[i] = binary.LittleEndian.Uint64(p[8*i:]); i > 0 && word[i] > c {
			return layout{}, 0, 0, fmt.Errorf("%w: geometry word %d is %d, past the %d-byte device",
				ErrCorruptHeap, i, word[i], c)
		}
	}
	heapID, laneSize, magSlots := word[0], word[6], word[7]
	geo := Options{
		Subheaps:        int(word[1]),
		SubheapUserSize: word[2],
		SubheapMetaSize: word[3],
		UndoLogSize:     word[4],
		MaxThreads:      int(word[5]),
	}
	if err := geo.validateGeometry(); err != nil {
		return layout{}, 0, 0, fmt.Errorf("%w: superblock: %v", ErrCorruptHeap, err)
	}
	// Each arena alone must fit the device, so no product below overflows.
	lanes := uint64(geo.MaxThreads)
	if laneSize > c/lanes || magSlots > c/(8*lanes) ||
		geo.SubheapUserSize+geo.SubheapMetaSize > c/uint64(geo.Subheaps) {
		return layout{}, 0, 0, fmt.Errorf("%w: superblock geometry exceeds the %d-byte device", ErrCorruptHeap, c)
	}
	lay, err = computeLayout(geo.Subheaps, geo.SubheapUserSize, geo.SubheapMetaSize,
		geo.UndoLogSize, geo.MaxThreads, laneSize, magSlots)
	if err != nil {
		return layout{}, 0, 0, fmt.Errorf("%w: %v", ErrCorruptHeap, err)
	}
	if lay.capacity > c {
		return layout{}, 0, 0, fmt.Errorf("%w: image needs %d bytes, device has %d",
			ErrCorruptHeap, lay.capacity, c)
	}
	return lay, heapID, retries, nil
}

// recover replays all logs after a restart (paper §5.1, §5.8): first every
// sub-heap's newest commit records restore metadata consistency, then the
// micro-log lanes roll back uncommitted transactional allocations. The
// superblock has no log: readLayout has already read its geometry record.
//
// Recovery degrades instead of dying: transient device errors are retried
// with bounded backoff, and a sub-heap whose metadata proves corrupt — log
// recovery fails, or (with ScrubOnLoad) the audit finds problems — is
// quarantined, leaving the rest of the heap fully usable. Only
// device-level failure aborts it.
//
// All of it is per-sub-heap independent, so it fans out over
// runtime.GOMAXPROCS(0) workers (recovery.go); the recovered image is the
// same at every width.
func (h *Heap) recover() error {
	var phaseStart time.Time
	if h.tel != nil {
		phaseStart = time.Now()
	}
	par := runtime.GOMAXPROCS(0)
	if err := h.recoverFanout(par); err != nil {
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
		// refresh runs on this goroutine after the full fan-out has joined,
		// so ordering (replay, then audit, then mirrors) is identical at
		// every width.
		h.syncMirrors()
	}
	return nil
}

// scrub audits every in-service sub-heap with the fsck engine and
// quarantines those whose metadata fails — the load-time detector for
// corruption that log replay cannot see (media bit flips, stray writes).
// The audits run on par workers; each sub-heap's check is self-contained
// under its own lock, and quarantine/health transitions are serialized
// (qmu, healthMu), so concurrent findings bench their sub-heaps
// independently.
func (h *Heap) scrub(par int) error {
	return h.forEachRecovery(len(h.subheaps), par, func(_, i int) error {
		s := h.subheaps[i]
		if s.isQuarantined() {
			return nil
		}
		if _, err := h.auditSubheap(s); err != nil {
			return fmt.Errorf("sub-heap %d scrub: %w", s.id, err)
		}
		return nil
	})
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
// A root record with no valid slot is ErrCorruptHeap.
func (h *Heap) Root() (NVMPtr, error) {
	h.sbMu.Lock()
	defer h.sbMu.Unlock()
	_, root, err := h.readRoot()
	return root, err
}

// readRoot decodes the root record's newest valid generation: no payload
// is the null root, one word a location. Caller holds sbMu.
func (h *Heap) readRoot() (gen uint64, root NVMPtr, err error) {
	var ioErr error
	gen, p, _ := rootRecord.Read(func(off uint64, b []byte) error {
		err := h.sbWin.Read(off, b)
		ioErr = cmp.Or(ioErr, err)
		return err
	})
	switch {
	case ioErr != nil:
		return 0, NVMPtr{}, ioErr
	case gen == 0:
		return 0, NVMPtr{}, fmt.Errorf("%w: root record has no valid slot", ErrCorruptHeap)
	case len(p) == 0:
		return gen, NVMPtr{}, nil
	case len(p) != 8:
		return gen, NVMPtr{}, fmt.Errorf("%w: root record holds %d bytes", ErrCorruptHeap, len(p))
	}
	return gen, ptrFromWords(h.heapID, binary.LittleEndian.Uint64(p)), nil
}

// SetRoot durably stores the root pointer as the next two generations of
// the root record (writeBoth). A record with no valid slot is rewritten
// whole.
func (h *Heap) SetRoot(p NVMPtr) error {
	if err := h.writable(); err != nil {
		return err
	}
	if !p.IsNull() && p.HeapID != h.heapID {
		return fmt.Errorf("%w: root from heap %#x", ErrBadPointer, p.HeapID)
	}
	var payload []byte
	if !p.IsNull() {
		payload = binary.LittleEndian.AppendUint64(nil, p.Loc())
	}
	h.sbMu.Lock()
	defer h.sbMu.Unlock()
	gen, _, err := h.readRoot()
	if err != nil && !errors.Is(err, ErrCorruptHeap) {
		return err
	}
	h.grant(h.sbThread)
	defer h.revoke(h.sbThread)
	return writeBoth(h.sbWin, rootRecord, gen, payload)
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
// an in-flight slice to finish); only the call that marks it stops the
// scrubber, so a second Close is harmless. It does not save; call SaveFile
// first if durability across process restarts is wanted.
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
	if h.closed.CompareAndSwap(false, true) && h.scrubStop != nil {
		close(h.scrubStop)
		<-h.scrubDone
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
		out.MagazineHits += s.stats.magazineHits.Load()
		out.MagazineMisses += s.stats.magazineMisses.Load()
		out.MagazineRefills += s.stats.magazineRefills.Load()
		out.MagazineFlushes += s.stats.magazineFlushes.Load()
		out.RecoveredCached += s.stats.recoveredCached.Load()
		n, b := s.log.Commits()
		out.Commits += n
		out.CommitBytes += b
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
