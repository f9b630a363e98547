// Package obs is Poseidon's telemetry subsystem: sharded lock-free latency
// histograms for every allocator operation class, per-class attribution of
// device persistence traffic (writes/flushes/fences — the paper's Fig 7
// analysis as a live metric), a fixed-size journal of rare structured
// events, and exposition as a Prometheus text endpoint or a JSON snapshot.
//
// A heap created without Options.Telemetry pays only a nil pointer check on
// the hot path; all recording methods are safe on a nil *Telemetry.
package obs

import (
	"runtime"
	"sync/atomic"
	"time"

	"poseidon/internal/nvm"
)

// Op is an instrumented operation class.
type Op uint8

// Operation classes with latency histograms. The first five are hot-path
// allocator operations; the last three are load-time phases.
const (
	OpAlloc Op = iota
	OpFree
	OpTxAlloc
	OpTxFree // recovery rollback free of an uncommitted tx allocation
	OpDefrag
	OpRefill   // batched magazine refill carve by the owning sub-heap
	OpRecovery // log replay + lane rollback during Load
	OpLoad     // whole Load call
	OpScrub    // ScrubOnLoad audit / online scrubber slice
	OpRepair   // quarantine repair of one sub-heap
	OpLockWait // time spent waiting for a sub-heap lock (watchdog contention layer)
	OpLockHold // time a locked sub-heap operation held the lock
	NumOps
)

var opNames = [NumOps]string{
	"alloc", "free", "txalloc", "txfree", "defrag", "refill", "recovery", "load", "scrub",
	"repair", "lock_wait", "lock_hold",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "invalid"
}

// attrClassOf maps an op to the device-attribution class whose traffic it
// explains, for per-op amplification ratios. OpLoad maps to no class
// (NumClasses sentinel): its window is the union of recovery and scrub, and
// counting it would double-charge those classes' ratios. OpRefill follows
// the same rule: refill traffic is charged to ClassAlloc, which OpAlloc
// already explains. OpRepair charges
// ClassRecovery, which OpRecovery already explains, so it maps to no class.
// OpLockWait/OpLockHold are pure contention timings — they explain no device
// traffic at all — so they map to no class.
var attrClassOf = [NumOps]nvm.OpClass{
	nvm.ClassAlloc, nvm.ClassFree, nvm.ClassTxAlloc, nvm.ClassTxFree,
	nvm.ClassDefrag, nvm.NumClasses, nvm.ClassRecovery, nvm.NumClasses, nvm.ClassScrub,
	nvm.NumClasses, nvm.NumClasses, nvm.NumClasses,
}

// Options configures a Telemetry instance.
type Options struct {
	// Shards is the number of histogram lanes. Defaults to GOMAXPROCS
	// rounded up to a power of two. Callers pass any shard hint; it is
	// masked.
	Shards int
	// JournalSize is the event ring capacity. Default 256.
	JournalSize int
}

// EventMirror receives every journal event as it is emitted — the hook the
// black-box flight recorder hangs off. A mirror must only stage the event
// in DRAM (no device I/O, no re-entrant Emit) and return quickly; events
// are rare but can fire with allocator locks held.
type EventMirror interface {
	MirrorEvent(e Event)
}

// Telemetry is the per-heap (or per-process) telemetry registry.
type Telemetry struct {
	hists   [NumOps]*Histogram
	journal *Journal
	attr    *nvm.Attribution

	// mirror, when set, sees every emitted journal event (the black-box
	// flight recorder). Atomic: SetMirror may race with a concurrent Emit
	// when a heap is reloaded over a shared registry after a simulated
	// crash.
	mirror atomic.Pointer[mirrorBox]

	// prof and tracer are wired by core when profiling/tracing is enabled
	// so snapshots and the HTTP mux can reach them; nil otherwise.
	prof   *Profiler
	tracer *Tracer
}

// mirrorBox wraps the interface value so it fits an atomic.Pointer.
type mirrorBox struct{ m EventMirror }

// New creates a telemetry registry with default options.
func New() *Telemetry { return NewWithOptions(Options{}) }

// NewWithOptions creates a telemetry registry.
func NewWithOptions(o Options) *Telemetry {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	t := &Telemetry{
		journal: newJournal(o.JournalSize),
		attr:    nvm.NewAttribution(),
	}
	for i := range t.hists {
		t.hists[i] = newHistogram(o.Shards)
	}
	return t
}

// Attribution returns the device-traffic attribution table windows charge
// into. Never nil on a non-nil Telemetry.
func (t *Telemetry) Attribution() *nvm.Attribution {
	if t == nil {
		return nil
	}
	return t.attr
}

// SetProfiler attaches the heap profiler so snapshots summarise it.
// Nil-safe on both sides.
func (t *Telemetry) SetProfiler(p *Profiler) {
	if t != nil {
		t.prof = p
	}
}

// Profiler returns the attached heap profiler, nil when profiling is off.
func (t *Telemetry) Profiler() *Profiler {
	if t == nil {
		return nil
	}
	return t.prof
}

// SetTracer attaches the op-span tracer. Nil-safe on both sides.
func (t *Telemetry) SetTracer(tr *Tracer) {
	if t != nil {
		t.tracer = tr
	}
}

// Tracer returns the attached op-span tracer, nil when tracing is off.
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// JournalDropped returns how many journal events the fixed ring displaced
// before they were read — the saturation signal behind
// poseidon_journal_dropped_total. Nil-safe.
func (t *Telemetry) JournalDropped() uint64 {
	if t == nil {
		return 0
	}
	return t.journal.Overwritten()
}

// Record adds one observation for op on shard 0. Nil-safe.
func (t *Telemetry) Record(op Op, d time.Duration) { t.RecordOn(0, op, d) }

// RecordOn adds one observation for op on the given shard hint. Nil-safe.
func (t *Telemetry) RecordOn(shard int, op Op, d time.Duration) {
	if t == nil || op >= NumOps {
		return
	}
	if d < 0 {
		d = 0
	}
	t.hists[op].Record(shard, uint64(d))
}

// SetMirror attaches an event mirror (nil detaches). Nil-safe on the
// registry. The latest mirror wins — reloading a heap over a shared
// registry re-points the mirror at the new heap's recorder.
func (t *Telemetry) SetMirror(m EventMirror) {
	if t == nil {
		return
	}
	if m == nil {
		t.mirror.Store(nil)
		return
	}
	t.mirror.Store(&mirrorBox{m: m})
}

// Emit appends a journal event and forwards the stamped entry to the
// attached mirror, if any. Nil-safe. subheap is -1 when the event is not
// sub-heap scoped.
func (t *Telemetry) Emit(kind EventKind, subheap int, detail string) {
	if t == nil {
		return
	}
	e := t.journal.Emit(kind, subheap, detail)
	if box := t.mirror.Load(); box != nil {
		box.m.MirrorEvent(e)
	}
}

// Events returns the retained journal events without clearing them.
// Nil-safe (returns nil).
func (t *Telemetry) Events() []Event {
	if t == nil {
		return nil
	}
	return t.journal.Events()
}

// DrainEvents returns and clears the retained journal events. Nil-safe.
func (t *Telemetry) DrainEvents() []Event {
	if t == nil {
		return nil
	}
	return t.journal.Drain()
}

// Hist returns op's merged histogram. Nil-safe (zero snapshot).
func (t *Telemetry) Hist(op Op) HistSnapshot {
	if t == nil || op >= NumOps {
		return HistSnapshot{}
	}
	return t.hists[op].Snapshot()
}
