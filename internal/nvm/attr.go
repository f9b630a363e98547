// Per-class attribution of persistence traffic. The flat Stats counters say
// how many flushes the device absorbed; Attribution says which allocator
// operation class issued them — the live version of the paper's Fig 7
// flush/fence-overhead analysis, and the diagnostic Cai et al. identify as
// the key lens on PM-allocator cost.
//
// Attribution is charged at the access-window layer (mpk.Window), not inside
// the device: a window belongs to exactly one serialized execution context
// (a sub-heap under its lock, the superblock under its lock, one
// application thread), so the context can retag its window's class with a
// plain store and every device op issued through the window is charged to
// the class that was active when it ran — no goroutine-local state needed.

package nvm

import "sync/atomic"

// OpClass is the allocator operation class a device op is charged to.
type OpClass uint8

// Operation classes. ClassOther is the default for windows that were never
// tagged; ClassUser covers application data stores through thread windows.
const (
	ClassOther OpClass = iota
	ClassAlloc
	ClassFree
	ClassTxAlloc
	ClassTxFree // recovery rollback of uncommitted transactional allocations
	ClassDefrag
	ClassFormat
	ClassRecovery
	ClassScrub
	ClassRoot
	ClassUser
	ClassProfile  // profiler side-table snapshot writes
	ClassBlackbox // black-box flight-recorder ring publishes
	NumClasses
)

var classNames = [NumClasses]string{
	"other", "alloc", "free", "txalloc", "txfree", "defrag",
	"format", "recovery", "scrub", "root", "user", "profile",
	"blackbox",
}

func (c OpClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "invalid"
}

// attrCell holds one class's counters, padded to its own cacheline so
// classes running on different cores do not false-share.
type attrCell struct {
	writes  atomic.Uint64
	bytes   atomic.Uint64
	flushes atomic.Uint64
	fences  atomic.Uint64
	_       [32]byte
}

// Attribution accumulates per-class device-op counters. All methods are
// safe for concurrent use.
type Attribution struct {
	cells [NumClasses]attrCell
}

// NewAttribution returns an empty attribution table.
func NewAttribution() *Attribution { return &Attribution{} }

// ChargeWrite records one write of n bytes against class c.
func (a *Attribution) ChargeWrite(c OpClass, n uint64) {
	a.cells[c].writes.Add(1)
	a.cells[c].bytes.Add(n)
}

// ChargeFlush records lines flushed cachelines against class c.
func (a *Attribution) ChargeFlush(c OpClass, lines uint64) {
	a.cells[c].flushes.Add(lines)
}

// ChargeFence records one ordering barrier against class c.
func (a *Attribution) ChargeFence(c OpClass) {
	a.cells[c].fences.Add(1)
}

// ClassCounters is one class's view in an attribution snapshot.
type ClassCounters struct {
	Writes       uint64
	BytesWritten uint64
	Flushes      uint64
	Fences       uint64
}

// AttrSnapshot is a copyable view of an Attribution, indexed by OpClass.
type AttrSnapshot [NumClasses]ClassCounters

// Snapshot returns the current per-class counters.
func (a *Attribution) Snapshot() AttrSnapshot {
	var out AttrSnapshot
	for c := range a.cells {
		out[c] = ClassCounters{
			Writes:       a.cells[c].writes.Load(),
			BytesWritten: a.cells[c].bytes.Load(),
			Flushes:      a.cells[c].flushes.Load(),
			Fences:       a.cells[c].fences.Load(),
		}
	}
	return out
}

// AttrRecorder tags a serialized execution context with its current
// operation class. The owner retags with SetClass around each operation; a
// window holding the recorder charges every device op it issues to the
// class active at that moment. The class field is a plain store/load: the
// owner's serialization (sub-heap mutex, thread contract) is the required
// happens-before edge.
type AttrRecorder struct {
	attr  *Attribution
	class OpClass

	// Running op totals for span tracing. Plain fields under the owner's
	// serialization, like class: the tracer snapshots them with Mark at
	// span start and diffs with Since at span end, so a sampled span
	// carries exactly the writes/flushes/fences its operation issued.
	writes  uint64
	flushes uint64
	fences  uint64
}

// NewAttrRecorder returns a recorder charging a, starting in class c.
func NewAttrRecorder(a *Attribution, c OpClass) *AttrRecorder {
	return &AttrRecorder{attr: a, class: c}
}

// SetClass retags the recorder. Only the owning (serialized) context may
// call it.
func (r *AttrRecorder) SetClass(c OpClass) { r.class = c }

// Class returns the currently active class.
func (r *AttrRecorder) Class() OpClass { return r.class }

// Write charges one write of n bytes.
func (r *AttrRecorder) Write(n uint64) {
	r.attr.ChargeWrite(r.class, n)
	r.writes++
}

// Flush charges the cachelines covering an [off, off+n) flush.
func (r *AttrRecorder) Flush(off, n uint64) {
	lines := FlushLines(off, n)
	r.attr.ChargeFlush(r.class, lines)
	r.flushes += lines
}

// Fence charges one ordering barrier.
func (r *AttrRecorder) Fence() {
	r.attr.ChargeFence(r.class)
	r.fences++
}

// OpMark is a point-in-time snapshot of a recorder's running totals.
type OpMark struct{ Writes, Flushes, Fences uint64 }

// Mark snapshots the recorder's running totals. Owner-serialized, like
// SetClass.
func (r *AttrRecorder) Mark() OpMark {
	return OpMark{Writes: r.writes, Flushes: r.flushes, Fences: r.fences}
}

// Since returns the device ops issued through the recorder since m.
func (r *AttrRecorder) Since(m OpMark) OpMark {
	return OpMark{
		Writes:  r.writes - m.Writes,
		Flushes: r.flushes - m.Flushes,
		Fences:  r.fences - m.Fences,
	}
}

// FlushLines returns the number of cachelines a Flush of [off, off+n)
// touches — the same arithmetic the device's own flush counter uses.
func FlushLines(off, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	start := off &^ (CachelineSize - 1)
	end := (off + n + CachelineSize - 1) &^ (CachelineSize - 1)
	return (end - start) / CachelineSize
}
