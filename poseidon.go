// Package poseidon is a Go reproduction of Poseidon, the safe, fast and
// scalable persistent memory (NVMM) allocator from Demeri et al.,
// Middleware '20.
//
// A Poseidon heap lives on a simulated NVMM device (package internal/nvm)
// and provides malloc/free-style allocation of persistent blocks plus
// transactional allocation, with three guarantees the paper argues no prior
// persistent allocator offered together:
//
//   - Complete heap-metadata protection: metadata is fully segregated from
//     user data and guarded by (modeled) Intel Memory Protection Keys.
//     Stray writes into metadata fault; invalid and double frees are
//     detected via the memory-block hash table and rejected.
//   - Crash consistency: every metadata mutation is one logged commit, and
//     transactional allocations are micro-logged, so a crash at any point —
//     including adversarial cacheline eviction — recovers to a consistent
//     heap with no leaks from uncommitted transactions.
//   - Scalability: per-CPU sub-heaps with per-sub-heap locks, and
//     constant-time block lookup via a multi-level hash table.
//
// # Quick start
//
//	h, err := poseidon.Open("heap.img", poseidon.Options{})
//	if err != nil { ... }
//	t, err := h.Thread()          // one per goroutine
//	p, err := t.Alloc(256)        // a persistent block
//	err = t.Persist(p, 0, data)   // write + flush + fence
//	err = h.SetRoot(p)            // reachable after restart
//	err = h.Save()                // durable image
//
// After a restart, poseidon.Open replays the logs, rolls back uncommitted
// transactions, and h.Root() leads back to the data.
package poseidon

import (
	"errors"
	"io/fs"
	"os"

	"poseidon/internal/core"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

// Core types, re-exported from the implementation package so application
// code imports only this package.
type (
	// Options configures heap geometry and protection. The zero value
	// gives a GOMAXPROCS-way heap with 64 MiB sub-heaps under MPK.
	Options = core.Options
	// NVMPtr is the 16-byte persistent pointer (heap ID, sub-heap, offset).
	NVMPtr = core.NVMPtr
	// Thread is a per-goroutine allocation context.
	Thread = core.Thread
	// HeapStats is a snapshot of allocator activity counters.
	HeapStats = core.HeapStats
	// Protection selects the metadata guard (MPK, none, mprotect-cost).
	Protection = core.Protection
	// MagazineOptions sizes the per-thread block magazines
	// (Options.Magazines), the default small-object path: a lock-free,
	// commit-free Alloc or Free that is durable on return at one flush and
	// one fence, backed by crash-reclaimable refill batches. A Free of a
	// popped block takes that path whichever sub-heap owns the block.
	MagazineOptions = core.MagazineOptions
	// ProfileOptions configures the sampled allocation-site heap profiler
	// (Options.Profile): 1-in-Rate allocations capture their caller stack,
	// aggregated per site and checkpointed into the heap image so leak
	// attribution survives crashes. See Heap.ProfilePprof.
	ProfileOptions = core.ProfileOptions
	// TraceOptions configures the sampled op-span tracer (Options.Trace):
	// 1-in-Rate operations record spans with their flush/fence/retry
	// sub-events, rendered as Chrome trace-event JSON by Heap.TraceJSON.
	TraceOptions = core.TraceOptions
	// WatchdogOptions configures the stall watchdog (Options.Watchdog): a
	// background goroutine that journals EventStall when a sub-heap
	// operation holds its lock past StallThreshold, feeds the
	// poseidon_stalls_total counter, and paces black-box ring publishes.
	// Requires Options.Telemetry.
	WatchdogOptions = core.WatchdogOptions
	// BlackboxEntry is one reconstructed black-box timeline entry (event,
	// span or stall) returned by Heap.BlackboxTimeline.
	BlackboxEntry = core.BlackboxEntry
	// Telemetry is the observability registry: pass one in
	// Options.Telemetry to get latency histograms, per-class device-traffic
	// attribution, per-sub-heap gauges and the event journal. See
	// Heap.Metrics.
	Telemetry = obs.Telemetry
	// Metrics is the full telemetry snapshot returned by Heap.Metrics.
	Metrics = obs.Snapshot
	// DeviceStatsSnapshot is the device's flat operation counters
	// (writes, bytes, clwb flushes, sfence barriers). Enabled reports
	// whether collection was on — an all-zero snapshot with Enabled false
	// means "never measured", not "idle".
	DeviceStatsSnapshot = nvm.StatsSnapshot
)

// NewTelemetry creates a telemetry registry for Options.Telemetry. One
// registry may be shared by several heaps; their traffic then aggregates.
func NewTelemetry() *Telemetry { return obs.New() }

// Protection modes.
const (
	ProtectMPK         = core.ProtectMPK
	ProtectNone        = core.ProtectNone
	ProtectMprotect    = core.ProtectMprotect
	ProtectMPKHardened = core.ProtectMPKHardened
)

// PtrFromLoc rebuilds a persistent pointer from a location word previously
// obtained with NVMPtr.Loc — the way applications store pointers inside
// persistent objects (poseidon_get_nvmptr's counterpart for stored
// locations).
func PtrFromLoc(heapID, loc uint64) NVMPtr { return core.PtrFromLoc(heapID, loc) }

// Errors returned by the allocator.
var (
	ErrOutOfMemory = core.ErrOutOfMemory
	ErrInvalidFree = core.ErrInvalidFree
	ErrDoubleFree  = core.ErrDoubleFree
	ErrBadPointer  = core.ErrBadPointer
	ErrBadSize     = core.ErrBadSize
	ErrCorruptHeap = core.ErrCorruptHeap
	ErrClosed      = core.ErrClosed
	// ErrSubheapQuarantined reports an operation on a sub-heap that
	// recovery took out of service (degrade-don't-die).
	ErrSubheapQuarantined = core.ErrSubheapQuarantined
)

// Heap is a Poseidon persistent heap. It wraps the core implementation
// with file-backed open/save convenience.
type Heap struct {
	*core.Heap
	path string
}

// Create formats a new in-memory heap (no backing file until Save).
func Create(opts Options) (*Heap, error) {
	h, err := core.Create(opts)
	if err != nil {
		return nil, err
	}
	return &Heap{Heap: h}, nil
}

// Open loads the heap image at path, running crash recovery — or creates a
// fresh heap if the file does not exist yet. Save writes it back.
func Open(path string, opts Options) (*Heap, error) {
	_, err := os.Stat(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		h, cerr := core.Create(opts)
		if cerr != nil {
			return nil, cerr
		}
		return &Heap{Heap: h, path: path}, nil
	case err != nil:
		return nil, err
	}
	dev, err := nvm.LoadFile(path, nvm.Options{
		CrashTracking: opts.CrashTracking,
		// Telemetry implies device stats (mirrors core's option defaulting,
		// which cannot reach back to a device created here).
		Stats: opts.DeviceStats || opts.Telemetry != nil,
	})
	if err != nil {
		return nil, err
	}
	h, err := core.Load(dev, opts)
	if err != nil {
		return nil, err
	}
	return &Heap{Heap: h, path: path}, nil
}

// Save writes the heap image to its opened path (or the explicit path from
// SaveAs). Unflushed user stores do not survive, exactly as they would not
// survive a power cycle.
func (h *Heap) Save() error {
	if h.path == "" {
		return errors.New("poseidon: heap has no backing path; use SaveAs")
	}
	return h.Heap.SaveFile(h.path)
}

// SaveAs writes the heap image to path.
func (h *Heap) SaveAs(path string) error { return h.Heap.SaveFile(path) }
