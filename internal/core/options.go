package core

import (
	"fmt"
	"runtime"
	"time"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

// Protection selects how the heap-metadata region is guarded.
type Protection int

const (
	// ProtectMPK guards metadata with per-thread protection keys (the
	// paper's design). Each allocator operation grants write permission to
	// the executing thread only and revokes it on exit (§4.3).
	ProtectMPK Protection = iota + 1
	// ProtectNone leaves metadata writable at all times — the ablation
	// baseline quantifying MPK's cost (and demonstrating its value).
	ProtectNone
	// ProtectMprotect models page-table-based protection: the same
	// grant/revoke discipline, but each switch spins mprotectCost
	// iterations (~µs, syscall scale) instead of WRPKRU's ~23 cycles. Used
	// by the ablation bench.
	ProtectMprotect
	// ProtectMPKHardened is MPK plus the §8 mitigation the paper points to
	// (ERIM/Hodor binary inspection): the protection unit is sealed so
	// only the allocator's own entry/exit paths can execute WRPKRU — a
	// control-flow hijack attempting a permission switch traps.
	ProtectMPKHardened
)

// Options configures heap creation. The zero value is usable: every field
// has a sensible default applied by withDefaults.
type Options struct {
	// Subheaps is the number of per-CPU sub-heaps. Defaults to
	// runtime.GOMAXPROCS(0).
	Subheaps int
	// SubheapUserSize is the user-data bytes per sub-heap; must be a power
	// of two. Default 64 MiB.
	SubheapUserSize uint64
	// SubheapMetaSize is the metadata bytes per sub-heap (header, logs,
	// hash table). Default max(1 MiB, SubheapUserSize/16), page aligned.
	SubheapMetaSize uint64
	// UndoLogSize is the per-sub-heap commit-log bytes. Default 256 KiB.
	UndoLogSize uint64
	// MaxThreads bounds concurrently open Thread handles (each owns one
	// persistent micro-log lane). Default 256.
	MaxThreads int
	// MicroLogLaneSize is bytes per micro-log lane; bounds the length of
	// one transactional allocation sequence. Default 4 KiB (~250 allocs).
	MicroLogLaneSize uint64
	// HeapID identifies the heap inside persistent pointers. Zero picks a
	// pseudo-random ID at creation.
	HeapID uint64
	// Protection selects the metadata guard. Default ProtectMPK.
	Protection Protection
	// CrashTracking enables the device's crash simulation (shadow
	// persistent image). Required by SimulateCrash; costs memory and
	// per-store bookkeeping. Default off.
	CrashTracking bool
	// ScrubOnLoad makes Load audit every formatted sub-heap after log
	// recovery (the fsck engine) and quarantine any whose metadata fails —
	// the degrade-don't-die path for media corruption (bit flips, stray
	// writes that beat MPK). Costs a full metadata scan per sub-heap at
	// load; default off.
	ScrubOnLoad bool
	// Magazines sizes the per-thread block magazines, the lock-free
	// alloc/free path for small size classes. See MagazineOptions. Zero
	// value: 64 blocks of each of the 8 smallest classes.
	Magazines MagazineOptions
	// OnlineScrub enables the background scrubber: a goroutine that
	// periodically audits every in-service sub-heap with the fsck engine
	// (one sub-heap per lock slice, so foreground traffic is never blocked
	// for a full-heap scan), quarantines any whose metadata fails, and
	// immediately attempts a Repair. Zero value: disabled.
	OnlineScrub OnlineScrubOptions
	// Profile configures the allocation-site heap profiler: 1-in-Rate
	// allocations are sampled, attributed to their caller stack, and
	// aggregated per site (live objects/bytes + cumulative allocs/frees).
	// The aggregate is periodically persisted into the heap image's site
	// side-table so the profile survives crashes and restarts — the leak
	// report "blocks live since before epoch E, by allocation site".
	// Requires Telemetry. Zero value: sampling disabled (recovered profiles
	// are still loaded and rendered when Telemetry is set, so offline
	// inspection of a saved image works without sampling).
	Profile ProfileOptions
	// Trace configures the sampled op-span tracer: 1-in-Rate operations
	// (alloc/free/tx/refill, plus every repair and recovery)
	// record a span carrying duration and the flush/fence/write/retry
	// sub-events the operation issued, into a ring of the newest 4096
	// spans exported as Chrome trace-event JSON. Requires Telemetry. Zero
	// value: disabled.
	Trace TraceOptions
	// Watchdog configures the stall watchdog: a background goroutine that
	// scans every sub-heap's lock holder and journals an EventStall (into
	// both the DRAM journal and the black-box ring) for any that exceed
	// StallThreshold, with sub-heap, op kind and held-lock attribution.
	// Enabling it also instruments every sub-heap lock hold with
	// lock-wait/lock-hold histograms and attaches the device fence/flush
	// latency outlier tap. Requires Telemetry. Zero value: disabled.
	Watchdog WatchdogOptions
	// DeviceStats enables flush/fence counters on the device.
	DeviceStats bool
	// Telemetry, when non-nil, wires the heap into the telemetry registry:
	// latency histograms for every operation class, per-class attribution
	// of device persistence traffic, per-sub-heap gauges and the event
	// journal (see internal/obs and Heap.Metrics). A nil Telemetry costs
	// exactly one pointer check on the hot path. Implies DeviceStats.
	Telemetry *obs.Telemetry
}

// MagazineOptions sizes the per-thread block magazines. Each Thread keeps
// a DRAM stack of pre-carved blocks per small size class: Alloc pops and a
// Free of a popped block pushes, whichever sub-heap owns it, without a
// sub-heap lock or a commit. Every pop and push persists one word of the
// thread's cache manifest (one flush and one fence) before it returns, so
// each Alloc and Free is durable on return like a locked one. An empty
// class refills to Capacity blocks from the thread's sub-heap in one
// commit; a full class flushes Capacity/2 blocks back to their owners.
// Recovery returns every block a manifest names to its owner's free list.
// Magazines cannot be turned off: an image whose manifest arena is too
// small for the sizing, or whose sub-heaps are too wide for a manifest
// word, runs without them.
type MagazineOptions struct {
	// Capacity is the per-class magazine depth in blocks. Default 64;
	// otherwise it must be in [2, 4096].
	Capacity int
	// Classes is how many of the smallest size classes are magazined:
	// class c holds blocks of 64<<c bytes. Default 8 (64 B … 8 KiB);
	// capped at the sub-heap's class count and at maxMarkedClasses.
	Classes int
}

// ProfileOptions configures the allocation-site heap profiler.
type ProfileOptions struct {
	// Rate samples 1-in-Rate allocations (1 = every allocation). 0
	// disables sampling; the off path costs one nil pointer check on the
	// thread's alloc/free wrappers.
	Rate int
}

// TraceOptions configures the sampled op-span tracer.
type TraceOptions struct {
	// Rate samples 1-in-Rate operations (1 = every operation). 0 disables
	// tracing; the off path costs one nil pointer check per hook site.
	Rate int
}

// WatchdogOptions configures the opt-in stall watchdog.
type WatchdogOptions struct {
	// StallThreshold is the deadline after which a sub-heap lock hold
	// counts as stalled; 0 disables the watchdog entirely. The watchdog
	// scans every StallThreshold/4 (at least every millisecond), so a
	// stall is detected within ~1.25x its threshold.
	StallThreshold time.Duration
}

// OnlineScrubOptions paces the opt-in background scrubber.
type OnlineScrubOptions struct {
	// Interval is the pause between full scrub passes; 0 disables the
	// scrubber entirely.
	Interval time.Duration
}

const (
	defaultUserSize    = 64 << 20
	defaultUndoLogSize = 256 << 10
	defaultMaxThreads  = 256
	defaultLaneSize    = 4 << 10

	// mprotectCost is the modeled spin per permission switch under
	// ProtectMprotect (~µs scale).
	mprotectCost = 20000

	minMetaSize = 1 << 20

	defaultMagClasses  = 8
	defaultMagCapacity = 64

	// defaultMagSlots is the per-lane cache-manifest capacity every new
	// image provisions (4 KiB per lane): the default magazine sizing.
	defaultMagSlots = defaultMagClasses * defaultMagCapacity

	// defaultProfSize is the profile side-table arena every image
	// provisions (two checksummed snapshot slots of ~32 KiB payload each)
	// even when profiling is off, so profiling can be enabled on an
	// existing image later by reopening it.
	defaultProfSize = 64 << 10

	// defaultBoxSize is the black-box flight-recorder arena every image
	// provisions (two header cachelines + ~510 record slots of 128 bytes)
	// even when no telemetry is attached, so the recorder can start mirroring
	// the moment a heap is reopened with Telemetry, as with the profile
	// arena.
	defaultBoxSize = 64 << 10
)

// magSlots returns the per-lane manifest word count a new image should
// provision for these options.
func (o Options) magSlots() uint64 {
	n := uint64(defaultMagSlots)
	if need := uint64(o.Magazines.Classes) * uint64(o.Magazines.Capacity); need > n {
		n = need
	}
	return n
}

func (o Options) withDefaults() Options {
	if o.Subheaps == 0 {
		o.Subheaps = runtime.GOMAXPROCS(0)
	}
	if o.SubheapUserSize == 0 {
		o.SubheapUserSize = defaultUserSize
	}
	if o.SubheapMetaSize == 0 {
		o.SubheapMetaSize = o.SubheapUserSize / 16
		if o.SubheapMetaSize < minMetaSize {
			o.SubheapMetaSize = minMetaSize
		}
	}
	o.SubheapMetaSize = (o.SubheapMetaSize + nvm.PageSize - 1) &^ (nvm.PageSize - 1)
	if o.UndoLogSize == 0 {
		o.UndoLogSize = defaultUndoLogSize
	}
	o.UndoLogSize = (o.UndoLogSize + nvm.PageSize - 1) &^ (nvm.PageSize - 1)
	if o.MaxThreads == 0 {
		o.MaxThreads = defaultMaxThreads
	}
	if o.MicroLogLaneSize == 0 {
		o.MicroLogLaneSize = defaultLaneSize
	}
	o.MicroLogLaneSize = (o.MicroLogLaneSize + 255) &^ 255
	if o.Protection == 0 {
		o.Protection = ProtectMPK
	}
	if o.Magazines.Capacity == 0 {
		o.Magazines.Capacity = defaultMagCapacity
	}
	if o.Magazines.Classes == 0 {
		o.Magazines.Classes = defaultMagClasses
	}
	if o.Telemetry != nil {
		// Per-class attribution without the flat device counters would be
		// a confusing half-view; telemetry turns both on.
		o.DeviceStats = true
	}
	return o
}

// validate checks the options Create formats a new image with: the
// geometry, then everything validateRuntime checks.
func (o Options) validate() error {
	if err := o.validateGeometry(); err != nil {
		return err
	}
	return o.validateRuntime()
}

// validateGeometry checks the fields that shape the image. Create checks
// the options it formats with; Load and Attach check the superblock's
// geometry record (readLayout).
func (o Options) validateGeometry() error {
	if o.Subheaps < 1 || o.Subheaps > 1<<16 {
		return fmt.Errorf("poseidon: sub-heap count %d out of range [1, 65536]", o.Subheaps)
	}
	if o.SubheapUserSize&(o.SubheapUserSize-1) != 0 {
		return fmt.Errorf("poseidon: sub-heap user size %d must be a power of two", o.SubheapUserSize)
	}
	if o.SubheapUserSize < 1<<12 {
		return fmt.Errorf("poseidon: sub-heap user size %d too small", o.SubheapUserSize)
	}
	if o.SubheapUserSize >= 1<<subheapShift {
		return fmt.Errorf("poseidon: sub-heap user size %d exceeds the 6-byte pointer offset", o.SubheapUserSize)
	}
	if o.SubheapMetaSize < 64<<10 {
		return fmt.Errorf("poseidon: sub-heap metadata size %d too small", o.SubheapMetaSize)
	}
	if o.UndoLogSize < 8<<10 || o.UndoLogSize >= o.SubheapMetaSize {
		return fmt.Errorf("poseidon: commit log size %d out of range", o.UndoLogSize)
	}
	if o.MaxThreads < 1 || o.MaxThreads > 1<<20 {
		return fmt.Errorf("poseidon: max threads %d out of range", o.MaxThreads)
	}
	return nil
}

// validateRuntime checks the options that do not shape the image. Create,
// Load and Attach all run it, so Load and Attach reject every option Create
// rejects; the geometry comes from the image's superblock, which
// readLayout checks with validateGeometry.
func (o Options) validateRuntime() error {
	if o.OnlineScrub.Interval < 0 {
		return fmt.Errorf("poseidon: online scrub interval must not be negative")
	}
	if o.Profile.Rate < 0 {
		return fmt.Errorf("poseidon: profile sample rate %d must not be negative", o.Profile.Rate)
	}
	if o.Trace.Rate < 0 {
		return fmt.Errorf("poseidon: trace rate %d must not be negative", o.Trace.Rate)
	}
	if (o.Profile.Rate > 0 || o.Trace.Rate > 0) && o.Telemetry == nil {
		return fmt.Errorf("poseidon: Profile/Trace require Options.Telemetry")
	}
	if o.Watchdog.StallThreshold < 0 {
		return fmt.Errorf("poseidon: watchdog threshold must not be negative")
	}
	if o.Watchdog.StallThreshold > 0 && o.Telemetry == nil {
		return fmt.Errorf("poseidon: Watchdog requires Options.Telemetry")
	}
	if o.Magazines.Capacity < 2 || o.Magazines.Capacity > 4096 {
		return fmt.Errorf("poseidon: magazine capacity %d out of range [2, 4096]", o.Magazines.Capacity)
	}
	if o.Magazines.Classes < 1 || o.Magazines.Classes > 64 {
		return fmt.Errorf("poseidon: magazine class count %d out of range [1, 64]", o.Magazines.Classes)
	}
	return nil
}
