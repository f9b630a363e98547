// Package torture implements exhaustive crash-point sweeps: a scripted
// workload is measured once to count its mutating device operations, then
// re-run with the failpoint armed at EVERY operation index, crashed under a
// configurable eviction policy, reloaded, and audited. A single surviving
// inconsistency is a violation, reported with the minimal reproducer
// (seed, crash point, evict mode) that replays it.
package torture

import (
	"errors"
	"fmt"
	"sync"

	"poseidon/internal/alloc"
	"poseidon/internal/core"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/workloads"
)

// Config parameterises one sweep.
type Config struct {
	// Ops is the operation count of the scripted mix workload; it scales
	// the number of crash points swept.
	Ops int
	// Seed drives the workload and (mixed with the crash point) each
	// crash's eviction randomness.
	Seed int64
	// Modes are the eviction policies to sweep. Empty defaults to all.
	Modes []nvm.EvictMode
	// Workers bounds parallel crash-point runs. 0 defaults to 4.
	Workers int
	// Prob is the EvictRandom survival / EvictTorn full-persist
	// probability. 0 defaults to 0.5.
	Prob float64
	// Stride sweeps every Stride-th crash point (>=1). 0 defaults to 1.
	Stride int
	// Point restricts the sweep to one crash point when SinglePoint is set
	// — reproducer mode.
	Point       int
	SinglePoint bool
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
	// Telemetry, when non-nil, instruments every torture heap: recovery and
	// scrub latencies accumulate across the sweep, and each violation is
	// journalled as an EventViolation. Nil costs nothing.
	Telemetry *obs.Telemetry
}

// Violation is one crash point whose recovery left the heap inconsistent.
type Violation struct {
	Mode   nvm.EvictMode
	Point  int
	Seed   int64
	Report nvm.CrashReport // fate of the dirty lines at this crash
	Detail string          // what the audit saw
}

// Reproducer returns the poseidon-torture invocation that replays exactly
// this violation.
func (v Violation) Reproducer(ops int, prob float64) string {
	return fmt.Sprintf("poseidon-torture -ops %d -seed %d -modes %s -point %d -prob %g",
		ops, v.Seed, v.Mode, v.Point, prob)
}

// Result summarises a sweep.
type Result struct {
	CrashPoints int // mutating device ops in the workload (points per mode)
	Runs        int // crash/recover/audit cycles executed
	Persisted   uint64
	Dropped     uint64
	Torn        uint64
	Violations  []Violation
}

func (c Config) withDefaults() Config {
	if len(c.Modes) == 0 {
		c.Modes = []nvm.EvictMode{nvm.EvictNone, nvm.EvictAll, nvm.EvictRandom, nvm.EvictTorn}
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Prob == 0 {
		c.Prob = 0.5
	}
	if c.Stride <= 0 {
		c.Stride = 1
	}
	return c
}

// heapOptions is the fixed torture-heap geometry: small enough that a
// crash/recover/audit cycle is fast, large enough that the mix workload
// never legitimately exhausts it.
func heapOptions(tel *obs.Telemetry) core.Options {
	return core.Options{
		Subheaps:        2,
		SubheapUserSize: 1 << 20,
		SubheapMetaSize: 256 << 10,
		UndoLogSize:     64 << 10,
		MaxThreads:      8,
		HeapID:          0x70051D04, // fixed: runs must be byte-identical
		CrashTracking:   true,
		ScrubOnLoad:     true,
		// Small magazines: the workload's magazine segment sweeps crash
		// points through refill persists, pops, pushes, overflow
		// flush-backs and the close-time flush-back, and recovery's
		// manifest replay must reclaim every cached block at whatever
		// boundary the failpoint lands on.
		Magazines: core.MagazineOptions{Capacity: 8, Classes: 4},
		Telemetry: tel,
	}
}

// rootOp records the workload's SetRoot: the block it sets, once the call
// is made, and whether the call returned.
type rootOp struct {
	block    core.NVMPtr
	returned bool
}

// runWorkload drives the scripted operation sequence on h: transactional
// allocation bursts, a root update, the seeded alloc/free mix, one
// Kruskal iteration, and the cross-shard free and magazine segments.
// Deterministic for a given seed. acked records the root block's Alloc and
// the magazine segment's acknowledged ops (see magazineSegment), and root
// the root update.
func runWorkload(h *core.Heap, ops int, seed int64, acked map[core.NVMPtr]bool, root *rootOp) error {
	th, err := h.Thread()
	if err != nil {
		return err
	}
	for burst := 0; burst < 2; burst++ {
		for j := 0; j < 4; j++ {
			if _, err := th.TxAlloc(64<<j, j == 3); err != nil {
				th.Close()
				return err
			}
		}
	}
	if root.block, err = th.Alloc(64); err != nil {
		th.Close()
		return err
	}
	acked[root.block] = true
	if err := h.SetRoot(root.block); err != nil {
		th.Close()
		return err
	}
	root.returned = true
	th.Close()

	hd, err := alloc.WrapPoseidon(h).Thread(0)
	if err != nil {
		return err
	}
	defer hd.Close()
	if _, err := workloads.Mix(hd, ops, seed); err != nil {
		return err
	}
	if _, err := workloads.Kruskal(hd, 1, seed+1); err != nil {
		return err
	}
	if err := crossShardFreeSegment(h); err != nil {
		return err
	}
	return magazineSegment(h, acked)
}

// crossShardFreeSegment is the scripted (deterministic, single-goroutine)
// cross-shard free mix: blocks carved on sub-heap 0's locked path
// (committed TxAllocs; a magazine-popped block would go into the freeing
// thread's magazine instead) are freed from a thread pinned to sub-heap 1,
// so every free takes sub-heap 0's lock and commits there (§5.7), and
// crash points land inside those commits. A repeated free of one of them
// must come back as ErrDoubleFree from the call itself.
func crossShardFreeSegment(h *core.Heap) error {
	t0, err := h.ThreadOn(0)
	if err != nil {
		return err
	}
	defer t0.Close()
	t1, err := h.ThreadOn(1)
	if err != nil {
		return err
	}
	defer t1.Close()

	const blocks = 10
	var ptrs [blocks]core.NVMPtr
	for i := range ptrs {
		if ptrs[i], err = t0.TxAlloc(uint64(64<<(i%3)), true); err != nil {
			return err
		}
	}
	for _, p := range ptrs {
		if err := t1.Free(p); err != nil {
			return err
		}
	}
	switch err := t1.Free(ptrs[0]); {
	case err == nil:
		return errors.New("torture: a cross-shard double free was accepted")
	case !errors.Is(err, core.ErrDoubleFree):
		return err
	}
	return nil
}

// magazineSegment is the scripted magazine mix on capacity-8 magazines.
// On shard 0, 12 class-1 allocations force two refill carves (the
// manifest-persist boundary) and 12 pops, and 12 frees push them back and
// force two overflow flush-backs (the entry-clear boundary). Then a
// shard-1 thread frees shard-0 popped blocks into its own magazine
// (foreign pushes), pops one back (a foreign pop), and twice overflows a
// stack holding both sub-heaps' blocks (one flush-back per owner). Close
// flushes the remainders back, the shard-1 thread's to both owners — so
// swept crash points land inside refill commits, pop and push word
// persists, word clears and per-owner flush-backs, and recovery's
// manifest replay runs against every intermediate state. Every Alloc and
// Free that returns nil is recorded in acked (true: allocated, false:
// freed): each is durable on return, so recovery must agree.
func magazineSegment(h *core.Heap, acked map[core.NVMPtr]bool) error {
	t0, err := h.ThreadOn(0)
	if err != nil {
		return err
	}
	defer t0.Close()
	t1, err := h.ThreadOn(1)
	if err != nil {
		return err
	}
	defer t1.Close()
	// freedBy[p] is the thread whose acknowledged Free pushed p. A failed
	// Alloc may have been popping any block its thread pushed when the
	// device died, so the frees of those blocks are in flight too.
	freedBy := map[core.NVMPtr]*core.Thread{}
	alloc := func(th *core.Thread) (core.NVMPtr, error) {
		p, err := th.Alloc(96)
		if err != nil {
			for q, by := range freedBy {
				if by == th {
					delete(acked, q)
				}
			}
			return p, err
		}
		acked[p] = true
		delete(freedBy, p)
		return p, nil
	}
	free := func(th *core.Thread, p core.NVMPtr) error {
		if err := th.Free(p); err != nil {
			delete(acked, p) // a failed Free may or may not have happened
			return err
		}
		acked[p] = false
		freedBy[p] = th
		return nil
	}

	var ptrs [12]core.NVMPtr
	for i := range ptrs {
		if ptrs[i], err = alloc(t0); err != nil {
			return err
		}
	}
	for _, p := range ptrs {
		if err := free(t0, p); err != nil {
			return err
		}
	}

	// Cross-shard: t1 pops 2 of its own blocks (its refill leaves 6
	// cached), takes 2 shard-0 blocks on top (foreign pushes) and pops the
	// newest back (a foreign pop).
	var own [2]core.NVMPtr
	for i := range own {
		if own[i], err = alloc(t1); err != nil {
			return err
		}
	}
	var lent [6]core.NVMPtr
	for i := range lent {
		if lent[i], err = alloc(t0); err != nil {
			return err
		}
	}
	for _, p := range lent[:2] {
		if err := free(t1, p); err != nil {
			return err
		}
	}
	if p, err := alloc(t1); err != nil {
		return err
	} else if p != lent[1] {
		return fmt.Errorf("torture: shard-1 pop returned %v, want the shard-0 block %v it freed", p, lent[1])
	}
	// Re-push it and overflow twice with both owners in the newest half
	// (at lent[2] and lent[4]); Close then returns both owners' blocks.
	for _, p := range []core.NVMPtr{lent[1], lent[2], own[0], own[1], lent[3], lent[4], lent[5]} {
		if err := free(t1, p); err != nil {
			return err
		}
	}
	return nil
}

// CountOps measures the workload: it arms an effectively infinite failpoint
// budget, runs to completion, and reads back how much was consumed — the
// exact number of mutating device operations, i.e. the crash points to
// sweep.
func CountOps(ops int, seed int64) (int, error) {
	// Uninstrumented on purpose: the measurement run must consume exactly
	// the same device-op budget as the swept runs, and telemetry adds no
	// device ops either way — but keeping it out makes that obvious.
	h, err := core.Create(heapOptions(nil))
	if err != nil {
		return 0, err
	}
	defer h.Close()
	const huge = int64(1) << 40
	h.Device().FailAfter(huge)
	err = runWorkload(h, ops, seed, map[core.NVMPtr]bool{}, &rootOp{})
	consumed := huge - h.Device().FailBudgetRemaining()
	h.Device().DisarmFailpoint()
	if err != nil {
		return 0, fmt.Errorf("torture: workload failed during measurement: %w", err)
	}
	return int(consumed), nil
}

// pointSeed mixes the sweep seed with a crash point so each crash draws
// independent (but reproducible) eviction randomness.
func pointSeed(seed int64, point int) int64 {
	return seed ^ int64(uint64(point)*0x9E3779B97F4A7C15)
}

// runPoint executes one crash/recover/audit cycle: fresh heap, workload
// with the failpoint armed at point, crash under mode, reload, full audit,
// post-recovery smoke allocation. Returns a non-nil Violation on any
// surviving inconsistency.
func runPoint(cfg Config, mode nvm.EvictMode, point int) (nvm.CrashReport, *Violation, error) {
	fail := func(report nvm.CrashReport, format string, args ...any) (nvm.CrashReport, *Violation, error) {
		detail := fmt.Sprintf(format, args...)
		cfg.Telemetry.Emit(obs.EventViolation, -1,
			fmt.Sprintf("mode=%s point=%d: %s", mode, point, detail))
		return report, &Violation{
			Mode:   mode,
			Point:  point,
			Seed:   cfg.Seed,
			Report: report,
			Detail: detail,
		}, nil
	}

	h, err := core.Create(heapOptions(cfg.Telemetry))
	if err != nil {
		return nvm.CrashReport{}, nil, err
	}
	dev := h.Device()
	dev.FailAfter(int64(point))
	acked := map[core.NVMPtr]bool{}
	var root rootOp
	werr := runWorkload(h, cfg.Ops, cfg.Seed, acked, &root)
	tripped := dev.FailBudgetRemaining() < 0
	dev.DisarmFailpoint()
	if !tripped {
		return nvm.CrashReport{}, nil, fmt.Errorf(
			"torture: point %d did not trip (workload is non-deterministic?)", point)
	}
	// A nil werr with the budget exhausted means the failpoint fired
	// inside a best-effort path (a magazine flush-back at thread close is
	// deliberately absorbed — the cached blocks stay manifest-recorded for
	// recovery); the crash/recover/audit below still validates that state.
	if werr != nil && !errors.Is(werr, nvm.ErrDeviceFailed) {
		return fail(nvm.CrashReport{}, "workload failed before the crash point: %v", werr)
	}
	_ = h.Close()

	report, err := dev.Crash(nvm.CrashPolicy{
		Mode: mode,
		Prob: cfg.Prob,
		Seed: pointSeed(cfg.Seed, point),
	})
	if err != nil {
		return report, nil, err
	}

	h2, err := core.Load(dev, heapOptions(cfg.Telemetry))
	if err != nil {
		return fail(report, "Load after crash: %v", err)
	}
	defer h2.Close()
	check, err := h2.Check()
	if err != nil {
		return fail(report, "audit error: %v", err)
	}
	switch {
	case len(check.Problems) > 0:
		return fail(report, "audit found %d problems: %v", len(check.Problems), check.Problems)
	case check.Quarantined > 0:
		// With ScrubOnLoad on, a quarantine here means recovery classified
		// legitimate crash damage as corruption — degrade-don't-die must
		// never fire on a pure power failure.
		return fail(report, "recovery quarantined %d sub-heaps: %+v",
			check.Quarantined, check.SubheapReports)
	case check.PendingUndo != 0 || check.PendingTx != 0 || check.PendingCached != 0:
		return fail(report, "recovery left pending work: undo=%d tx=%d cached=%d",
			check.PendingUndo, check.PendingTx, check.PendingCached)
	}

	// The recovered heap must still serve: allocate and free a block.
	th, err := h2.Thread()
	if err != nil {
		return fail(report, "post-recovery Thread: %v", err)
	}
	defer th.Close()
	// Every acknowledged magazine op survives: a popped block stays
	// allocated, a pushed one comes back free.
	for p, live := range acked {
		if _, err := th.BlockSize(p); (err == nil) != live {
			return fail(report, "acknowledged magazine op on %v undone: allocated=%v after recovery (%v)",
				p, err == nil, err)
		}
	}
	// The root is its block once SetRoot returned, null before the call,
	// and either while it was in flight (the block is in acked).
	if got, err := h2.Root(); err != nil || got != root.block && (root.returned || !got.IsNull()) {
		return fail(report, "root %v (%v) after recovery, want %v (SetRoot returned: %v)",
			got, err, root.block, root.returned)
	}
	p, err := th.Alloc(128)
	if err != nil {
		return fail(report, "post-recovery Alloc: %v", err)
	}
	if err := th.Free(p); err != nil {
		return fail(report, "post-recovery Free: %v", err)
	}
	return report, nil, nil
}

// Run executes the sweep described by cfg.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	total, err := CountOps(cfg.Ops, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	res := Result{CrashPoints: total}

	var points []int
	if cfg.SinglePoint {
		if cfg.Point < 0 || cfg.Point >= total {
			return res, fmt.Errorf("torture: point %d out of range [0, %d)", cfg.Point, total)
		}
		points = []int{cfg.Point}
	} else {
		for k := 0; k < total; k += cfg.Stride {
			points = append(points, k)
		}
	}
	logf("workload: %d mix ops -> %d mutating device ops; sweeping %d points x %d modes",
		cfg.Ops, total, len(points), len(cfg.Modes))

	var (
		mu    sync.Mutex
		first error
	)
	for _, mode := range cfg.Modes {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for point := range jobs {
					report, v, err := runPoint(cfg, mode, point)
					mu.Lock()
					res.Runs++
					res.Persisted += uint64(report.PersistedLines)
					res.Dropped += uint64(report.DroppedLines)
					res.Torn += uint64(report.TornLines)
					if err != nil && first == nil {
						first = err
					}
					if v != nil {
						res.Violations = append(res.Violations, *v)
					}
					mu.Unlock()
				}
			}()
		}
		for _, k := range points {
			jobs <- k
		}
		close(jobs)
		wg.Wait()
		mu.Lock()
		viol := len(res.Violations)
		mu.Unlock()
		logf("mode %-6s swept %d points (%d violations so far)", mode, len(points), viol)
		if first != nil {
			return res, first
		}
	}
	return res, nil
}
