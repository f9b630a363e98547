package alloctest

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/nvm"
)

// The recovery suite checks Load on randomized, concurrent, crashed
// schedules in two ways. TestRecoverySpec is the oracle: while the
// schedule runs it records every block address's last acknowledged op, and
// every recovery of the crashed image must agree with that model — an
// acknowledged allocation survives at its class size, an acknowledged free
// stays free, payloads survive, every allocated block is one the model
// accounts for, and the rollback counter matches the work the schedule
// left behind. TestDifferentialParallelRecovery recovers the
// same image at GOMAXPROCS 1, 2 and 8 (Load sizes its worker pool by
// GOMAXPROCS) and requires the recoveries to be indistinguishable: audit
// reports, recovery counters, surviving-pointer fingerprints and the
// persistent image bytes. -race patrols the worker pool while the
// assertions patrol its semantics.

// recoveryMagClasses is the magazine class count the suite runs with:
// allocations of at most 64<<(recoveryMagClasses-1) bytes take the
// magazine fast path.
const recoveryMagClasses = 4

func recoveryDiffOptions() core.Options {
	return core.Options{
		Subheaps:        8,
		SubheapUserSize: 1 << 20,
		SubheapMetaSize: 256 << 10,
		UndoLogSize:     64 << 10,
		MaxThreads:      16,
		HeapID:          0xD1F2,
		CrashTracking:   true,
		ScrubOnLoad:     true,
		Magazines:       core.MagazineOptions{Capacity: 16, Classes: recoveryMagClasses},
	}
}

// recProbe is a pre-crash allocation the post-recovery fingerprint probes.
type recProbe struct {
	p   core.NVMPtr
	pat []byte
}

// specOp is the last acknowledged op on one block address. Every op is
// durable on return, magazine ops included, so the model is exact.
type specOp struct {
	live bool   // an allocation (else a free)
	size uint64 // the allocating request's class size
	pat  []byte // the payload persisted into the allocated block, if any
}

// freed is the entry an acknowledged free of op's block leaves behind.
func (op specOp) freed() specOp { return specOp{size: op.size} }

// classSize is the block size a request of n bytes is carved at: the next
// power of two, at least 64 bytes.
func classSize(n uint64) uint64 {
	c := uint64(64)
	for c < n {
		c <<= 1
	}
	return c
}

// recSpec is the model of one crashed schedule.
type recSpec struct {
	ops         map[core.NVMPtr]specOp
	openTx      int // uncommitted TxAllocs: recovery must roll back each
	lockedFrees int // cross-shard frees of locked-path blocks: durable on return
	magFrees    int // cross-shard frees left in a magazine: recovery frees each
}

// workerRun is what one worker's schedule leaves behind.
type workerRun struct {
	probes []recProbe
	ops    map[core.NVMPtr]specOp
	held   []core.NVMPtr // blocks still allocated when the schedule ends
}

// recoverySchedule drives one worker's seeded mess on its pinned shard:
// plain allocs with persisted payloads, local frees, magazine-class churn,
// committed transactions — and it deliberately leaves its thread open with
// an uncommitted transaction in flight, so every micro-log lane has
// rollback work when the crash lands. Every acknowledged op is recorded.
func recoverySchedule(h *core.Heap, w, seed, ops int) (workerRun, error) {
	run := workerRun{ops: map[core.NVMPtr]specOp{}}
	th, err := h.ThreadOn(w)
	if err != nil {
		return run, err
	}
	// No Close: the crash must catch magazines populated and the lane open.
	rng := rand.New(rand.NewSource(int64(seed*1000 + w)))
	alloc := func(size uint64) (core.NVMPtr, error) {
		p, err := th.Alloc(size)
		if err == nil {
			run.ops[p] = specOp{live: true, size: classSize(size)}
			run.held = append(run.held, p)
		}
		return p, err
	}
	free := func(k int) error {
		p := run.held[k]
		if err := th.Free(p); err != nil {
			return err
		}
		run.ops[p] = run.ops[p].freed()
		run.held = append(run.held[:k], run.held[k+1:]...)
		return nil
	}
	for i := 0; i < ops; i++ {
		switch rng.Intn(5) {
		case 0: // magazine-class churn (64..256 bytes, classes 0..2)
			if _, err := alloc(uint64(64 << rng.Intn(3))); err != nil {
				return run, fmt.Errorf("worker %d op %d: mag alloc: %w", w, i, err)
			}
		case 1: // larger block with a persisted payload we can probe later
			p, err := alloc(uint64(rng.Intn(1024) + 600))
			if err != nil {
				return run, fmt.Errorf("worker %d op %d: alloc: %w", w, i, err)
			}
			pat := make([]byte, 32)
			for j := range pat {
				pat[j] = byte(w*151 + i*13 + j)
			}
			if err := th.Persist(p, 0, pat); err != nil {
				return run, fmt.Errorf("worker %d op %d: persist: %w", w, i, err)
			}
			op := run.ops[p]
			op.pat = pat
			run.ops[p] = op
			run.probes = append(run.probes, recProbe{p: p, pat: pat})
		case 2: // free a random block this worker holds (a local free)
			if len(run.held) == 0 {
				continue
			}
			if err := free(rng.Intn(len(run.held))); err != nil {
				return run, fmt.Errorf("worker %d op %d: free: %w", w, i, err)
			}
		case 3: // committed transaction: durable, survives recovery
			size := uint64(rng.Intn(512) + 64)
			p, err := th.TxAlloc(size, true)
			if err != nil {
				return run, fmt.Errorf("worker %d op %d: tx commit: %w", w, i, err)
			}
			run.ops[p] = specOp{live: true, size: classSize(size)}
		case 4: // free this worker's oldest held block (also local)
			if len(run.held) < 2 {
				continue
			}
			if err := free(0); err != nil {
				return run, fmt.Errorf("worker %d op %d: free oldest: %w", w, i, err)
			}
		}
	}
	// Leave an uncommitted transaction open: recovery must roll it back.
	for k := 0; k < 3; k++ {
		size := uint64(128 << k)
		p, err := th.TxAlloc(size, false)
		if err != nil {
			return run, fmt.Errorf("worker %d: open tx alloc %d: %w", w, k, err)
		}
		run.ops[p] = specOp{size: classSize(size)} // rolled back: expected free
	}
	return run, nil
}

// buildCrashedImage runs the concurrent schedules, crashes with a seeded
// random eviction and saves the torn image for repeated recovery. It
// returns the model of the acknowledged ops alongside.
func buildCrashedImage(t *testing.T, seed int) (string, []recProbe, recSpec) {
	t.Helper()
	h, err := core.Create(recoveryDiffOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	workers := h.Subheaps()
	runs := make([]workerRun, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runs[w], errs[w] = recoverySchedule(h, w, seed, 120)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	// Each worker pinned its own shard, so the models cover disjoint
	// addresses.
	spec := recSpec{ops: map[core.NVMPtr]specOp{}, openTx: 3 * workers}
	for _, run := range runs {
		for p, op := range run.ops {
			spec.ops[p] = op
		}
	}
	// Cross-shard frees: shard 0 frees two blocks each other worker still
	// holds. A locked-path block (above the magazined classes) takes its
	// owner's lock and commits there, durable on return. A magazine-popped
	// block goes into shard 0's magazine instead, and recovery returns it
	// to its owner from that thread's manifest.
	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w < workers; w++ {
		var locked, cached bool
		for _, p := range runs[w].held {
			popped := spec.ops[p].size <= 64<<(recoveryMagClasses-1)
			if popped && cached || !popped && locked {
				continue
			}
			if err := th0.Free(p); err != nil {
				t.Fatalf("cross-shard free of a shard %d block: %v", w, err)
			}
			spec.ops[p] = spec.ops[p].freed()
			if popped {
				cached = true
				spec.magFrees++
			} else {
				locked = true
				spec.lockedFrees++
			}
		}
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.5, Seed: int64(seed)}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("diff-%d.img", seed))
	if err := h.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var probes []recProbe
	for _, run := range runs {
		probes = append(probes, run.probes...)
	}
	return path, probes, spec
}

// loadAtWidth recovers the saved image with GOMAXPROCS set to width, which
// sizes Load's worker pool, and restores the previous setting afterwards.
func loadAtWidth(t *testing.T, path string, width int) *core.Heap {
	t.Helper()
	dev, err := nvm.LoadFile(path, nvm.Options{CrashTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
	h, err := core.Load(dev, recoveryDiffOptions())
	if err != nil {
		t.Fatalf("Load (width %d): %v", width, err)
	}
	return h
}

// checkSpec compares one recovery against the model of the acknowledged
// ops.
func checkSpec(t *testing.T, h *core.Heap, spec recSpec) {
	t.Helper()
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	var live uint64
	for p, op := range spec.ops {
		size, err := th.BlockSize(p)
		allocated := err == nil
		switch {
		case op.live && !allocated:
			t.Errorf("%v: acknowledged %d B allocation lost: %v", p, op.size, err)
		case !op.live && allocated:
			t.Errorf("%v: acknowledged free undone: allocated at %d B", p, size)
		case allocated && size != op.size:
			t.Errorf("%v: allocated at %d B, its request's class is %d B", p, size, op.size)
		case allocated && op.pat != nil:
			got := make([]byte, len(op.pat))
			if err := th.Read(p, 0, got); err != nil || !bytes.Equal(got, op.pat) {
				t.Errorf("%v: persisted payload lost (read error %v)", p, err)
			}
		}
		if op.live {
			live++
		}
	}
	rep, err := h.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("recovery audit found problems: %v", rep.Problems)
	}
	if rep.AllocatedBlocks != live {
		t.Errorf("census: %d allocated blocks, the model holds %d", rep.AllocatedBlocks, live)
	}
	st := h.Stats()
	if st.RecoveredBlocks != uint64(spec.openTx) {
		t.Errorf("RecoveredBlocks = %d, want %d open TxAllocs rolled back", st.RecoveredBlocks, spec.openTx)
	}
}

// TestRecoverySpec recovers randomized crashed images at widths 1, 2 and 8
// and checks every recovery against the model of the acknowledged ops.
func TestRecoverySpec(t *testing.T) {
	for seed := 1; seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			path, _, spec := buildCrashedImage(t, seed)
			if spec.lockedFrees == 0 {
				t.Fatal("no worker held a locked-path block to free across shards: the schedule is not exercising the owner-lock path")
			}
			if spec.magFrees == 0 {
				t.Fatal("no worker held a popped block to free across shards: the schedule is not exercising foreign manifest entries")
			}
			for _, width := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
					h := loadAtWidth(t, path, width)
					defer h.Close()
					checkSpec(t, h, spec)
				})
			}
		})
	}
}

// recoveryFingerprint is everything one recovery of the image exposes: the
// audit report, the width-independent counters, the recovered image bytes,
// and a read-only probe trace over every pre-crash allocation (block size
// lookup + payload checksum — the surviving-pointer set).
type recoveryFingerprint struct {
	report core.CheckReport
	stats  map[string]uint64
	image  []byte
	probes []string
}

func fingerprintRecovery(t *testing.T, path string, width int, probes []recProbe) recoveryFingerprint {
	t.Helper()
	h := loadAtWidth(t, path, width)
	defer h.Close()

	var fp recoveryFingerprint
	var err error
	// Snapshot the image FIRST: the probe pass below is read-only, but the
	// byte comparison must cover exactly what recovery produced.
	snap := filepath.Join(t.TempDir(), "snap.img")
	if err := h.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	if fp.image, err = os.ReadFile(snap); err != nil {
		t.Fatal(err)
	}

	if fp.report, err = h.Check(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	fp.stats = map[string]uint64{
		// PermissionSwitches is excluded by design: recovery workers issue
		// their own grant/revoke pairs, so the switch count scales with the
		// pool width while nothing persistent changes.
		"recoveredBlocks":     st.RecoveredBlocks,
		"recoveredNoops":      st.RecoveredNoops,
		"recoveredCached":     st.RecoveredCached,
		"invalidFrees":        st.InvalidFrees,
		"doubleFrees":         st.DoubleFrees,
		"quarantinedSubheaps": st.QuarantinedSubheaps,
		"quarantinedBytes":    st.QuarantinedBytes,
	}

	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	for _, pr := range probes {
		size, err := th.BlockSize(pr.p)
		if err != nil {
			fp.probes = append(fp.probes, fmt.Sprintf("gone:%v", err))
			continue
		}
		got := make([]byte, len(pr.pat))
		if err := th.Read(pr.p, 0, got); err != nil {
			fp.probes = append(fp.probes, fmt.Sprintf("unreadable:%v", err))
			continue
		}
		fp.probes = append(fp.probes, fmt.Sprintf("live:%d:%08x:%v",
			size, crc32.ChecksumIEEE(got), bytes.Equal(got, pr.pat)))
	}
	return fp
}

// TestDifferentialParallelRecovery recovers the same randomized crashed
// images at widths 1, 2 and 8 and requires the recoveries to be
// indistinguishable, down to the persistent image bytes.
func TestDifferentialParallelRecovery(t *testing.T) {
	var sawTx, sawCached bool
	for seed := 1; seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			path, probes, _ := buildCrashedImage(t, seed)
			base := fingerprintRecovery(t, path, 1, probes)
			for _, width := range []int{2, 8} {
				fp := fingerprintRecovery(t, path, width, probes)
				if !reflect.DeepEqual(base.report, fp.report) {
					t.Errorf("audit reports diverge:\nwidth 1: %+v\nwidth %d: %+v", base.report, width, fp.report)
				}
				if !reflect.DeepEqual(base.stats, fp.stats) {
					t.Errorf("recovery counters diverge:\nwidth 1: %v\nwidth %d: %v", base.stats, width, fp.stats)
				}
				if !reflect.DeepEqual(base.probes, fp.probes) {
					for i := range base.probes {
						if base.probes[i] != fp.probes[i] {
							t.Errorf("probe %d diverges: width 1 %q, width %d %q", i, base.probes[i], width, fp.probes[i])
							break
						}
					}
					t.Error("surviving-pointer fingerprints diverge")
				}
				if !bytes.Equal(base.image, fp.image) {
					n := 0
					for i := range base.image {
						if base.image[i] != fp.image[i] {
							n++
						}
					}
					t.Errorf("recovered images at widths 1 and %d differ in %d bytes", width, n)
				}
			}
			if !base.report.OK() {
				t.Errorf("recovery audit found problems: %v", base.report.Problems)
			}
			if base.stats["recoveredBlocks"] > 0 {
				sawTx = true
			}
			if base.stats["recoveredCached"] > 0 {
				sawCached = true
			}
		})
	}
	// Coverage guards: a sweep that never exercised lane rollback or
	// magazine reclaim would be vacuously green.
	if !sawTx {
		t.Error("no seed exercised micro-log rollback")
	}
	if !sawCached {
		t.Error("no seed exercised magazine-manifest reclaim")
	}
}
