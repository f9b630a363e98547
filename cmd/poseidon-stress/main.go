// Command poseidon-stress is the pre-release soak tool: randomized
// concurrent allocation workloads punctuated by simulated power failures
// with adversarial cacheline eviction, each followed by recovery and a
// full consistency audit (the fsck engine). It exits non-zero on the first
// inconsistency.
//
//	poseidon-stress -cycles 20 -threads 4 -ops 3000
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"

	"poseidon/internal/core"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "poseidon-stress:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		cycles   = flag.Int("cycles", 20, "crash/recover cycles")
		threads  = flag.Int("threads", 4, "concurrent workers")
		ops      = flag.Int("ops", 3000, "operations per worker per cycle")
		seed     = flag.Int64("seed", 1, "randomness seed")
		metrics  = flag.String("metrics", "", "serve /metrics, /vars and /debug/pprof on this address (e.g. :9120; empty = off)")
		save     = flag.String("save", "", "save the final heap image to this path (e.g. for a poseidon-fsck audit)")
		profRate = flag.Int("profile-rate", 0, "sample 1-in-N allocations into the site profiler (0 = off); served at /debug/pprof/poseidon_heap")
		trcRate  = flag.Int("trace-rate", 0, "sample 1-in-N operations as spans (0 = off); served at /debug/optrace")
		optrace  = flag.String("optrace", "", "write the final op-span trace as Chrome trace-event JSON to this path")
		watchdog = flag.Duration("watchdog", 0, "stall-watchdog threshold (0 = off); stalls are journalled and recorded in the black box")
	)
	flag.Parse()

	tel := obs.New()
	opts := core.Options{
		Subheaps:        *threads,
		SubheapUserSize: 8 << 20,
		SubheapMetaSize: 2 << 20,
		MaxThreads:      *threads * 2,
		CrashTracking:   true,
		Telemetry:       tel,
		Profile:         core.ProfileOptions{Rate: *profRate},
		Trace:           core.TraceOptions{Rate: *trcRate},
		Watchdog:        core.WatchdogOptions{StallThreshold: *watchdog},
	}
	if *optrace != "" && *trcRate <= 0 {
		return errors.New("-optrace needs -trace-rate > 0")
	}
	h, err := core.Create(opts)
	if err != nil {
		return err
	}
	// The heap is replaced on every crash/recover cycle; the metrics
	// endpoint snapshots whichever heap is current.
	var cur atomic.Pointer[core.Heap]
	cur.Store(h)
	if *save != "" {
		// Saved on every exit path — a failing run leaves the image behind
		// for a poseidon-fsck post-mortem.
		defer func() {
			if *profRate > 0 {
				// Checkpoint the site table so the saved image carries the
				// freshest profile, not the last paced snapshot.
				if perr := cur.Load().PersistProfile(); perr != nil {
					fmt.Fprintln(os.Stderr, "poseidon-stress: persisting profile:", perr)
				}
			}
			// Publish staged black-box records so the saved image carries
			// the freshest timeline (best-effort).
			if ferr := cur.Load().FlushBlackbox(); ferr != nil {
				fmt.Fprintln(os.Stderr, "poseidon-stress: flushing black box:", ferr)
			}
			if err := cur.Load().SaveFile(*save); err != nil {
				fmt.Fprintln(os.Stderr, "poseidon-stress: saving image:", err)
			} else {
				fmt.Printf("saved: %s\n", *save)
			}
		}()
	}
	if *optrace != "" {
		defer func() {
			b := cur.Load().TraceJSON()
			if werr := os.WriteFile(*optrace, b, 0o644); werr != nil {
				fmt.Fprintln(os.Stderr, "poseidon-stress: writing optrace:", werr)
			} else {
				fmt.Printf("optrace: %s (%d bytes)\n", *optrace, len(b))
			}
		}()
	}
	if *metrics != "" {
		cfg := obs.MuxConfig{Snapshot: func() *obs.Snapshot { return cur.Load().Metrics() }}
		if *profRate > 0 {
			cfg.HeapProfile = func() ([]byte, error) { return cur.Load().ProfilePprof() }
		}
		if *trcRate > 0 {
			cfg.Trace = func() []byte { return cur.Load().TraceJSON() }
		}
		cfg.Blackbox = func() ([]byte, error) { return cur.Load().BlackboxJSON() }
		srv, err := obs.ServeConfig(*metrics, cfg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("metrics: http://%s/metrics\n", srv.Addr)
	}
	// SIGINT/SIGTERM stop the soak after the current cycle's audit, so the
	// deferred -save image and -optrace dump still happen — killing a soak
	// mid-run is the normal way to end an open-ended profiling session.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	var totalOps atomic.Uint64
	var totalRecovered uint64
	for cycle := 0; cycle < *cycles; cycle++ {
		select {
		case sig := <-stop:
			fmt.Printf("%v: stopping after %d cycles\n", sig, cycle)
			return nil
		default:
		}
		// Arm a failpoint partway through the cycle's work on half the
		// cycles, so both mid-operation and between-operation crashes are
		// exercised.
		rng := rand.New(rand.NewSource(*seed + int64(cycle)))
		if cycle%2 == 1 {
			h.Device().FailAfter(int64(rng.Intn(*ops * 10)))
		}
		var wg sync.WaitGroup
		for w := 0; w < *threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th, err := h.ThreadOn(w)
				if err != nil {
					return
				}
				defer th.Close()
				wrng := rand.New(rand.NewSource(*seed + int64(cycle*1000+w)))
				var live []core.NVMPtr
				done := 0
				defer func() { totalOps.Add(uint64(done)) }()
				for i := 0; i < *ops; i++ {
					if len(live) > 32 || (len(live) > 0 && wrng.Intn(3) == 0) {
						k := wrng.Intn(len(live))
						if err := th.Free(live[k]); err != nil {
							return // device dead or heap gone: stop quietly
						}
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
						done++
						continue
					}
					var p core.NVMPtr
					var err error
					if wrng.Intn(8) == 0 {
						p, err = th.TxAlloc(uint64(wrng.Intn(2048)+16), wrng.Intn(2) == 0)
					} else {
						p, err = th.Alloc(uint64(wrng.Intn(2048) + 16))
					}
					if errors.Is(err, core.ErrOutOfMemory) {
						continue
					}
					if err != nil {
						return
					}
					live = append(live, p)
					done++
				}
			}(w)
		}
		wg.Wait()
		h.Device().DisarmFailpoint()

		// Power failure with random cacheline survival, then restart.
		crash, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.5, Seed: *seed * int64(cycle+7)})
		if err != nil {
			return err
		}
		h2, err := core.Load(h.Device(), opts)
		if err != nil {
			return fmt.Errorf("cycle %d: recovery failed: %w", cycle, err)
		}
		// Emitted after Load so the event stages into the surviving heap's
		// black box (the crashed heap's staging is gone, as after real power
		// loss); the cycle boundary is a commit point, so drain the ring.
		tel.Emit(obs.EventCrash, -1, fmt.Sprintf(
			"cycle %d: power failure kept %d/%d dirty lines", cycle, crash.PersistedLines, crash.DirtyLines))
		if err := h2.FlushBlackbox(); err != nil {
			fmt.Fprintln(os.Stderr, "poseidon-stress: flushing black box:", err)
		}
		report, err := h2.Check()
		if err != nil {
			return fmt.Errorf("cycle %d: audit error: %w", cycle, err)
		}
		if !report.OK() {
			for _, p := range report.Problems {
				fmt.Fprintln(os.Stderr, "  -", p)
			}
			return fmt.Errorf("cycle %d: heap inconsistent (%d problems)", cycle, len(report.Problems))
		}
		st := h2.Stats()
		totalRecovered += st.RecoveredBlocks
		fmt.Printf("cycle %2d: ok — %d allocated blocks, %d free, %d tx rollbacks; crash kept %d/%d dirty lines\n",
			cycle, report.AllocatedBlocks, report.FreeBlocks, st.RecoveredBlocks,
			crash.PersistedLines, crash.DirtyLines)
		h = h2
		cur.Store(h)
	}
	fmt.Printf("PASS: %d cycles, %d operations, %d transactional rollbacks, 0 inconsistencies\n",
		*cycles, totalOps.Load(), totalRecovered)
	if ds := h.DeviceStats(); ds.Enabled {
		fmt.Printf("device: %d writes (%d bytes), %d cacheline flushes, %d fences\n",
			ds.Writes, ds.BytesWritten, ds.Flushes, ds.Fences)
	}
	for _, op := range []obs.Op{obs.OpAlloc, obs.OpFree, obs.OpTxAlloc} {
		hs := tel.Hist(op)
		if hs.Count == 0 {
			continue
		}
		fmt.Printf("%-8s n=%-8d p50=%s p99=%s max=%s\n", op, hs.Count,
			nsStr(hs.Quantile(0.50)), nsStr(hs.Quantile(0.99)), nsStr(hs.Max))
	}
	return nil
}

func nsStr(ns uint64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
