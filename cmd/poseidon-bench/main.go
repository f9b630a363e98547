// Command poseidon-bench regenerates the data behind every figure of the
// paper's evaluation section (§7): the thread-sweep tables each figure
// plots, comparing Poseidon against the PMDK-like and Makalu-like
// baselines.
//
//	poseidon-bench -fig all              # everything (default)
//	poseidon-bench -fig 6 -maxthreads 8  # Figure 6 only, sweep 1..8
//	poseidon-bench -fig ablation         # §4.7 design-choice ablations
//
// Numbers are Mops/sec on the simulated NVMM device; shapes, not absolute
// values, are comparable with the paper (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"poseidon/internal/alloc"
	"poseidon/internal/benchutil"
	"poseidon/internal/core"
	"poseidon/internal/fastfair"
	"poseidon/internal/larson"
	"poseidon/internal/makalu"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/pmdkalloc"
	"poseidon/internal/workloads"
	"poseidon/internal/ycsb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "poseidon-bench:", err)
		os.Exit(1)
	}
}

type config struct {
	fig        string
	maxThreads int
	scale      int
}

func run() error {
	var cfg config
	flag.StringVar(&cfg.fig, "fig", "all", "figure to regenerate: 6, 7, 8, 9, ablation, all")
	flag.IntVar(&cfg.maxThreads, "maxthreads", defaultThreads(), "largest thread count in the sweep")
	flag.IntVar(&cfg.scale, "scale", 1, "work multiplier (larger = longer, steadier numbers)")
	metrics := flag.String("metrics", "", "serve /metrics, /vars and /debug/pprof on this address (empty = off)")
	flag.Parse()

	if *metrics != "" {
		// One registry shared by every Poseidon heap the figures create:
		// the endpoint aggregates latency and attribution across the run.
		tel := obs.New()
		benchutil.SetTelemetry(tel)
		srv, err := obs.Serve(*metrics, tel.Snapshot)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("# metrics: http://%s/metrics\n", srv.Addr)
	}

	figs := map[string]func(config) error{
		"6":          fig6,
		"7":          fig7,
		"8":          fig8,
		"9":          fig9,
		"ablation":   ablation,
		"contention": contention,
		"frag":       fragmentation,
		"flushes":    flushes,
		"recovery":   recovery,
	}
	if cfg.fig == "all" {
		for _, name := range []string{"6", "7", "8", "9", "ablation", "contention", "frag", "flushes", "recovery"} {
			if err := figs[name](cfg); err != nil {
				return fmt.Errorf("figure %s: %w", name, err)
			}
		}
		return nil
	}
	f, ok := figs[cfg.fig]
	if !ok {
		return fmt.Errorf("unknown figure %q", cfg.fig)
	}
	return f(cfg)
}

func defaultThreads() int {
	// Sweep past the core count: the paper's contention effects (global
	// locks vs per-CPU sub-heaps) appear under oversubscription too.
	n := runtime.GOMAXPROCS(0) * 4
	if n > 16 {
		n = 16
	}
	if n < 4 {
		n = 4
	}
	return n
}

func fig6(cfg config) error {
	sizes := []uint64{256, 1 << 10, 4 << 10, 128 << 10, 256 << 10, 512 << 10}
	for _, size := range sizes {
		fig := benchutil.Figure{Title: fmt.Sprintf(
			"Figure 6 — microbenchmark, %d B objects (100 allocs + 100 frees in random order)", size)}
		for _, threads := range benchutil.ThreadSweep(cfg.maxThreads) {
			for _, name := range benchutil.AllocatorNames {
				a, err := benchutil.NewAllocator(name, benchutil.Config{
					Threads:   threads,
					HeapBytes: benchutil.MicroHeapBytes(size, threads),
				})
				if err != nil {
					return err
				}
				rounds := 20 * cfg.scale
				ops, d, err := benchutil.RunParallel(a, threads, func(w int, h alloc.Handle) (uint64, error) {
					return benchutil.MicroWorker(h, benchutil.MicroConfig{
						Size: size, Rounds: rounds, Seed: int64(w + 1),
					})
				})
				_ = a.Close()
				if err != nil {
					return fmt.Errorf("%s size=%d threads=%d: %w", name, size, threads, err)
				}
				fig.Add(name, threads, ops, d)
			}
		}
		fig.Print(os.Stdout)
	}
	return nil
}

func fig7(cfg config) error {
	fig := benchutil.Figure{Title: "Figure 7 — Larson benchmark (cross-thread server churn)"}
	for _, threads := range benchutil.ThreadSweep(cfg.maxThreads) {
		for _, name := range benchutil.AllocatorNames {
			a, err := benchutil.NewAllocator(name, benchutil.Config{
				Threads:   threads,
				HeapBytes: 32 << 20 * uint64(threads),
			})
			if err != nil {
				return err
			}
			res, err := larson.Run(a, larson.Config{
				Threads:        threads,
				SlotsPerThread: 256,
				RoundOps:       1000 * cfg.scale,
				Rounds:         4,
				Seed:           1,
			})
			if err != nil {
				_ = a.Close()
				return fmt.Errorf("%s threads=%d: %w", name, threads, err)
			}
			fig.Add(name, threads, res.Ops, res.Duration)
			_ = a.Close()
		}
	}
	fig.Print(os.Stdout)
	return nil
}

func fig8(cfg config) error {
	type wl struct {
		name    string
		run     func(h alloc.Handle, iters int) (uint64, error)
		iters   int
		heapPer uint64
	}
	// The Ackermann region is scaled from the paper's 1 GiB to 4 MiB
	// (DESIGN.md §1); iteration counts are scaled from 100,000.
	wls := []wl{
		{"Ackermann", func(h alloc.Handle, iters int) (uint64, error) {
			return workloads.Ackermann(h, 4<<20, iters)
		}, 20 * cfg.scale, 16 << 20},
		{"Kruskal", func(h alloc.Handle, iters int) (uint64, error) {
			return workloads.Kruskal(h, iters, 7)
		}, 2000 * cfg.scale, 16 << 20},
		{"NQueens", func(h alloc.Handle, iters int) (uint64, error) {
			return workloads.NQueens(h, iters)
		}, 2000 * cfg.scale, 16 << 20},
	}
	for _, w := range wls {
		fig := benchutil.Figure{Title: "Figure 8 — " + w.name}
		for _, threads := range benchutil.ThreadSweep(cfg.maxThreads) {
			for _, name := range benchutil.AllocatorNames {
				a, err := benchutil.NewAllocator(name, benchutil.Config{
					Threads:   threads,
					HeapBytes: w.heapPer * uint64(threads),
				})
				if err != nil {
					return err
				}
				ops, d, err := benchutil.RunParallel(a, threads, func(_ int, h alloc.Handle) (uint64, error) {
					return w.run(h, w.iters)
				})
				_ = a.Close()
				if err != nil {
					return fmt.Errorf("%s/%s threads=%d: %w", w.name, name, threads, err)
				}
				fig.Add(name, threads, ops, d)
			}
		}
		fig.Print(os.Stdout)
	}
	return nil
}

func fig9(cfg config) error {
	loadFig := benchutil.Figure{Title: "Figure 9 — YCSB Load (FAST-FAIR B+-tree inserts)"}
	aFig := benchutil.Figure{Title: "Figure 9 — YCSB Workload A (50% read / 50% update, Zipfian)"}
	perThread := uint64(20000 * cfg.scale)
	for _, threads := range benchutil.ThreadSweep(cfg.maxThreads) {
		for _, name := range benchutil.AllocatorNames {
			a, err := benchutil.NewAllocator(name, benchutil.Config{
				Threads:   threads,
				HeapBytes: 64 << 20 * uint64(threads),
			})
			if err != nil {
				return err
			}
			h0, err := a.Thread(0)
			if err != nil {
				return err
			}
			tree, err := fastfair.New(h0)
			if err != nil {
				return err
			}
			// Load phase (measured).
			start := time.Now()
			loadOps, _, err := benchutil.RunParallel(a, threads, func(w int, h alloc.Handle) (uint64, error) {
				from := uint64(w) * perThread
				return ycsb.Load(tree, h, from, from+perThread)
			})
			if err != nil {
				return fmt.Errorf("%s load threads=%d: %w", name, threads, err)
			}
			loadFig.Add(name, threads, loadOps, time.Since(start))

			// Workload A (measured).
			total := perThread * uint64(threads)
			start = time.Now()
			aOps, _, err := benchutil.RunParallel(a, threads, func(w int, h alloc.Handle) (uint64, error) {
				z := ycsb.NewZipf(int64(w+1), total, 0.99)
				rng := rand.New(rand.NewSource(int64(w + 100)))
				return ycsb.WorkloadA(tree, h, z, rng, perThread)
			})
			if err != nil {
				return fmt.Errorf("%s workload-a threads=%d: %w", name, threads, err)
			}
			aFig.Add(name, threads, aOps, time.Since(start))
			h0.Close()
			_ = a.Close()
		}
	}
	loadFig.Print(os.Stdout)
	aFig.Print(os.Stdout)
	return nil
}

// contention measures serialization events per operation under the 256 B
// and 512 KiB microbenchmarks — the hardware-independent predictor of each
// allocator's multicore curve (see EXPERIMENTS.md).
func contention(cfg config) error {
	for _, size := range []uint64{256, 512 << 10} {
		fmt.Printf("# Scalability indicators — %d B objects, %d threads\n", size, cfg.maxThreads)
		for _, name := range benchutil.AllocatorNames {
			a, err := benchutil.NewAllocator(name, benchutil.Config{
				Threads:   cfg.maxThreads,
				HeapBytes: benchutil.MicroHeapBytes(size, cfg.maxThreads),
			})
			if err != nil {
				return err
			}
			ops, _, err := benchutil.RunParallel(a, cfg.maxThreads, func(w int, h alloc.Handle) (uint64, error) {
				return benchutil.MicroWorker(h, benchutil.MicroConfig{
					Size: size, Rounds: 20 * cfg.scale, Seed: int64(w + 1),
				})
			})
			if err != nil {
				_ = a.Close()
				return fmt.Errorf("%s: %w", name, err)
			}
			benchutil.ContentionReport(os.Stdout, a, ops)
			_ = a.Close()
		}
		fmt.Println()
	}
	return nil
}

// recovery compares restart cost as the live-object count grows:
// Poseidon's log replay is constant-size; Makalu's conservative
// mark-and-sweep walks the heap (§5.1 vs §2.2).
func recovery(cfg config) error {
	fmt.Println("# Extra — recovery time vs live objects (one restart)")
	fmt.Printf("%-14s %16s %16s\n", "live objects", "poseidon load", "makalu recover")
	for _, objects := range []int{1000, 10000, 50000} {
		// Poseidon: crash + Load.
		opts := core.Options{
			Subheaps:        2,
			SubheapUserSize: 64 << 20,
			SubheapMetaSize: 16 << 20,
			CrashTracking:   true,
		}
		ph, err := core.Create(opts)
		if err != nil {
			return err
		}
		pt, err := ph.Thread()
		if err != nil {
			return err
		}
		for i := 0; i < objects; i++ {
			if _, err := pt.Alloc(256); err != nil {
				return err
			}
		}
		pt.Close()
		crash, err := ph.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone})
		if err != nil {
			return err
		}
		fmt.Printf("  crash: %d dirty lines dropped (EvictNone)\n", crash.DroppedLines)
		start := time.Now()
		if _, err := core.Load(ph.Device(), opts); err != nil {
			return err
		}
		poseidonTime := time.Since(start)

		// Makalu: rebuild indexes + GC from a root chain.
		mh, err := makalu.New(makalu.Options{Capacity: 256 << 20})
		if err != nil {
			return err
		}
		mt, err := mh.Thread(0)
		if err != nil {
			return err
		}
		var root, prev alloc.Ptr
		for i := 0; i < objects; i++ {
			p, err := mt.Alloc(64)
			if err != nil {
				return err
			}
			if prev == 0 {
				root = p
			} else if err := mt.WriteU64(prev, 0, uint64(p)); err != nil {
				return err
			}
			prev = p
		}
		mt.Close()
		start = time.Now()
		if _, err := mh.Recover([]alloc.Ptr{root}); err != nil {
			return err
		}
		makaluTime := time.Since(start)
		fmt.Printf("%-14d %16v %16v\n", objects, poseidonTime.Round(10*time.Microsecond),
			makaluTime.Round(10*time.Microsecond))
	}
	fmt.Println()
	return nil
}

// flushes measures persistence traffic per operation (clwb-equivalents and
// fences), the honest cost of each allocator's crash-consistency scheme:
// Poseidon's one-record-per-operation redo log vs PMDK's redo-logged bitmap
// updates vs Makalu's log-free header writes.
func flushes(cfg config) error {
	fmt.Println("# Extra — persistence traffic per alloc/free operation (256 B micro)")
	fmt.Printf("%-14s %14s %14s %14s\n", "allocator", "flushes/op", "fences/op", "bytes/op")
	for _, name := range benchutil.AllocatorNames {
		var a alloc.Allocator
		var err error
		// Enable device stats for each allocator.
		switch name {
		case "poseidon":
			var p *alloc.Poseidon
			p, err = alloc.NewPoseidon(core.Options{
				Subheaps: 1, SubheapUserSize: 64 << 20, DeviceStats: true,
			})
			a = p
		case "pmdk":
			a, err = pmdkalloc.New(pmdkalloc.Options{Capacity: 64 << 20, DeviceStats: true})
		case "makalu":
			a, err = makalu.New(makalu.Options{Capacity: 64 << 20, DeviceStats: true})
		}
		if err != nil {
			return err
		}
		h, err := a.Thread(0)
		if err != nil {
			return err
		}
		// Warm up, then measure a steady-state window.
		if _, err := benchutil.MicroWorker(h, benchutil.MicroConfig{Size: 256, Rounds: 10, Seed: 1}); err != nil {
			return err
		}
		before := deviceOf(a).StatsSnapshot()
		ops, err := benchutil.MicroWorker(h, benchutil.MicroConfig{Size: 256, Rounds: 50 * cfg.scale, Seed: 2})
		if err != nil {
			return err
		}
		after := deviceOf(a).StatsSnapshot()
		per := func(a, b uint64) float64 { return float64(b-a) / float64(ops) }
		fmt.Printf("%-14s %14.2f %14.2f %14.1f\n", name,
			per(before.Flushes, after.Flushes),
			per(before.Fences, after.Fences),
			per(before.BytesWritten, after.BytesWritten))
		h.Close()
		_ = a.Close()
	}
	fmt.Println()
	return nil
}

// deviceOf extracts the underlying device for stats.
func deviceOf(a alloc.Allocator) *nvm.Device {
	switch impl := a.(type) {
	case *alloc.Poseidon:
		return impl.Heap().Device()
	case *pmdkalloc.Heap:
		return impl.Device()
	case *makalu.Heap:
		return impl.Device()
	}
	return nil
}

// fragmentation measures achievable heap utilization before the first
// out-of-memory under random size mixes — an extra experiment quantifying
// each allocator's internal fragmentation (Poseidon's power-of-two
// classes vs PMDK's slot classes vs Makalu's 16 B granules + page runs).
func fragmentation(config) error {
	mixes := []struct {
		name             string
		minSize, maxSize uint64
	}{
		{"small (64-512 B)", 64, 512},
		{"mixed (64 B-8 KiB)", 64, 8 << 10},
		{"large (64-512 KiB)", 64 << 10, 512 << 10},
	}
	const heapBytes = 64 << 20
	fmt.Println("# Extra — heap utilization at first OOM (requested bytes / heap bytes)")
	fmt.Printf("%-20s", "size mix")
	for _, n := range benchutil.AllocatorNames {
		fmt.Printf("%12s", n)
	}
	fmt.Println()
	for _, mix := range mixes {
		fmt.Printf("%-20s", mix.name)
		for _, name := range benchutil.AllocatorNames {
			a, err := benchutil.NewAllocator(name, benchutil.Config{Threads: 1, HeapBytes: heapBytes})
			if err != nil {
				return err
			}
			h, err := a.Thread(0)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(42))
			var requested uint64
			for {
				size := mix.minSize + uint64(rng.Int63n(int64(mix.maxSize-mix.minSize+1)))
				if _, err := h.Alloc(size); err != nil {
					break
				}
				requested += size
			}
			h.Close()
			_ = a.Close()
			fmt.Printf("%11.1f%%", 100*float64(requested)/float64(heapBytes))
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func ablation(cfg config) error {
	// Protection-mode ablation (§4.3): MPK vs none vs mprotect-cost.
	fig := benchutil.Figure{Title: "Ablation — metadata protection mode (256 B micro, 1 thread)"}
	modes := []struct {
		name string
		p    core.Protection
	}{
		{"mpk", core.ProtectMPK},
		{"hardened", core.ProtectMPKHardened},
		{"none", core.ProtectNone},
		{"mprotect", core.ProtectMprotect},
	}
	for _, m := range modes {
		a, err := benchutil.NewAllocator("poseidon", benchutil.Config{
			Threads: 1, HeapBytes: 64 << 20, Protection: m.p,
		})
		if err != nil {
			return err
		}
		ops, d, err := benchutil.RunParallel(a, 1, func(w int, h alloc.Handle) (uint64, error) {
			return benchutil.MicroWorker(h, benchutil.MicroConfig{Size: 256, Rounds: 100 * cfg.scale, Seed: 1})
		})
		_ = a.Close()
		if err != nil {
			return err
		}
		fig.Add(m.name, 1, ops, d)
	}
	fig.Print(os.Stdout)

	// Sub-heap ablation (§4.1): one shared sub-heap vs per-thread.
	fig2 := benchutil.Figure{Title: "Ablation — sub-heap sharding (256 B micro)"}
	threads := cfg.maxThreads
	if threads < 2 {
		threads = 2
	}
	for _, subheaps := range []int{1, threads} {
		a, err := alloc.NewPoseidon(core.Options{
			Subheaps:        subheaps,
			SubheapUserSize: 16 << 20,
			MaxThreads:      threads + 4,
		})
		if err != nil {
			return err
		}
		ops, d, err := benchutil.RunParallel(a, threads, func(w int, h alloc.Handle) (uint64, error) {
			return benchutil.MicroWorker(h, benchutil.MicroConfig{Size: 256, Rounds: 50 * cfg.scale, Seed: int64(w)})
		})
		_ = a.Close()
		if err != nil {
			return err
		}
		fig2.Add(fmt.Sprintf("subheaps=%d", subheaps), threads, ops, d)
	}
	fig2.Print(os.Stdout)
	return nil
}
