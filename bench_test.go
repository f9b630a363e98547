package poseidon

// The benchmark harness: one testing.B benchmark per figure of the paper's
// evaluation (§7), each sweeping the three allocators. `go test -bench .`
// runs a bounded version of every figure; cmd/poseidon-bench runs the full
// thread sweeps and prints the figures' data tables.
//
//	Figure 6  — BenchmarkFig6Micro:    100 allocs + 100 frees in random
//	            order, sizes 256 B … 512 KiB
//	Figure 7  — BenchmarkFig7Larson:   server-style cross-thread churn
//	Figure 8  — BenchmarkFig8Ackermann / Kruskal / NQueens
//	Figure 9  — BenchmarkFig9YCSBLoad / YCSBA (FAST-FAIR B+-tree)
//	Ablations — BenchmarkAblation*:    §4.7 design-choice costs
import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"poseidon/internal/alloc"
	"poseidon/internal/benchutil"
	"poseidon/internal/core"
	"poseidon/internal/fastfair"
	"poseidon/internal/larson"
	"poseidon/internal/workloads"
	"poseidon/internal/ycsb"
)

// benchThreads bounds the per-bench sweep so `go test -bench .` stays
// tractable; the cmd tool sweeps the paper's full 1…64.
func benchThreads() []int {
	max := runtime.GOMAXPROCS(0)
	out := []int{1}
	if max >= 4 {
		out = append(out, 4)
	}
	if max > 4 {
		out = append(out, max)
	}
	return out
}

func BenchmarkFig6Micro(b *testing.B) {
	sizes := []uint64{256, 1 << 10, 4 << 10, 128 << 10, 256 << 10, 512 << 10}
	for _, size := range sizes {
		for _, name := range benchutil.AllocatorNames {
			for _, threads := range benchThreads() {
				b.Run(fmt.Sprintf("size=%d/%s/threads=%d", size, name, threads), func(b *testing.B) {
					a, err := benchutil.NewAllocator(name, benchutil.Config{
						Threads:   threads,
						HeapBytes: benchutil.MicroHeapBytes(size, threads),
					})
					if err != nil {
						b.Fatal(err)
					}
					defer a.Close()
					rounds := b.N/(200*threads) + 1
					b.ResetTimer()
					ops, _, err := benchutil.RunParallel(a, threads, func(w int, h alloc.Handle) (uint64, error) {
						return benchutil.MicroWorker(h, benchutil.MicroConfig{
							Size:   size,
							Rounds: rounds,
							Seed:   int64(w + 1),
						})
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(ops)/b.Elapsed().Seconds()/1e6, "Mops/s")
				})
			}
		}
	}
}

func BenchmarkFig7Larson(b *testing.B) {
	for _, name := range benchutil.AllocatorNames {
		for _, threads := range benchThreads() {
			b.Run(fmt.Sprintf("%s/threads=%d", name, threads), func(b *testing.B) {
				a, err := benchutil.NewAllocator(name, benchutil.Config{
					Threads:   threads,
					HeapBytes: 64 << 20 * uint64(threads),
				})
				if err != nil {
					b.Fatal(err)
				}
				defer a.Close()
				roundOps := b.N/(2*threads) + 1
				b.ResetTimer()
				res, err := larson.Run(a, larson.Config{
					Threads:        threads,
					SlotsPerThread: 256,
					RoundOps:       roundOps,
					Rounds:         2,
					Seed:           1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.OpsPerSec()/1e6, "Mops/s")
			})
		}
	}
}

func benchFig8(b *testing.B, run func(h alloc.Handle, iters int) (uint64, error), heapPerThread uint64) {
	b.Helper()
	for _, name := range benchutil.AllocatorNames {
		for _, threads := range benchThreads() {
			b.Run(fmt.Sprintf("%s/threads=%d", name, threads), func(b *testing.B) {
				a, err := benchutil.NewAllocator(name, benchutil.Config{
					Threads:   threads,
					HeapBytes: heapPerThread * uint64(threads),
				})
				if err != nil {
					b.Fatal(err)
				}
				defer a.Close()
				iters := b.N/threads + 1
				b.ResetTimer()
				ops, _, err := benchutil.RunParallel(a, threads, func(w int, h alloc.Handle) (uint64, error) {
					return run(h, iters)
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ops)/b.Elapsed().Seconds()/1e6, "Mops/s")
			})
		}
	}
}

func BenchmarkFig8Ackermann(b *testing.B) {
	// Paper: a 1 GiB memo region; scaled to 1 MiB per DESIGN.md §1.
	const region = 1 << 20
	benchFig8(b, func(h alloc.Handle, iters int) (uint64, error) {
		return workloads.Ackermann(h, region, iters)
	}, 8<<20)
}

func BenchmarkFig8Kruskal(b *testing.B) {
	benchFig8(b, func(h alloc.Handle, iters int) (uint64, error) {
		return workloads.Kruskal(h, iters, 7)
	}, 16<<20)
}

func BenchmarkFig8NQueens(b *testing.B) {
	benchFig8(b, func(h alloc.Handle, iters int) (uint64, error) {
		return workloads.NQueens(h, iters)
	}, 16<<20)
}

func BenchmarkFig9YCSBLoad(b *testing.B) {
	for _, name := range benchutil.AllocatorNames {
		for _, threads := range benchThreads() {
			b.Run(fmt.Sprintf("%s/threads=%d", name, threads), func(b *testing.B) {
				// Load permanently allocates per insert; size the heap for
				// b.N (value block + amortised tree nodes ≈ 1 KiB each).
				heapBytes := uint64(b.N+10000) * 1024
				if heapBytes < 64<<20*uint64(threads) {
					heapBytes = 64 << 20 * uint64(threads)
				}
				a, err := benchutil.NewAllocator(name, benchutil.Config{
					Threads:   threads,
					HeapBytes: heapBytes,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer a.Close()
				h0, err := a.Thread(0)
				if err != nil {
					b.Fatal(err)
				}
				tree, err := fastfair.New(h0)
				if err != nil {
					b.Fatal(err)
				}
				per := uint64(b.N/threads + 1)
				b.ResetTimer()
				ops, _, err := benchutil.RunParallel(a, threads, func(w int, h alloc.Handle) (uint64, error) {
					from := uint64(w) * per
					return ycsb.Load(tree, h, from, from+per)
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				h0.Close()
				b.ReportMetric(float64(ops)/b.Elapsed().Seconds()/1e6, "Mops/s")
			})
		}
	}
}

func BenchmarkFig9YCSBA(b *testing.B) {
	const loaded = 50000
	for _, name := range benchutil.AllocatorNames {
		for _, threads := range benchThreads() {
			b.Run(fmt.Sprintf("%s/threads=%d", name, threads), func(b *testing.B) {
				a, err := benchutil.NewAllocator(name, benchutil.Config{
					Threads:   threads,
					HeapBytes: 64 << 20 * uint64(threads),
				})
				if err != nil {
					b.Fatal(err)
				}
				defer a.Close()
				h0, err := a.Thread(0)
				if err != nil {
					b.Fatal(err)
				}
				tree, err := fastfair.New(h0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ycsb.Load(tree, h0, 0, loaded); err != nil {
					b.Fatal(err)
				}
				per := uint64(b.N/threads + 1)
				b.ResetTimer()
				ops, _, err := benchutil.RunParallel(a, threads, func(w int, h alloc.Handle) (uint64, error) {
					z := ycsb.NewZipf(int64(w+1), loaded, 0.99)
					rng := rand.New(rand.NewSource(int64(w + 100)))
					return ycsb.WorkloadA(tree, h, z, rng, per)
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				h0.Close()
				b.ReportMetric(float64(ops)/b.Elapsed().Seconds()/1e6, "Mops/s")
			})
		}
	}
}

// BenchmarkAblationProtection quantifies the §4.3 claim: MPK-guarded
// metadata costs almost nothing next to unprotected metadata, while
// mprotect-style page-table protection is ruinous.
func BenchmarkAblationProtection(b *testing.B) {
	modes := []struct {
		name string
		p    core.Protection
	}{
		{"mpk", core.ProtectMPK},
		{"none", core.ProtectNone},
		{"mprotect", core.ProtectMprotect},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			a, err := benchutil.NewAllocator("poseidon", benchutil.Config{
				Threads:    1,
				HeapBytes:  64 << 20,
				Protection: mode.p,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			h, err := a.Thread(0)
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			b.ResetTimer()
			if _, err := benchutil.MicroWorker(h, benchutil.MicroConfig{
				Size:   256,
				Rounds: b.N/200 + 1,
				Seed:   1,
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationSubheaps quantifies the §4.1 claim: per-CPU sub-heaps
// vs all threads contending on a single sub-heap.
func BenchmarkAblationSubheaps(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	if threads < 2 {
		b.Skip("needs parallelism")
	}
	for _, subheaps := range []int{1, threads} {
		b.Run(fmt.Sprintf("subheaps=%d/threads=%d", subheaps, threads), func(b *testing.B) {
			a, err := alloc.NewPoseidon(core.Options{
				Subheaps:        subheaps,
				SubheapUserSize: 512 << 20 / uint64(subheaps),
				MaxThreads:      threads + 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			rounds := b.N/(200*threads) + 1
			b.ResetTimer()
			ops, _, err := benchutil.RunParallel(a, threads, func(w int, h alloc.Handle) (uint64, error) {
				return benchutil.MicroWorker(h, benchutil.MicroConfig{Size: 256, Rounds: rounds, Seed: int64(w)})
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(ops)/b.Elapsed().Seconds()/1e6, "Mops/s")
		})
	}
}

// BenchmarkAblationTxAlloc measures the micro-log overhead of
// transactional allocation (§5.3) against singleton allocation.
func BenchmarkAblationTxAlloc(b *testing.B) {
	newHeap := func(b *testing.B) (*core.Heap, *core.Thread) {
		b.Helper()
		h, err := core.Create(core.Options{Subheaps: 1, SubheapUserSize: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		th, err := h.Thread()
		if err != nil {
			b.Fatal(err)
		}
		return h, th
	}
	b.Run("singleton", func(b *testing.B) {
		_, th := newHeap(b)
		defer th.Close()
		ptrs := make([]core.NVMPtr, 0, 128)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := th.Alloc(256)
			if err != nil {
				b.Fatal(err)
			}
			ptrs = append(ptrs, p)
			if len(ptrs) == 128 {
				for _, q := range ptrs {
					if err := th.Free(q); err != nil {
						b.Fatal(err)
					}
				}
				ptrs = ptrs[:0]
			}
		}
	})
	b.Run("transactional", func(b *testing.B) {
		_, th := newHeap(b)
		defer th.Close()
		ptrs := make([]core.NVMPtr, 0, 128)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := th.TxAlloc(256, i%8 == 7) // commit every 8 allocs
			if err != nil {
				b.Fatal(err)
			}
			ptrs = append(ptrs, p)
			if len(ptrs) == 128 {
				for _, q := range ptrs {
					if err := th.Free(q); err != nil {
						b.Fatal(err)
					}
				}
				ptrs = ptrs[:0]
			}
		}
	})
}
