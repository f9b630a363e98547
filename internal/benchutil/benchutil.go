// Package benchutil provides the shared machinery of the benchmark
// harness: an allocator factory keyed by name, a parallel runner that
// mirrors the paper's thread sweeps, and series formatting that prints the
// same rows the paper's figures plot.
package benchutil

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"poseidon/internal/alloc"
	"poseidon/internal/core"
	"poseidon/internal/makalu"
	"poseidon/internal/obs"
	"poseidon/internal/pmdkalloc"
)

// AllocatorNames lists the allocators every figure compares, in the
// paper's order.
var AllocatorNames = []string{"poseidon", "pmdk", "makalu"}

// Config sizes the heap for a workload.
type Config struct {
	// Threads is the maximum worker count the allocator must serve.
	Threads int
	// HeapBytes is the total user-data capacity to provision.
	HeapBytes uint64
	// Protection overrides Poseidon's metadata guard (default MPK).
	Protection core.Protection
	// Telemetry, when non-nil, wires Poseidon heaps into an observability
	// registry. Falls back to the package default set by SetTelemetry.
	Telemetry *obs.Telemetry
}

// defaultTelemetry is applied to every Poseidon heap NewAllocator builds
// when the Config doesn't carry its own registry — how the bench tool's
// -metrics endpoint sees heaps created deep inside figure loops.
var defaultTelemetry *obs.Telemetry

// SetTelemetry installs a process-wide telemetry registry for subsequently
// created Poseidon allocators. Heaps share the registry, so histograms and
// attribution aggregate across the whole run.
func SetTelemetry(t *obs.Telemetry) { defaultTelemetry = t }

// NewAllocator builds one of the three allocators sized for the workload.
func NewAllocator(name string, cfg Config) (alloc.Allocator, error) {
	if cfg.Threads == 0 {
		cfg.Threads = 1
	}
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 512 << 20
	}
	switch name {
	case "poseidon":
		perSub := nextPow2(cfg.HeapBytes / uint64(cfg.Threads))
		if perSub < 4<<20 {
			perSub = 4 << 20
		}
		meta := perSub / 8
		if meta < 1<<20 {
			meta = 1 << 20
		}
		tel := cfg.Telemetry
		if tel == nil {
			tel = defaultTelemetry
		}
		return alloc.NewPoseidon(core.Options{
			Subheaps:        cfg.Threads,
			SubheapUserSize: perSub,
			SubheapMetaSize: meta,
			MaxThreads:      cfg.Threads + 8,
			Protection:      cfg.Protection,
			Telemetry:       tel,
		})
	case "pmdk":
		return pmdkalloc.New(pmdkalloc.Options{Capacity: cfg.HeapBytes})
	case "makalu":
		return makalu.New(makalu.Options{Capacity: cfg.HeapBytes})
	default:
		return nil, fmt.Errorf("benchutil: unknown allocator %q", name)
	}
}

func nextPow2(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

// RunParallel runs fn on `threads` workers, each with its own handle
// pinned to its shard, and returns total operations and wall time.
func RunParallel(a alloc.Allocator, threads int, fn func(worker int, h alloc.Handle) (uint64, error)) (uint64, time.Duration, error) {
	handles := make([]alloc.Handle, threads)
	for i := range handles {
		h, err := a.Thread(i)
		if err != nil {
			return 0, 0, err
		}
		handles[i] = h
	}
	defer func() {
		for _, h := range handles {
			h.Close()
		}
	}()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total uint64
		first error
	)
	start := time.Now()
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops, err := fn(i, handles[i])
			mu.Lock()
			total += ops
			if err != nil && first == nil {
				first = err
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return total, time.Since(start), first
}

// Point is one measurement: a thread count and its throughput.
type Point struct {
	Threads int
	MopsSec float64
}

// Series is one allocator's curve in a figure.
type Series struct {
	Allocator string
	Points    []Point
}

// Figure is a paper figure being regenerated: named series over a shared
// thread sweep.
type Figure struct {
	Title  string
	Series []Series
}

// Add records a measurement.
func (f *Figure) Add(allocator string, threads int, ops uint64, d time.Duration) {
	mops := float64(ops) / d.Seconds() / 1e6
	for i := range f.Series {
		if f.Series[i].Allocator == allocator {
			f.Series[i].Points = append(f.Series[i].Points, Point{Threads: threads, MopsSec: mops})
			return
		}
	}
	f.Series = append(f.Series, Series{
		Allocator: allocator,
		Points:    []Point{{Threads: threads, MopsSec: mops}},
	})
}

// Print renders the figure as the table of rows the paper plots.
func (f *Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", f.Title)
	width := 12
	for _, s := range f.Series {
		if len(s.Allocator)+1 > width {
			width = len(s.Allocator) + 1
		}
	}
	fmt.Fprintf(w, "%-8s", "threads")
	for _, s := range f.Series {
		fmt.Fprintf(w, "%*s", width, s.Allocator)
	}
	fmt.Fprintln(w)
	// Collect the sorted union of thread counts.
	seen := map[int]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			seen[p.Threads] = true
		}
	}
	threads := make([]int, 0, len(seen))
	for t := range seen {
		threads = append(threads, t)
	}
	sort.Ints(threads)
	for _, t := range threads {
		fmt.Fprintf(w, "%-8d", t)
		for _, s := range f.Series {
			v := ""
			for _, p := range s.Points {
				if p.Threads == t {
					v = fmt.Sprintf("%.3f", p.MopsSec)
					break
				}
			}
			fmt.Fprintf(w, "%*s", width, v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// ThreadSweep returns the thread counts to sweep, capped at limit (the
// paper sweeps 1…64; laptop runs cap at the available parallelism).
func ThreadSweep(limit int) []int {
	candidates := []int{1, 2, 4, 8, 16, 32, 48, 64}
	out := make([]int, 0, len(candidates))
	for _, c := range candidates {
		if c <= limit {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}
