package poseidon

// Recovery-time benchmarks (§5.1 vs §2.2): Poseidon's load replays only
// the (truncated) logs and micro-log lanes — constant in the number of
// live objects — while Makalu's mark-and-sweep recovery walks the whole
// heap. The benchmark loads heaps with growing object counts and measures
// one restart.
import (
	"fmt"
	"testing"

	"poseidon/internal/alloc"
	"poseidon/internal/core"
	"poseidon/internal/makalu"
	"poseidon/internal/nvm"
)

// BenchmarkRecoveryPoseidonLoad sweeps the sub-heap count. The
// per-iteration work is the load-time scan and the ScrubOnLoad audit —
// per-sub-heap independent and identical every iteration (log replay is
// idempotent, the audit is read-mostly) — and it fans out over GOMAXPROCS
// workers, so `go test -bench RecoveryPoseidonLoad -cpu 1,2,8` sweeps the
// recovery width. GOMAXPROCS above the core count cannot add real
// concurrency, which is itself the honest result.
func BenchmarkRecoveryPoseidonLoad(b *testing.B) {
	const objectsPerSubheap = 2000
	for _, subheaps := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("subheaps=%d", subheaps), func(b *testing.B) {
			opts := core.Options{
				Subheaps:        subheaps,
				SubheapUserSize: 4 << 20,
				SubheapMetaSize: 1 << 20,
				MaxThreads:      64,
				CrashTracking:   true,
				ScrubOnLoad:     true,
			}
			h, err := core.Create(opts)
			if err != nil {
				b.Fatal(err)
			}
			for w := 0; w < subheaps; w++ {
				th, err := h.ThreadOn(w)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < objectsPerSubheap; i++ {
					if _, err := th.Alloc(256); err != nil {
						b.Fatal(err)
					}
				}
				th.Close()
			}
			dev := h.Device()
			// Crash once (the crash *simulation* copies every touched
			// chunk and would otherwise dominate the measurement); the
			// timed section is the restart path itself — §5.1's log scan
			// plus the full-audit fan-out.
			if _, err := dev.Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Load(dev, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRecoveryMakaluGC(b *testing.B) {
	for _, objects := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("objects=%d", objects), func(b *testing.B) {
			h, err := makalu.New(makalu.Options{Capacity: 256 << 20})
			if err != nil {
				b.Fatal(err)
			}
			th, err := h.Thread(0)
			if err != nil {
				b.Fatal(err)
			}
			defer th.Close()
			// A linked chain so everything is reachable from one root.
			var root, prev alloc.Ptr
			for i := 0; i < objects; i++ {
				p, err := th.Alloc(64)
				if err != nil {
					b.Fatal(err)
				}
				if prev == 0 {
					root = p
				} else {
					if err := th.WriteU64(prev, 0, uint64(p)); err != nil {
						b.Fatal(err)
					}
				}
				prev = p
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				freed, err := h.GC([]alloc.Ptr{root})
				if err != nil {
					b.Fatal(err)
				}
				if freed != 0 {
					b.Fatalf("GC freed %d reachable objects", freed)
				}
			}
		})
	}
}
