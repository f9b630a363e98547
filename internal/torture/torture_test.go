package torture

import (
	"strings"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/nvm"
)

func TestCountOpsDeterministic(t *testing.T) {
	a, err := CountOps(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CountOps(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("op counts differ across runs: %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatal("workload performed no mutating device ops")
	}
}

func TestSweepSmallAllModes(t *testing.T) {
	res, err := Run(Config{
		Ops:     4,
		Seed:    7,
		Workers: 4,
		Stride:  7, // sample the space; the full sweep is the CLI's job
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		for _, v := range res.Violations {
			t.Errorf("mode=%s point=%d: %s", v.Mode, v.Point, v.Detail)
		}
		t.Fatalf("%d violations in a %d-run sweep", len(res.Violations), res.Runs)
	}
	wantPoints := (res.CrashPoints + 6) / 7
	if res.Runs != wantPoints*4 {
		t.Fatalf("Runs = %d, want %d points x 4 modes", res.Runs, wantPoints)
	}
}

// TestSweepMagazineTail is the magazine crash sweep: the workload ends with
// the magazine segment, so sweeping the tail of the crash-point range walks
// the failpoint through every refill manifest persist, pop and push,
// overflow flush-back, manifest word clear and the close-time flush-back,
// and leaves cached entries for the recovery manifest replay. runPoint's
// audit is the oracle: the user region must tile exactly (a crash can
// never leak a magazine), no manifest entry may survive recovery
// (PendingCached), no block may be double-freed onto a free list, no
// quarantine may fire on a pure power failure, and every pop and push
// that returned before the crash is durable.
func TestSweepMagazineTail(t *testing.T) {
	const ops, seed = 4, 99
	total, err := CountOps(ops, seed)
	if err != nil {
		t.Fatal(err)
	}

	// Measure the segment with lazy formatting already paid (the
	// cross-shard segment touches both sub-heaps first), so the window
	// tracks the magazine segment itself.
	hm, err := core.Create(heapOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	const huge = int64(1) << 40
	if err := crossShardFreeSegment(hm); err != nil {
		t.Fatalf("segment warmup: %v", err)
	}
	hm.Device().FailAfter(huge)
	serr := magazineSegment(hm, map[core.NVMPtr]bool{})
	segOps := int(huge - hm.Device().FailBudgetRemaining())
	hm.Device().DisarmFailpoint()
	_ = hm.Close()
	if serr != nil {
		t.Fatalf("segment measurement: %v", serr)
	}
	if segOps == 0 {
		t.Fatal("magazine segment performed no mutating device ops")
	}
	start := total - segOps
	if start < 0 {
		start = 0
	}

	cfg := Config{Ops: ops, Seed: seed}.withDefaults()
	runs := 0
	for _, mode := range []nvm.EvictMode{nvm.EvictNone, nvm.EvictAll, nvm.EvictTorn} {
		for point := start; point < total; point += 2 {
			_, v, err := runPoint(cfg, mode, point)
			if err != nil {
				t.Fatalf("mode=%s point=%d: %v", mode, point, err)
			}
			if v != nil {
				t.Fatalf("violation at mode=%s point=%d: %s\nreproduce: %s",
					v.Mode, v.Point, v.Detail, v.Reproducer(ops, cfg.Prob))
			}
			runs++
		}
	}
	if runs == 0 {
		t.Fatal("tail sweep covered no crash points")
	}
}

func TestSinglePointReproducerMode(t *testing.T) {
	res, err := Run(Config{
		Ops:         4,
		Seed:        7,
		Modes:       []nvm.EvictMode{nvm.EvictTorn},
		Point:       25,
		SinglePoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 1 {
		t.Fatalf("Runs = %d, want 1", res.Runs)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %+v", res.Violations)
	}
}

func TestPointOutOfRange(t *testing.T) {
	_, err := Run(Config{Ops: 4, Seed: 7, Point: 1 << 30, SinglePoint: true})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want out-of-range", err)
	}
}

func TestReproducerLine(t *testing.T) {
	v := Violation{Mode: nvm.EvictRandom, Point: 123, Seed: 9}
	got := v.Reproducer(256, 0.5)
	want := "poseidon-torture -ops 256 -seed 9 -modes random -point 123 -prob 0.5"
	if got != want {
		t.Fatalf("Reproducer = %q, want %q", got, want)
	}
}
