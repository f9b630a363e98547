package core

import (
	"strings"
	"testing"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

func telemetryOptions(tel *obs.Telemetry) Options {
	o := testOptions()
	o.Telemetry = tel
	return o
}

// TestMetricsIntegration exercises the full telemetry path on a live heap:
// latency histograms, per-class attribution, sub-heap gauges, device stats
// and the recovery events of a crash/reload cycle.
func TestMetricsIntegration(t *testing.T) {
	tel := obs.New()
	h, err := Create(telemetryOptions(tel))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if h.Telemetry() != tel {
		t.Fatal("Telemetry() does not return the configured registry")
	}

	th := newThread(t, h)
	var live []NVMPtr
	for i := 0; i < 200; i++ {
		p, err := th.Alloc(uint64(64 + i%512))
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		live = append(live, p)
	}
	for _, p := range live[:100] {
		if err := th.Free(p); err != nil {
			t.Fatalf("Free: %v", err)
		}
	}
	if _, err := th.TxAlloc(128, true); err != nil {
		t.Fatalf("TxAlloc: %v", err)
	}
	// One uncommitted transactional allocation: recovery must roll it back
	// and that rollback must show up as a txfree observation.
	if _, err := th.TxAlloc(256, false); err != nil {
		t.Fatalf("TxAlloc (open): %v", err)
	}
	th.Close()

	snap := h.Metrics()
	opCount := map[string]uint64{}
	for _, op := range snap.Ops {
		opCount[op.Op] = op.Count
	}
	if opCount["alloc"] != 200 {
		t.Fatalf("alloc count = %d, want 200", opCount["alloc"])
	}
	if opCount["free"] != 100 {
		t.Fatalf("free count = %d, want 100", opCount["free"])
	}
	if opCount["txalloc"] != 2 {
		t.Fatalf("txalloc count = %d, want 2", opCount["txalloc"])
	}
	for _, op := range snap.Ops {
		if op.Count == 0 {
			continue
		}
		if op.MaxNS == 0 || op.P50NS > op.MaxNS {
			t.Fatalf("%s latency implausible: %+v", op.Op, op)
		}
	}

	// Attribution: the alloc class must have flushed cachelines and fenced,
	// and its per-op ratios must be populated.
	attr := map[string]obs.ClassAttr{}
	for _, c := range snap.Attribution {
		attr[c.Class] = c
	}
	for _, class := range []string{"alloc", "free", "txalloc"} {
		c := attr[class]
		if c.Writes == 0 || c.Flushes == 0 || c.Fences == 0 {
			t.Fatalf("class %s has no attributed traffic: %+v", class, c)
		}
		if c.Ops == 0 || c.FlushesPerOp <= 0 || c.BytesPerOp <= 0 {
			t.Fatalf("class %s has no per-op ratios: %+v", class, c)
		}
	}
	if attr["format"].Writes == 0 {
		t.Fatalf("format traffic unattributed: %+v", attr["format"])
	}

	if !snap.Device.StatsEnabled {
		t.Fatal("Telemetry did not imply device stats")
	}
	sum := uint64(0)
	for _, c := range snap.Attribution {
		sum += c.Writes
	}
	if sum != snap.Device.Writes {
		t.Fatalf("attributed writes %d != device writes %d (attribution leak)", sum, snap.Device.Writes)
	}

	// Gauges must agree with the authoritative record walk.
	for i := range snap.Subheaps {
		g := snap.Subheaps[i]
		info, err := h.InspectSubheap(g.ID)
		if err != nil {
			t.Fatalf("InspectSubheap(%d): %v", g.ID, err)
		}
		if g.Initialized != info.Initialized {
			t.Fatalf("sub-heap %d initialized: gauge %v, walk %v", g.ID, g.Initialized, info.Initialized)
		}
		if g.AllocatedBlocks != info.AllocatedBlocks || g.AllocatedBytes != info.AllocatedBytes {
			t.Fatalf("sub-heap %d allocated gauge (%d blocks, %d B) != walk (%d blocks, %d B)",
				g.ID, g.AllocatedBlocks, g.AllocatedBytes, info.AllocatedBlocks, info.AllocatedBytes)
		}
		if g.FreeBlocks != info.FreeBlocks || g.FreeBytes != info.FreeBytes {
			t.Fatalf("sub-heap %d free gauge (%d blocks, %d B) != walk (%d blocks, %d B)",
				g.ID, g.FreeBlocks, g.FreeBytes, info.FreeBlocks, info.FreeBytes)
		}
		if g.Initialized && (g.Fragmentation < 0 || g.Fragmentation >= 1) {
			t.Fatalf("sub-heap %d fragmentation = %v", g.ID, g.Fragmentation)
		}
	}

	// Crash and reload with the same registry: load/recovery/txfree appear.
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	h2, err := Load(h.Device(), telemetryOptions(tel))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer h2.Close()
	snap2 := h2.Metrics()
	opCount2 := map[string]uint64{}
	for _, op := range snap2.Ops {
		opCount2[op.Op] = op.Count
	}
	if opCount2["load"] != 1 || opCount2["recovery"] != 1 {
		t.Fatalf("load/recovery counts = %d/%d, want 1/1", opCount2["load"], opCount2["recovery"])
	}
	if opCount2["txfree"] != 1 {
		t.Fatalf("txfree count = %d, want 1 (one open tx rolled back)", opCount2["txfree"])
	}
	var sawRecovery bool
	for _, e := range tel.Events() {
		if e.KindStr == "recovery" && strings.Contains(e.Detail, "1 tx blocks rolled back") {
			sawRecovery = true
		}
	}
	if !sawRecovery {
		t.Fatalf("no recovery event journalled: %+v", tel.Events())
	}

	// Gauges must be reseeded correctly after recovery.
	for i := range snap2.Subheaps {
		g := snap2.Subheaps[i]
		if !g.Initialized {
			continue
		}
		info, err := h2.InspectSubheap(g.ID)
		if err != nil {
			t.Fatalf("InspectSubheap(%d): %v", g.ID, err)
		}
		if g.AllocatedBlocks != info.AllocatedBlocks || g.FreeBlocks != info.FreeBlocks {
			t.Fatalf("post-recovery sub-heap %d gauges (%d alloc, %d free) != walk (%d, %d)",
				g.ID, g.AllocatedBlocks, g.FreeBlocks, info.AllocatedBlocks, info.FreeBlocks)
		}
	}
}

// TestMetricsWithoutTelemetry pins the off-path contract: a heap without a
// registry still answers Metrics() with counters and device state, and
// records nothing else.
func TestMetricsWithoutTelemetry(t *testing.T) {
	h := newTestHeap(t)
	defer h.Close()
	if h.Telemetry() != nil {
		t.Fatal("Telemetry() non-nil without Options.Telemetry")
	}
	th := newThread(t, h)
	if _, err := th.Alloc(64); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	th.Close()

	snap := h.Metrics()
	if len(snap.Ops) != 0 || len(snap.Subheaps) != 0 || len(snap.Attribution) != 0 {
		t.Fatalf("uninstrumented heap produced telemetry: %+v", snap)
	}
	if snap.Counters["allocs"] != 1 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if snap.Device.StatsEnabled {
		t.Fatal("device stats enabled without DeviceStats/Telemetry")
	}
	if snap.Device.CapacityBytes == 0 {
		t.Fatal("device capacity missing")
	}
	ds := h.DeviceStats()
	if ds.Enabled {
		t.Fatal("DeviceStats().Enabled without DeviceStats option")
	}
}

// TestQuarantineEventJournalled checks the degrade-don't-die path emits.
func TestQuarantineEventJournalled(t *testing.T) {
	tel := obs.New()
	h, err := Create(telemetryOptions(tel))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer h.Close()
	h.subheaps[1].quarantine("test reason")
	// Quarantine emits its own event plus the health transition it caused.
	ev := tel.Events()
	if len(ev) != 2 || ev[0].Kind != obs.EventQuarantine || ev[0].Subheap != 1 ||
		ev[1].Kind != obs.EventHealthChange {
		t.Fatalf("events = %+v", ev)
	}
	// Idempotent: a second quarantine of the same sub-heap does not re-emit
	// (and the unchanged health state does not either).
	h.subheaps[1].quarantine("another reason")
	if got := len(tel.Events()); got != 2 {
		t.Fatalf("re-quarantine emitted again: %d events", got)
	}
	snap := h.Metrics()
	for _, g := range snap.Subheaps {
		if g.ID == 1 && (!g.Quarantined || g.QuarantineReason != "test reason") {
			t.Fatalf("gauge does not reflect quarantine: %+v", g)
		}
	}
}

// benchAllocFree is the hot-path loop shared by the overhead benchmarks.
func benchAllocFree(b *testing.B, opts Options) {
	h, err := Create(opts)
	if err != nil {
		b.Fatalf("Create: %v", err)
	}
	defer h.Close()
	th, err := h.Thread()
	if err != nil {
		b.Fatalf("Thread: %v", err)
	}
	defer th.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := th.Alloc(256)
		if err != nil {
			b.Fatalf("Alloc: %v", err)
		}
		if err := th.Free(p); err != nil {
			b.Fatalf("Free: %v", err)
		}
	}
}

// BenchmarkAllocFreeTelemetryOff is the baseline the telemetry-on variant is
// compared against (see EXPERIMENTS.md — the off-path must cost only a nil
// check).
func BenchmarkAllocFreeTelemetryOff(b *testing.B) {
	o := testOptions()
	o.CrashTracking = false
	benchAllocFree(b, o)
}

// BenchmarkAllocFreeDeviceStatsOnly isolates the cost of the flat device
// counters from the histogram/attribution layer on top of them.
func BenchmarkAllocFreeDeviceStatsOnly(b *testing.B) {
	o := testOptions()
	o.CrashTracking = false
	o.DeviceStats = true
	benchAllocFree(b, o)
}

func BenchmarkAllocFreeTelemetryOn(b *testing.B) {
	o := testOptions()
	o.CrashTracking = false
	o.Telemetry = obs.New()
	benchAllocFree(b, o)
}
