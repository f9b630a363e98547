package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
)

func boxTestOptions(tel *obs.Telemetry) Options {
	return Options{
		Subheaps:        1,
		SubheapUserSize: 512 << 10,
		SubheapMetaSize: 256 << 10,
		UndoLogSize:     64 << 10,
		MaxThreads:      4,
		HeapID:          78,
		CrashTracking:   true,
		Telemetry:       tel,
	}
}

// countBoxEvents counts timeline entries of the given kind name.
func countBoxEvents(tl []BlackboxEntry, kind string) int {
	n := 0
	for _, e := range tl {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestBlackboxRoundTrip: events emitted on one boot survive a crash and
// replay, in order, on the next — including the sampled span stream.
func TestBlackboxRoundTrip(t *testing.T) {
	tel := obs.NewWithOptions(obs.Options{Shards: 1})
	opts := boxTestOptions(tel)
	opts.Trace = TraceOptions{Rate: 1} // every op records a span
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	th, err := h.Thread()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tel.Emit(obs.EventScrubFinding, -1, fmt.Sprintf("marker-%d", i))
	}
	p, err := th.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.FlushBlackbox(); err != nil {
		t.Fatal(err)
	}

	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictAll}); err != nil {
		t.Fatal(err)
	}
	tel2 := obs.NewWithOptions(obs.Options{Shards: 1})
	h2, err := Load(h.Device(), boxTestOptions(tel2))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := h2.BlackboxTimeline()
	if err != nil {
		t.Fatal(err)
	}
	if got := countBoxEvents(tl, "scrub_finding"); got != 10 {
		t.Fatalf("recovered %d marker events, want 10\n%+v", got, tl)
	}
	spans := 0
	for _, e := range tl {
		if e.Type == "span" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatalf("no sampled spans in recovered timeline: %+v", tl)
	}
	// Strictly ascending sequence order, markers in emission order.
	lastSeq, lastMarker := uint64(0), -1
	for i, e := range tl {
		if i > 0 && e.Seq <= lastSeq {
			t.Fatalf("timeline not ascending at %d: %+v", i, tl)
		}
		lastSeq = e.Seq
		var m int
		if _, err := fmt.Sscanf(e.Detail, "marker-%d", &m); err == nil {
			if m <= lastMarker {
				t.Fatalf("markers out of order: %d after %d", m, lastMarker)
			}
			lastMarker = m
		}
	}
	// A clean image reports nothing torn.
	for _, e := range tel2.Events() {
		if e.Kind == obs.EventBlackboxTorn {
			t.Fatalf("clean image reported torn: %+v", e)
		}
	}
	if st := h2.Metrics().Blackbox; st == nil || !st.Enabled || st.Epoch != 2 {
		t.Fatalf("blackbox stats after reload = %+v, want enabled at epoch 2", st)
	}

	// Span kinds are persisted obs.Op numbers, so retiring an op must not
	// shift the ones after it: an older image's span of the retired kind 11
	// still decodes as retired, never as lock_wait.
	for kind, want := range map[uint8]string{10: "repair", 11: "retired", 12: "lock_wait", 13: "lock_hold"} {
		buf := plog.EncodeBoxRecord(plog.BoxRecord{Type: plog.BoxSpan, Seq: 1, Kind: kind})
		r, ok := plog.DecodeBoxRecord(buf[:])
		if !ok {
			t.Fatalf("span kind %d: record did not decode", kind)
		}
		if got := boxEntry(r).Kind; got != want {
			t.Fatalf("persisted span kind %d decodes as %q, want %q", kind, got, want)
		}
	}
}

// TestBlackboxWrap: publishing more records than the ring holds keeps the
// newest ringful, still in ascending order across the wrap boundary.
func TestBlackboxWrap(t *testing.T) {
	tel := obs.NewWithOptions(obs.Options{Shards: 1, JournalSize: 64})
	h, err := Create(boxTestOptions(tel))
	if err != nil {
		t.Fatal(err)
	}
	capR := h.lay.boxArena().Capacity()
	total := int(capR) + 40
	for i := 0; i < total; i++ {
		tel.Emit(obs.EventScrubFinding, -1, fmt.Sprintf("w%d", i))
		if i%100 == 0 {
			if err := h.FlushBlackbox(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.FlushBlackbox(); err != nil {
		t.Fatal(err)
	}
	tl, err := h.BlackboxTimeline()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(tl)) != capR {
		t.Fatalf("timeline holds %d entries, want full ring of %d", len(tl), capR)
	}
	for i, e := range tl {
		if i > 0 && e.Seq != tl[i-1].Seq+1 {
			t.Fatalf("gap at %d: seq %d after %d", i, e.Seq, tl[i-1].Seq)
		}
	}
	// The newest emission survived; the oldest were overwritten.
	if want := fmt.Sprintf("w%d", total-1); tl[len(tl)-1].Detail != want {
		t.Fatalf("newest entry = %q, want %q", tl[len(tl)-1].Detail, want)
	}
}

// TestBlackboxTornTailDegrades: corrupting record slots and both header
// slots must degrade to exactly one EventBlackboxTorn journal event on the
// next load — never a quarantine — with the intact records still replayed.
func TestBlackboxTornTailDegrades(t *testing.T) {
	tel := obs.NewWithOptions(obs.Options{Shards: 1})
	h, err := Create(boxTestOptions(tel))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		tel.Emit(obs.EventScrubFinding, -1, fmt.Sprintf("keep-%d", i))
	}
	if err := h.FlushBlackbox(); err != nil {
		t.Fatal(err)
	}
	// Smash the slots of records 4 and 5 plus both header slots, durably.
	arena := h.lay.boxArena()
	dev := h.Device()
	junk := make([]byte, plog.BoxRecordSize)
	for i := range junk {
		junk[i] = 0xa5
	}
	for _, off := range []uint64{arena.SlotOff(4), arena.SlotOff(5)} {
		if err := dev.Write(off, junk); err != nil {
			t.Fatal(err)
		}
		if err := dev.Flush(off, plog.BoxRecordSize); err != nil {
			t.Fatal(err)
		}
	}
	hdr := arena.Header()
	for _, off := range []uint64{hdr.Off(0), hdr.Off(1)} {
		if err := dev.Write(off, junk[:hdr.Size]); err != nil {
			t.Fatal(err)
		}
		if err := dev.Flush(off, hdr.Size); err != nil {
			t.Fatal(err)
		}
	}
	dev.Fence()
	if _, err := dev.Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}

	tel2 := obs.NewWithOptions(obs.Options{Shards: 1})
	h2, err := Load(dev, boxTestOptions(tel2))
	if err != nil {
		t.Fatalf("torn black box failed the load: %v", err)
	}
	report, err := h2.Check()
	if err != nil || !report.OK() || report.Quarantined != 0 {
		t.Fatalf("torn black box affected the heap: err=%v report=%+v", err, report)
	}
	torn := 0
	for _, e := range tel2.Events() {
		if e.Kind == obs.EventBlackboxTorn {
			torn++
		}
	}
	if torn != 1 {
		t.Fatalf("torn ring journalled %d EventBlackboxTorn, want exactly 1", torn)
	}
	tl, err := h2.BlackboxTimeline()
	if err != nil {
		t.Fatal(err)
	}
	if got := countBoxEvents(tl, "scrub_finding"); got != 4 {
		t.Fatalf("recovered %d intact markers, want 4 (slots 4,5 corrupted)", got)
	}
	if st := h2.Metrics().Blackbox; st == nil || st.Torn == 0 {
		t.Fatalf("blackbox stats did not count torn slots: %+v", st)
	}
}

// TestBlackboxUnreadableHeaderIsTorn: header slots that cannot be read are
// not blank ones. Load must journal exactly one EventBlackboxTorn, still
// replay the ring and quarantine nothing.
func TestBlackboxUnreadableHeaderIsTorn(t *testing.T) {
	tel := obs.NewWithOptions(obs.Options{Shards: 1})
	h, err := Create(boxTestOptions(tel))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tel.Emit(obs.EventScrubFinding, -1, fmt.Sprintf("keep-%d", i))
	}
	if err := h.FlushBlackbox(); err != nil {
		t.Fatal(err)
	}
	dev := h.Device()
	if _, err := dev.Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	hdr := h.lay.boxArena().Header()
	dev.ArmTransientFaults(nvm.TransientFaults{Off: hdr.Base, Len: 2 * hdr.Size, Reads: true})
	tel2 := obs.NewWithOptions(obs.Options{Shards: 1})
	h2, err := Load(dev, boxTestOptions(tel2))
	dev.DisarmTransientFaults()
	if err != nil {
		t.Fatalf("unreadable black-box header failed the load: %v", err)
	}
	report, err := h2.Check()
	if err != nil || !report.OK() || report.Quarantined != 0 {
		t.Fatalf("unreadable black-box header affected the heap: err=%v report=%+v", err, report)
	}
	torn := 0
	for _, e := range tel2.Events() {
		if e.Kind == obs.EventBlackboxTorn {
			torn++
		}
	}
	if torn != 1 {
		t.Fatalf("unreadable header journalled %d EventBlackboxTorn, want exactly 1", torn)
	}
	tl, err := h2.BlackboxTimeline()
	if err != nil {
		t.Fatal(err)
	}
	if got := countBoxEvents(tl, "scrub_finding"); got != 4 {
		t.Fatalf("recovered %d markers, want 4", got)
	}
}

// TestBlackboxCrashSweepEveryStore kills the black-box persist path at
// EVERY device store boundary, under all three eviction modes: after any
// crash the reload must succeed, nothing may be quarantined, and the
// timeline must replay at least every record sealed by a completed
// FlushBlackbox.
func TestBlackboxCrashSweepEveryStore(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep is slow")
	}
	storeBudget := int64(1)
	for ; ; storeBudget++ {
		if survived := runBoxScript(t, storeBudget, 1); survived {
			break
		}
		if storeBudget > 5000 {
			t.Fatal("script never completed; failpoint accounting broken?")
		}
	}
	t.Logf("script performs %d stores; sweeping every boundary", storeBudget)
	step := int64(1)
	if storeBudget > 300 {
		step = storeBudget / 300
	}
	for b := int64(1); b < storeBudget; b += step {
		runBoxScript(t, b, b*7919)
	}
}

// runBoxScript emits events in sealed batches with a failpoint after
// `budget` stores, crashes (eviction mode rotating with the budget),
// reloads and verifies the timeline. Returns whether the script completed.
func runBoxScript(t *testing.T, budget, seed int64) (survived bool) {
	t.Helper()
	tel := obs.NewWithOptions(obs.Options{Shards: 1})
	opts := boxTestOptions(tel)
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	h.Device().FailAfter(budget)
	sealed := 0
	script := func() error {
		for batch := 0; batch < 4; batch++ {
			for i := 0; i < 5; i++ {
				tel.Emit(obs.EventScrubFinding, -1, fmt.Sprintf("s%d-%d", batch, i))
			}
			if err := h.FlushBlackbox(); err != nil {
				return err
			}
			// Flush returned: this batch is sealed (flushed + fenced) and
			// must survive any crash, any eviction mode.
			sealed += 5
		}
		h.sealBlackbox() // clean-close header path is swept too
		return nil
	}
	err = script()
	h.Device().DisarmFailpoint()
	survived = err == nil
	if err != nil && !errors.Is(err, nvm.ErrDeviceFailed) {
		t.Fatalf("budget %d: unexpected script error: %v", budget, err)
	}

	policy := nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.5, Seed: seed}
	switch budget % 3 {
	case 1:
		policy = nvm.CrashPolicy{Mode: nvm.EvictNone}
	case 2:
		policy = nvm.CrashPolicy{Mode: nvm.EvictAll}
	}
	if _, cerr := h.Device().Crash(policy); cerr != nil {
		t.Fatal(cerr)
	}

	tel2 := obs.NewWithOptions(obs.Options{Shards: 1})
	h2, err := Load(h.Device(), boxTestOptions(tel2))
	if err != nil {
		t.Fatalf("budget %d: recovery failed: %v", budget, err)
	}
	report, err := h2.Check()
	if err != nil {
		t.Fatalf("budget %d: audit error: %v", budget, err)
	}
	if !report.OK() || report.Quarantined != 0 {
		t.Fatalf("budget %d: torn black box damaged the heap: %+v", budget, report)
	}
	tl, err := h2.BlackboxTimeline()
	if err != nil {
		t.Fatalf("budget %d: timeline failed: %v", budget, err)
	}
	if got := countBoxEvents(tl, "scrub_finding"); got < sealed {
		t.Fatalf("budget %d: timeline replays %d sealed markers, want >= %d", budget, got, sealed)
	}
	torn := 0
	for _, e := range tel2.Events() {
		if e.Kind == obs.EventBlackboxTorn {
			torn++
		}
	}
	if torn > 1 {
		t.Fatalf("budget %d: %d EventBlackboxTorn events, want at most 1", budget, torn)
	}
	return survived
}

// TestWatchdogStallDetection: an injected stall must be journalled as
// EventStall, counted into poseidon_stalls_total, and visible in the
// post-crash black-box timeline.
func TestWatchdogStallDetection(t *testing.T) {
	tel := obs.NewWithOptions(obs.Options{Shards: 1})
	opts := boxTestOptions(tel)
	opts.Watchdog = WatchdogOptions{StallThreshold: 15 * time.Millisecond, Interval: 2 * time.Millisecond}
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	th, err := h.Thread()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.InjectStall(0, 80*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	p, err := th.Alloc(128) // holds the sub-heap 0 lock through the stall
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}

	var stallEvent *obs.Event
	for _, e := range tel.Events() {
		if e.Kind == obs.EventStall {
			ev := e
			stallEvent = &ev
		}
	}
	if stallEvent == nil {
		t.Fatal("injected stall produced no EventStall in the DRAM journal")
	}
	if stallEvent.Subheap != 0 || !strings.Contains(stallEvent.Detail, "alloc") {
		t.Fatalf("stall event lacks attribution: %+v", stallEvent)
	}
	snap := h.Metrics()
	if snap.Watchdog == nil || !snap.Watchdog.Enabled || snap.Watchdog.Stalls < 1 {
		t.Fatalf("watchdog stats = %+v, want >= 1 stall", snap.Watchdog)
	}
	var prom strings.Builder
	if err := obs.WritePrometheus(&prom, snap); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "poseidon_stalls_total 1") &&
		!strings.Contains(prom.String(), "poseidon_stalls_total") {
		t.Fatal("poseidon_stalls_total missing from exposition")
	}
	// Lock wait/hold histograms populated by the instrumented lock sites.
	if tel.Hist(obs.OpLockHold).Count == 0 {
		t.Fatal("no lock-hold observations recorded")
	}

	// The stall survives the crash into the post-mortem timeline.
	if err := h.FlushBlackbox(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictAll}); err != nil {
		t.Fatal(err)
	}
	h.Close()
	h2, err := Load(h.Device(), boxTestOptions(obs.NewWithOptions(obs.Options{Shards: 1})))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := h2.BlackboxTimeline()
	if err != nil {
		t.Fatal(err)
	}
	stalls := 0
	for _, e := range tl {
		if e.Type == "stall" {
			stalls++
			if e.Subheap != 0 {
				t.Fatalf("stall entry lost its sub-heap: %+v", e)
			}
		}
	}
	if stalls == 0 {
		t.Fatalf("post-crash timeline holds no stall entry: %+v", tl)
	}
}

// TestWatchdogRequiresTelemetry pins the option validation.
func TestWatchdogRequiresTelemetry(t *testing.T) {
	opts := boxTestOptions(nil)
	opts.Watchdog = WatchdogOptions{StallThreshold: time.Second}
	if _, err := Create(opts); err == nil {
		t.Fatal("Watchdog without Telemetry did not error")
	}
}

// TestLatencyTapOutliers: with the watchdog on, device flush/fence latency
// flows through the tap and outliers surface in the metrics snapshot.
func TestLatencyTapOutliers(t *testing.T) {
	tel := obs.NewWithOptions(obs.Options{Shards: 1})
	opts := boxTestOptions(tel)
	opts.Watchdog = WatchdogOptions{StallThreshold: 50 * time.Millisecond}
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// Replace the tap with an always-outlier one (threshold 0 counts every
	// observation) so modeled nanosecond latencies register.
	h.tap = nvm.NewLatencyTap(0, nil)
	h.Device().SetLatencyTap(h.tap)
	th, err := h.Thread()
	if err != nil {
		t.Fatal(err)
	}
	p, err := th.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
	wd := h.Metrics().Watchdog
	if wd == nil || wd.FlushOutliers == 0 || wd.FenceOutliers == 0 {
		t.Fatalf("tap saw no device traffic: %+v", wd)
	}
}

// BenchmarkAllocFreeWatchdogOff is the disabled path: telemetry on, no
// watchdog — the lock sites pay exactly one nil check.
func BenchmarkAllocFreeWatchdogOff(b *testing.B) {
	benchAllocFree(b, boxTestOptions(obs.NewWithOptions(obs.Options{Shards: 1})))
}

// BenchmarkAllocFreeWatchdogOn adds the full contention layer: lock
// wait/hold histograms, hold-state atomics, the latency tap and the
// background scanner.
func BenchmarkAllocFreeWatchdogOn(b *testing.B) {
	opts := boxTestOptions(obs.NewWithOptions(obs.Options{Shards: 1}))
	opts.Watchdog = WatchdogOptions{StallThreshold: 50 * time.Millisecond}
	benchAllocFree(b, opts)
}
