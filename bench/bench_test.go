package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"poseidon"
)

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * 100_000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("uniform p%g = %.1f, want %.1f within 1%%", q*100, got, want)
		}
	}
	if got := h.mean(); got != 50_000.5 {
		t.Errorf("mean = %v, want 50000.5", got)
	}

	// Small values are exact; a constant never reads beyond itself.
	var small hist
	for i := 0; i < 10; i++ {
		small.add(7)
	}
	if got := small.quantile(0.99); got != 7 {
		t.Errorf("constant 7: p99 = %v", got)
	}

	// An exponential sample: the log-linear buckets keep every quantile
	// within one bucket width (1/32) of the exact order statistic.
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 200_000)
	var e, halves hist
	for i := range vals {
		vals[i] = int64(rng.ExpFloat64()*1000) + 1
		e.add(vals[i])
		if i%2 == 0 {
			halves.add(vals[i])
		}
	}
	var odd hist
	for i := 1; i < len(vals); i += 2 {
		odd.add(vals[i])
	}
	halves.merge(&odd)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.99} {
		exact := float64(vals[int(q*float64(len(vals)))])
		if got := e.quantile(q); math.Abs(got-exact)/exact > 1.0/32 {
			t.Errorf("exponential p%g = %.1f, exact %.1f", q*100, got, exact)
		}
		if a, b := e.quantile(q), halves.quantile(q); a != b {
			t.Errorf("merged halves p%g = %v, whole = %v", q*100, b, a)
		}
	}
}

// streams draws the first n ops of every generator for one seed.
func streams(seed int64, n int) []any {
	micro := newMicroGen(streamSeed(seed, "fig6-256", 0))
	lar := newLarsonGen(streamSeed(seed, "larson", 1), larsonSlots)
	tx := newTxGen(streamSeed(seed, "tx-mixed", 0))
	y := newYCSBGen(streamSeed(seed, "ycsb-a", 0), 10_000)
	var out []any
	for i := 0; i < n; i++ {
		a, k := micro.next()
		slot, size := lar.next()
		free, txSize, end := tx.next()
		item, upd := y.next()
		out = append(out, a, k, slot, size, free, txSize, end, item, upd)
	}
	return out
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b, c := streams(1, 5000), streams(1, 5000), streams(2, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 1 gave two different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 gave the same streams")
	}
}

func TestGeneratorShapes(t *testing.T) {
	tx := newTxGen(7)
	classes := map[int]bool{}
	live := 0
	for i := 0; i < 50_000; i++ {
		free, size, _ := tx.next()
		if free {
			live--
			continue
		}
		live++
		if size < 1<<txMinLog || size >= 1<<txMaxLog {
			t.Fatalf("tx size %d outside [64 B, 64 KiB)", size)
		}
		c := 0
		for 1<<(txMinLog+c) < size {
			c++
		}
		classes[c] = true
	}
	if len(classes) != txMaxLog-txMinLog+1 {
		t.Errorf("tx sizes span %d classes, want %d", len(classes), txMaxLog-txMinLog+1)
	}
	if live > fifoTxs*txLen+txLen {
		t.Errorf("tx FIFO holds %d blocks, want at most %d", live, fifoTxs*txLen+txLen)
	}

	m := newMicroGen(3)
	for i := 0; i < 10_000; i++ {
		m.next()
		if m.live < 0 || m.live > microWindow {
			t.Fatalf("micro window holds %d blocks", m.live)
		}
	}
}

// The traced pass replays fixed streams from one goroutine, so every count
// it reports must repeat exactly.
func TestTracedCountsRepeat(t *testing.T) {
	cfg := config{seed: 1, scale: 0.01}
	for _, wl := range workloads {
		a, err := runTraced(wl, cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		b, err := runTraced(wl, cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if a.counts != b.counts || a.spans.calls != b.spans.calls || !reflect.DeepEqual(a.attr, b.attr) ||
			a.remoteFrees != b.remoteFrees || a.freeBlocks != b.freeBlocks {
			t.Errorf("%s: traced counts differ between runs:\n%v %v\n%v %v", wl.name, a.counts, a.attr, b.counts, b.attr)
		}
		if a.ops == 0 || a.counts[cFlushes] == 0 {
			t.Errorf("%s: traced pass counted %d ops, %d flushes", wl.name, a.ops, a.counts[cFlushes])
		}
	}
}

// At these scales tx-mixed's warm-up plus replay stops inside a transaction,
// which the reload check's recovery would roll back.
func TestTracedTxMixedEndsOnCommit(t *testing.T) {
	wl, _ := findWorkload("tx-mixed")
	for _, scale := range []float64{0.0125, 0.0011} {
		if _, err := runTraced(wl, config{seed: 1, scale: scale}); err != nil {
			t.Errorf("scale %g: %v", scale, err)
		}
	}
}

// The check tags are benchmark traffic: they must not show in the counts.
func TestTagWritesExcluded(t *testing.T) {
	e := &env{seed: 1, scale: 1, tel: poseidon.NewTelemetry(), tr: &tracer{}}
	h, err := e.newHeap(1, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	p, err := th.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	g := e.tagger(h)
	before := countsOf(h)
	if _, err := g.put(th, p); err != nil {
		t.Fatal(err)
	}
	if before[cWrites] == 0 || countsOf(h) == before {
		t.Fatal("the tag write was not counted by the device")
	}
	if got := g.exclude(countsOf(h)); got != before {
		t.Errorf("counts after a tag = %v, want %v", got, before)
	}
}

// A 1%-scale run of every workload through the command line, checked the
// way a caller reads it: result lines, -out records, traces and -compare.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", "all", "-seconds", "0.05", "-scale", "0.01", "-trace", "1", "-out", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var lines []string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "{") {
			lines = append(lines, l)
		}
	}
	if len(lines) != len(workloads) {
		t.Fatalf("%d result lines, want %d", len(lines), len(workloads))
	}
	for i, wl := range workloads {
		var line resultLine
		if err := json.Unmarshal([]byte(lines[i]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted == 0 || line.Failed != 0 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d", wl.name, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", wl.name, len(line.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			if m, ok := line.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: per-layer %s = %+v, want unit %s", wl.name, d.name, m, d.unit)
			}
		}

		data, err := os.ReadFile(filepath.Join(dir, wl.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var res result
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
		if res.Provenance.GOMAXPROCS == 0 || res.Provenance.GoVersion == "" || res.Provenance.Seed != 1 {
			t.Errorf("%s: provenance %+v", wl.name, res.Provenance)
		}
		for _, d := range endToEnd {
			if m, ok := res.EndToEnd[d.name]; !ok || m.Unit != d.unit || !(m.Value > 0) || m.Samples == 0 {
				t.Errorf("%s: end-to-end %s = %+v, want unit %s and a positive value", wl.name, d.name, m, d.unit)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, wl.name+".trace.json")); err != nil {
			t.Errorf("%s: no Chrome trace: %v", wl.name, err)
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("1%%-scale run of all workloads took %v, want under 10 s", d)
	}

	out.Reset()
	if code := compareDirs(dir, dir, &out, &errOut); code != 0 || strings.Contains(out.String(), "regressed") {
		t.Errorf("comparing a run with itself: exit %d\n%s%s", code, out.String(), errOut.String())
	}
}

// BENCHMARK.json must describe exactly what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %q, program has %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, program has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v, program has %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v, program has %+v", i, m, d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{100, 102, 98, 101, 99}, "lower", "ok"},
		{[]float64{120, 121, 119, 120, 120}, "lower", "regressed"},
		{[]float64{120, 121, 119, 120, 120}, "higher", "ok"},
		{[]float64{80, 130, 100, 60, 140}, "lower", "unresolved"},
		{[]float64{50, 70, 60, 90, 40}, "lower", "ok"}, // noisy, but every run better
	}
	for _, c := range cases {
		if _, _, got := verdict(a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.b, c.better, got, c.want)
		}
	}
}
