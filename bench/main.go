// Command bench is the end-to-end benchmark of the Poseidon allocator.
//
// Each workload is set up several times (the median is setup_s), then runs
// a timed pass for -seconds with library-default options, no telemetry and
// no device counters, which gives the end-to-end metrics. A traced pass
// then replays the same per-worker op streams from one goroutine, with
// telemetry on and a span around every call into fastfair and core, which
// gives the per-layer metrics and the exact persistence counts.
//
// Run it from the repository root with bench/run.sh, or from bench/:
//
//	go run . [-workload NAME|all] [-seed N] [-seconds S] [-scale F] [-trace 0|1] [-out DIR]
//	go run . -compare A/ B/
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the end-to-end metrics (-trace 0) or per-layer metrics
// (-trace 1). The exit status is non-zero when any correctness check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"poseidon"
)

// setupRepeats is how many set-ups each run times; setup_s is their median.
const setupRepeats = 5

type config struct {
	seed    int64
	seconds float64
	scale   float64
	trace   bool
	out     string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed; seed 2 is held out for claims")
	seconds := fs.Float64("seconds", 10, "length of the timed pass in seconds")
	scale := fs.Float64("scale", 1, "multiplier on set-up and traced-pass sizes")
	trace := fs.Int("trace", 0, "1: the result line carries the per-layer metrics, and -out also gets a Chrome trace")
	out := fs.String("out", "", "directory to write <workload>.json (and <workload>.trace.json) into")
	compare := fs.Bool("compare", false, "compare two directories of -out results: -compare A/ B/")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two directories")
			return 2
		}
		return compareDirs(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, scale: *scale, trace: *trace == 1, out: *out}

	todo := workloads
	if *name != "all" {
		wl, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{wl}
	}
	status := 0
	for _, wl := range todo {
		res, tr := runWorkload(wl, cfg)
		printResult(stdout, res, cfg.trace)
		if res.Error != "" {
			fmt.Fprintf(stderr, "bench: workload %s: %s\n", wl.name, res.Error)
		}
		if err := writeOut(cfg, res, tr); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			status = 1
		}
		if !res.Correct {
			status = 1
		}
	}
	return status
}

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples uint64  `json:"samples"`
}

type metrics map[string]metric

type provenance struct {
	Commit     string  `json:"commit"`
	Modified   bool    `json:"modified"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

// result is one workload run, as written by -out and read by -compare.
type result struct {
	Workload    string     `json:"workload"`
	Provenance  provenance `json:"provenance"`
	Correct     bool       `json:"correct"`
	Attempted   uint64     `json:"attempted"`
	Failed      uint64     `json:"failed"`
	Error       string     `json:"error,omitempty"`
	EndToEnd    metrics    `json:"end_to_end"`
	PerLayer    metrics    `json:"per_layer"`
	Diagnostics metrics    `json:"diagnostics"`
}

func provenanceOf(cfg config) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

func runWorkload(wl workload, cfg config) (*result, *tracer) {
	res := &result{
		Workload: wl.name, Provenance: provenanceOf(cfg),
		EndToEnd: metrics{}, PerLayer: metrics{}, Diagnostics: metrics{},
	}
	t, err := runTimed(wl, cfg)
	var p *tracedPass
	if err == nil {
		p, err = runTraced(wl, cfg)
	}
	if err != nil {
		// The error names what failed; the counts only mark the run failed.
		res.Error = err.Error()
		res.Attempted, res.Failed = 1, 1
		return res, nil
	}
	res.fill(t, p)
	res.Correct = res.Failed == 0
	return res, p.tr
}

// timedPass holds what the untraced pass measured.
type timedPass struct {
	setups    []float64 // seconds
	recs      []*recorder
	mallocs   uint64
	heapInuse uint64
	resident  int64
}

func runTimed(wl workload, cfg config) (*timedPass, error) {
	p := &timedPass{}
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := nanotime()
		var err error
		if inst, err = wl.setup(&env{seed: cfg.seed, scale: cfg.scale}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setups = append(p.setups, float64(nanotime()-t0)/1e9)
	}
	defer inst.close()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := nanotime()
	deadline := start + int64(cfg.seconds*1e9)
	p.recs = make([]*recorder, inst.workers())
	errs := make([]error, len(p.recs))
	var wg sync.WaitGroup
	for w := range p.recs {
		r := &recorder{start: start, last: start, busy: wl.busyClock}
		p.recs[w] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r.last < deadline {
				if err := inst.step(w, r); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - mallocs
	if err := errors.Join(errs...); err != nil {
		return p, fmt.Errorf("timed pass: %w", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.heapInuse = ms.HeapInuse
	p.resident = inst.heap().Device().ResidentBytes()
	if err := verify(inst.heap(), inst.live()); err != nil {
		return p, fmt.Errorf("timed pass: %w", err)
	}
	return p, nil
}

// tracedPass holds what the traced replay measured. Counts and spans cover
// the replay, not its set-up; setup covers the set-up alone.
type tracedPass struct {
	tr            *tracer
	spans, setup  spanTotals
	counts        counts
	attr          map[string][2]uint64 // class -> {flushes, fences}
	ops, failed   uint64
	remoteFrees   uint64
	fragmentation float64 // mean over sub-heaps
	freeBlocks    uint64
	recoveryNS    float64 // mean of the telemetry's recovery timings
	recoveries    uint64
	recovered     float64 // blocks rolled back per restart
	decodeNS      float64 // mean image decode time
}

func runTraced(wl workload, cfg config) (*tracedPass, error) {
	tel := poseidon.NewTelemetry()
	p := &tracedPass{tr: &tracer{}}
	inst, err := wl.setup(&env{seed: cfg.seed, scale: cfg.scale, tel: tel, tr: p.tr})
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer inst.close()
	p.setup = p.tr.spanTotals
	c0, a0 := inst.counts(), attribution(tel)

	r := &recorder{tr: p.tr}
	steps := max(1, int(float64(wl.tracedSteps)*cfg.scale))
	for i := 0; i < steps; i++ {
		for w := 0; w < inst.workers(); w++ {
			p.tr.tid = w
			if err := inst.step(w, r); err != nil {
				return p, fmt.Errorf("traced pass: %w", err)
			}
		}
	}
	// The reload check below runs recovery, which rolls back an open
	// transaction's blocks, so the replay ends on a transaction boundary.
	if tx, ok := inst.(interface{ txOpen() bool }); ok {
		p.tr.tid = 0
		for tx.txOpen() {
			if err := inst.step(0, r); err != nil {
				return p, fmt.Errorf("traced pass: %w", err)
			}
		}
	}
	p.spans = p.tr.spanTotals.minus(p.setup)
	p.counts = inst.counts().minus(c0)
	p.attr = attribution(tel)
	for c, v := range a0 {
		p.attr[c] = [2]uint64{p.attr[c][0] - v[0], p.attr[c][1] - v[1]}
	}
	p.ops, p.failed, p.remoteFrees = r.ops, r.failed, r.remoteFrees
	gauges := inst.heap().Metrics().Subheaps
	for _, g := range gauges {
		p.fragmentation += g.Fragmentation / float64(len(gauges))
		p.freeBlocks += g.FreeBlocks
	}
	if err := verify(inst.heap(), inst.live()); err != nil {
		return p, fmt.Errorf("traced pass: %w", err)
	}

	if x, ok := inst.(*restart); ok {
		p.decodeNS = ratio(float64(x.decodeNS), float64(x.decodes))
		p.recovered = ratio(float64(p.counts[cRecovered]), float64(p.ops))
	} else {
		h, decode, err := reload(inst.heap(), tel)
		if err != nil {
			return p, fmt.Errorf("reload: %w", err)
		}
		defer h.Close()
		p.decodeNS = float64(decode)
		p.recovered = float64(h.Stats().RecoveredBlocks)
		if err := verify(h, inst.live()); err != nil {
			return p, fmt.Errorf("after reload: %w", err)
		}
	}
	for _, op := range tel.Snapshot().Ops {
		if op.Op == "recovery" {
			p.recoveryNS = ratio(float64(op.TotalNS), float64(op.Count))
			p.recoveries = op.Count
		}
	}
	return p, nil
}

func attribution(tel *poseidon.Telemetry) map[string][2]uint64 {
	m := map[string][2]uint64{}
	for _, a := range tel.Snapshot().Attribution {
		m[a.Class] = [2]uint64{a.Flushes, a.Fences}
	}
	return m
}

type metricDef struct {
	name, unit, better string
}

// endToEnd are the gated metrics, in BENCHMARK.json order. Every workload
// reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops", "op/s", "higher"},
	{"op_p50_ns", "ns", "lower"},
	{"flushes_per_op", "1/op", "lower"},
	{"fences_per_op", "1/op", "lower"},
	{"mem_mib", "MiB", "lower"},
}

// nvmClasses are the device-attribution classes reported per layer;
// txfree is the rollback of uncommitted transactions at recovery.
var nvmClasses = []string{"alloc", "free", "txalloc", "txfree", "user", "recovery", "combined"}

// perLayer are the traced-pass metrics, in BENCHMARK.json order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.alloc_ns", "ns/call", "lower"},
		{"core.free_ns", "ns/call", "lower"},
		{"core.access_ns", "ns/call", "lower"},
		{"core.accesses_per_op", "1/op", "lower"},
		{"core.time_share", "ratio", "lower"},
		{"core.remote_free_ratio", "ratio", "lower"},
		{"core.magazine_hit_ratio", "ratio", "higher"},
		{"core.ring_free_ratio", "ratio", "higher"},
		{"core.combined_op_ratio", "ratio", "higher"},
		{"core.go_allocs_per_op", "1/op", "lower"},
		{"core.recovery_ms", "ms", "lower"},
		{"core.recovered_blocks", "blocks", "lower"},
		{"mpk.switches_per_op", "1/op", "lower"},
		{"nvm.writes_per_op", "1/op", "lower"},
		{"nvm.bytes_per_op", "B/op", "lower"},
	}
	for _, c := range nvmClasses {
		defs = append(defs,
			metricDef{"nvm." + c + ".flushes_per_op", "1/op", "lower"},
			metricDef{"nvm." + c + ".fences_per_op", "1/op", "lower"})
	}
	return append(defs,
		metricDef{"nvm.image_load_ms", "ms", "lower"},
		metricDef{"nvm.resident_mib", "MiB", "lower"},
		metricDef{"memblock.fragmentation", "ratio", "lower"},
		metricDef{"memblock.free_blocks", "blocks", "lower"},
		metricDef{"fastfair.search_self_ns", "ns/call", "lower"},
		metricDef{"fastfair.update_self_ns", "ns/call", "lower"},
		metricDef{"fastfair.insert_self_ns", "ns/call", "lower"},
		metricDef{"fastfair.time_share", "ratio", "lower"},
		metricDef{"bench.trace_overhead", "ratio", "lower"},
	)
}()

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

func (m metrics) put(name string, v float64, samples uint64) {
	m[name] = metric{Value: v, Unit: units[name], Samples: samples}
}

func (res *result) fill(t *timedPass, p *tracedPass) {
	var all hist
	var kinds [numOpKinds]hist
	var timedOps uint64
	for _, r := range t.recs {
		for k := range r.lat {
			kinds[k].merge(&r.lat[k])
			all.merge(&r.lat[k])
		}
		timedOps += r.ops
		res.Failed += r.failed
	}
	res.Attempted = timedOps + p.ops
	res.Failed += p.failed
	ops := float64(p.ops)
	sp, c := p.spans, p.counts

	// The black-box recorder runs only with telemetry on, so its traffic is
	// not part of what the untraced heap pays.
	bb := p.attr["blackbox"]
	e := res.EndToEnd
	rate, p50, p99, intervals := timedStats(t.recs)
	e.put("setup_s", median(t.setups), uint64(len(t.setups)))
	e.put("throughput_ops", rate, uint64(intervals))
	e.put("op_p50_ns", p50, all.n)
	e.put("flushes_per_op", ratio(float64(c[cFlushes]-bb[0]), ops), p.ops)
	e.put("fences_per_op", ratio(float64(c[cFences]-bb[1]), ops), p.ops)
	e.put("mem_mib", float64(t.heapInuse)/(1<<20), 1)

	d := res.Diagnostics
	for k := opKind(0); k < numOpKinds; k++ {
		h := &kinds[k]
		switch {
		case h.n == 0:
		case k == opRestart:
			d["restart_p50_ms"] = metric{h.quantile(0.50) / 1e6, "ms", h.n}
			d["restart_p95_ms"] = metric{h.quantile(0.95) / 1e6, "ms", h.n}
		default:
			d[opNames[k]+"_p50_ns"] = metric{h.quantile(0.50), "ns", h.n}
			d[opNames[k]+"_p99_ns"] = metric{h.quantile(0.99), "ns", h.n}
		}
	}
	d["op_p99_ns"] = metric{p99, "ns", all.n}
	d["op_p999_ns"] = metric{all.quantile(0.999), "ns", all.n}
	d["error_rate"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Attempted}

	l := res.PerLayer
	coreNS := sp.total[spanCoreAlloc] + sp.total[spanCoreFree] + sp.total[spanCoreAccess] + sp.total[spanCoreLoad]
	ffSelf := sp.self[spanFFSearch] + sp.self[spanFFUpdate] + sp.self[spanFFInsert]
	opNS := float64(sp.total[spanOp])
	frees := float64(c[cFrees])
	l.put("core.alloc_ns", sp.selfPerCall(spanCoreAlloc), sp.calls[spanCoreAlloc])
	l.put("core.free_ns", sp.selfPerCall(spanCoreFree), sp.calls[spanCoreFree])
	l.put("core.access_ns", sp.selfPerCall(spanCoreAccess), sp.calls[spanCoreAccess])
	l.put("core.accesses_per_op", ratio(float64(sp.calls[spanCoreAccess]), ops), p.ops)
	l.put("core.time_share", ratio(float64(coreNS), opNS), p.ops)
	l.put("core.remote_free_ratio", ratio(float64(p.remoteFrees), frees), c[cFrees])
	l.put("core.magazine_hit_ratio", ratio(float64(c[cMagHits]), float64(c[cMagHits]+c[cMagMisses])), c[cMagHits]+c[cMagMisses])
	l.put("core.ring_free_ratio", ratio(float64(c[cRingFrees]), frees), c[cFrees])
	l.put("core.combined_op_ratio", ratio(float64(c[cCombinedOps]), float64(c[cAllocs]+c[cFrees])), c[cAllocs]+c[cFrees])
	l.put("core.go_allocs_per_op", ratio(float64(t.mallocs), float64(timedOps)), timedOps)
	l.put("core.recovery_ms", p.recoveryNS/1e6, p.recoveries)
	l.put("core.recovered_blocks", p.recovered, p.recoveries)
	l.put("mpk.switches_per_op", ratio(float64(c[cSwitches]), ops), p.ops)
	l.put("nvm.writes_per_op", ratio(float64(c[cWrites]), ops), p.ops)
	l.put("nvm.bytes_per_op", ratio(float64(c[cBytes]), ops), p.ops)
	for _, class := range nvmClasses {
		a := p.attr[class]
		l.put("nvm."+class+".flushes_per_op", ratio(float64(a[0]), ops), p.ops)
		l.put("nvm."+class+".fences_per_op", ratio(float64(a[1]), ops), p.ops)
	}
	l.put("nvm.image_load_ms", p.decodeNS/1e6, p.recoveries)
	l.put("nvm.resident_mib", float64(t.resident)/(1<<20), 1)
	l.put("memblock.fragmentation", p.fragmentation, 1)
	l.put("memblock.free_blocks", float64(p.freeBlocks), 1)
	l.put("fastfair.search_self_ns", sp.selfPerCall(spanFFSearch), sp.calls[spanFFSearch])
	l.put("fastfair.update_self_ns", sp.selfPerCall(spanFFUpdate), sp.calls[spanFFUpdate])
	l.put("fastfair.insert_self_ns", p.setup.selfPerCall(spanFFInsert), p.setup.calls[spanFFInsert])
	l.put("fastfair.time_share", ratio(float64(ffSelf), opNS), p.ops)
	l.put("bench.trace_overhead", ratio(ratio(opNS, ops), all.mean()), p.ops)
}

// resultLine is the result line: exactly these four keys.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(w io.Writer, res *result, trace bool) {
	pv := res.Provenance
	fmt.Fprintf(w, "== %s  seed=%d scale=%g seconds=%g  commit=%s modified=%t %s GOMAXPROCS=%d nproc=%d\n",
		res.Workload, pv.Seed, pv.Scale, pv.Seconds, pv.Commit, pv.Modified, pv.GoVersion, pv.GOMAXPROCS, pv.NProc)
	section := func(title string, m metrics, names []string) {
		fmt.Fprintln(w, title)
		for _, n := range names {
			if v, ok := m[n]; ok {
				fmt.Fprintf(w, "  %-32s %16.6g %-8s n=%d\n", n, v.Value, v.Unit, v.Samples)
			}
		}
	}
	section("end-to-end (timed pass, untraced)", res.EndToEnd, defNames(endToEnd))
	diag := make([]string, 0, len(res.Diagnostics))
	for n := range res.Diagnostics {
		diag = append(diag, n)
	}
	sort.Strings(diag)
	section("diagnostics (not gated)", res.Diagnostics, diag)
	section("per-layer (traced pass)", res.PerLayer, defNames(perLayer))

	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]valueUnit{}}
	src := res.EndToEnd
	if trace {
		src = res.PerLayer
	}
	for n, v := range src {
		line.Metrics[n] = valueUnit{Value: v.Value, Unit: v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		data = []byte(`{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
	}
	fmt.Fprintln(w, string(data))
}

func defNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	return names
}

func writeOut(cfg config, res *result, tr *tracer) error {
	if cfg.out == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, res.Workload+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if cfg.trace && tr != nil {
		return tr.writeChrome(filepath.Join(cfg.out, res.Workload+".trace.json"))
	}
	return nil
}
