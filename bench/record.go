package main

type opKind uint8

// Op kinds. TxAlloc counts as alloc: an "op" is one Alloc/TxAlloc/Free
// call, one YCSB request, or one restart.
const (
	opAlloc opKind = iota
	opFree
	opRead
	opUpdate
	opRestart
	numOpKinds
)

var opNames = [numOpKinds]string{"alloc", "free", "read", "update", "restart"}

const (
	// intervalNS is the timed pass's sampling interval.
	intervalNS = 500e6
	// minIntervalOps is the fewest ops an interval needs for its p99 to
	// have ten samples beyond it.
	minIntervalOps = 1000
)

// recorder is one worker's view of a pass. In the timed pass it keeps a
// latency histogram per op kind and one per interval; in the traced pass
// (tr set) each op is a span instead. A nil recorder (warm-up during
// set-up) records nothing.
type recorder struct {
	tr          *tracer
	lat         [numOpKinds]hist
	intervals   []*hist
	start, last int64 // pass start and end of the latest op, nanotime
	// busy advances the interval clock by op time only, for workloads
	// whose untimed per-op preparation must not dilute the rate.
	busy        bool
	busyNS      int64
	ops, failed uint64
	remoteFrees uint64 // frees of blocks owned by another sub-heap
}

func (r *recorder) begin() int64 {
	if r == nil {
		return 0
	}
	if r.tr != nil {
		return r.tr.enter(spanOp)
	}
	return nanotime()
}

// end closes the op begun at t0 and passes its error through.
func (r *recorder) end(k opKind, t0 int64, err error) error {
	if r == nil {
		return err
	}
	r.ops++
	if err != nil {
		r.failed++
	}
	if r.tr != nil {
		r.tr.exit()
		return err
	}
	now := nanotime()
	d := now - t0
	r.lat[k].add(d)
	r.last = now
	clock := now - r.start
	if r.busy {
		r.busyNS += d
		clock = r.busyNS
	}
	i := int(clock / intervalNS)
	for len(r.intervals) <= i {
		r.intervals = append(r.intervals, new(hist))
	}
	r.intervals[i].add(d)
	return err
}

// timedStats summarises the timed pass: throughput (ops/s) and the p50 and
// p99 latency (ns), each the median over the pass's complete intervals, so
// a burst of outside load in one interval does not move them. With too few
// ops per interval for a p99, the quantiles cover the whole pass instead.
// It also returns how many intervals the medians are over.
func timedStats(recs []*recorder) (rate, p50, p99 float64, intervals int) {
	var window int64
	var merged []*hist
	var whole hist
	for _, r := range recs {
		w := r.last - r.start
		if r.busy {
			w = r.busyNS
		}
		window = max(window, w)
		for i, h := range r.intervals {
			if i == len(merged) {
				merged = append(merged, new(hist))
			}
			merged[i].merge(h)
			whole.merge(h)
		}
	}
	full := min(int(window/intervalNS), len(merged))
	if full == 0 {
		return ratio(float64(whole.n), float64(window)/1e9), whole.quantile(0.5), whole.quantile(0.99), 1
	}
	rates, q50, q99 := make([]float64, full), make([]float64, full), make([]float64, full)
	perInterval := true
	for i, h := range merged[:full] {
		rates[i] = float64(h.n) / (intervalNS / 1e9)
		q50[i], q99[i] = h.quantile(0.5), h.quantile(0.99)
		perInterval = perInterval && h.n >= minIntervalOps
	}
	if !perInterval {
		return median(rates), whole.quantile(0.5), whole.quantile(0.99), full
	}
	return median(rates), median(q50), median(q99), full
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
