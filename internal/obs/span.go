package obs

// Sampled op-span tracer: 1-in-N operations (alloc/free/tx/refill/
// repair/recovery) record a span carrying duration plus the
// flush/fence/write/retry sub-event counts the operation issued, diffed
// from the context's nvm.AttrRecorder. Spans land in a fixed ring
// (newest-wins, like the event journal) and export as Chrome trace-event
// JSON, so a recovery or repair timeline opens directly in a trace viewer
// (chrome://tracing, Perfetto).
//
// Off-path discipline matches the profiler: a disabled tracer is a nil
// pointer (one nil check on the hot path); an enabled tracer's sampling
// decision is a single atomic counter increment.

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one sampled operation.
type Span struct {
	Seq     uint64 // global span sequence number
	Op      Op
	Subheap int   // owning sub-heap, -1 when not applicable
	Lane    int   // issuing lane/thread, -1 when not applicable
	StartNS int64 // UnixNano
	DurNS   int64
	Writes  uint64 // device writes issued inside the span
	Flushes uint64 // cachelines flushed
	Fences  uint64
	Retries uint64 // transient-fault retries observed
	Bytes   uint64 // payload size for alloc/free spans, 0 otherwise
	Err     string // non-empty when the operation failed
}

// TracerStats is the tracer's summary block in a telemetry snapshot.
type TracerStats struct {
	Enabled bool
	Rate    int
	Sampled uint64 // spans recorded
	Dropped uint64 // spans overwritten before export
}

// Tracer samples operation spans into a fixed ring. All methods are
// nil-safe.
type Tracer struct {
	rate uint64
	tick atomic.Uint64

	mu      sync.Mutex
	ring    []Span
	next    uint64 // total spans ever recorded; ring index = next % len
	dropped uint64
}

// NewTracer creates a tracer sampling 1-in-rate operations into a ring of
// buffer spans. rate <= 0 returns nil (tracing disabled — callers keep the
// nil and pay only the nil check). buffer <= 0 defaults to 4096.
func NewTracer(rate, buffer int) *Tracer {
	if rate <= 0 {
		return nil
	}
	if buffer <= 0 {
		buffer = 4096
	}
	return &Tracer{rate: uint64(rate), ring: make([]Span, buffer)}
}

// Sampled decides whether the next operation should record a span: one
// atomic increment, true every rate-th call. Nil-safe (always false).
func (t *Tracer) Sampled() bool {
	if t == nil {
		return false
	}
	return t.tick.Add(1)%t.rate == 0
}

// Record appends a span to the ring, overwriting the oldest when full.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s.Seq = t.next
	if t.next >= uint64(len(t.ring)) {
		t.dropped++
	}
	t.ring[t.next%uint64(len(t.ring))] = s
	t.next++
	t.mu.Unlock()
}

// Spans returns the buffered spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	cap := uint64(len(t.ring))
	start := uint64(0)
	if n > cap {
		start = n - cap
	}
	out := make([]Span, 0, n-start)
	for i := start; i < n; i++ {
		out = append(out, t.ring[i%cap])
	}
	return out
}

// SpansSince returns the buffered spans with Seq >= seq, oldest first —
// the black-box recorder's incremental pull at each publish point. Nil-safe.
func (t *Tracer) SpansSince(seq uint64) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	cap := uint64(len(t.ring))
	start := uint64(0)
	if n > cap {
		start = n - cap
	}
	if seq > start {
		start = seq
	}
	if start >= n {
		return nil
	}
	out := make([]Span, 0, n-start)
	for i := start; i < n; i++ {
		out = append(out, t.ring[i%cap])
	}
	return out
}

// Stats summarises the tracer. Nil-safe (zero value).
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TracerStats{Enabled: true, Rate: int(t.rate), Sampled: t.next, Dropped: t.dropped}
}

// Rate returns the sampling rate (0 when nil/disabled).
func (t *Tracer) Rate() int {
	if t == nil {
		return 0
	}
	return int(t.rate)
}

// WriteChromeTrace renders the buffered spans as Chrome trace-event JSON
// (the {"traceEvents": [...]} wrapper form). Each span becomes one complete
// ("ph":"X") event; the process id groups by sub-heap and the thread id by
// lane, so a trace viewer lays concurrent sub-heap activity out on separate
// rows. Timestamps are microseconds relative to the earliest span, as the
// format expects.
func (t *Tracer) WriteChromeTrace() []byte {
	spans := t.Spans()
	var base int64
	for i, s := range spans {
		if i == 0 || s.StartNS < base {
			base = s.StartNS
		}
	}
	var buf bytes.Buffer
	buf.WriteString(`{"traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			buf.WriteByte(',')
		}
		name := s.Op.String()
		pid := s.Subheap
		if pid < 0 {
			pid = 0
		}
		tid := s.Lane
		if tid < 0 {
			tid = 0
		}
		fmt.Fprintf(&buf,
			`{"name":%s,"cat":"poseidon","ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":{`,
			strconv.Quote(name),
			jsonMicros(s.StartNS-base), jsonMicros(s.DurNS), pid, tid)
		fmt.Fprintf(&buf, `"seq":%d,"writes":%d,"flushes":%d,"fences":%d,"retries":%d,"bytes":%d`,
			s.Seq, s.Writes, s.Flushes, s.Fences, s.Retries, s.Bytes)
		if s.Subheap >= 0 {
			fmt.Fprintf(&buf, `,"subheap":%d`, s.Subheap)
		}
		if s.Err != "" {
			fmt.Fprintf(&buf, `,"err":%s`, strconv.Quote(s.Err))
		}
		buf.WriteString(`}}`)
	}
	buf.WriteString(`],"displayTimeUnit":"ns","otherData":{"source":"poseidon optrace"}}`)
	return buf.Bytes()
}

// jsonMicros formats nanoseconds as fractional microseconds (the trace
// format's unit) without float rounding surprises.
func jsonMicros(ns int64) string {
	micro := ns / 1e3
	frac := ns % 1e3
	if frac < 0 {
		frac = -frac
	}
	return strconv.FormatInt(micro, 10) + "." + fmt.Sprintf("%03d", frac)
}

// SpanStart is a convenience for hook sites: snapshot the clock now, call
// the returned func to build the span skeleton (duration filled, counters
// left to the caller).
func SpanStart() func() (startNS, durNS int64) {
	start := time.Now()
	return func() (int64, int64) {
		return start.UnixNano(), time.Since(start).Nanoseconds()
	}
}
