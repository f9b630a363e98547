package main

// The traced pass: a span recorder plus decorators around the calls the
// benchmark makes into each layer. Spans nest op -> fastfair call -> core
// call, and a layer's self time is its span minus its child spans.

import (
	"encoding/json"
	"os"
	"time"

	"poseidon/internal/alloc"
	"poseidon/internal/core"
)

var clockEpoch = time.Now()

// nanotime is a monotonic clock in ns; one call costs about half of
// time.Now, which reads the wall clock too.
func nanotime() int64 { return int64(time.Since(clockEpoch)) }

type spanKind uint8

const (
	spanOp spanKind = iota
	spanFFSearch
	spanFFUpdate
	spanFFInsert
	spanCoreAlloc  // Alloc and TxAlloc
	spanCoreFree   // Free
	spanCoreAccess // Read, Write, ReadU64, WriteU64, Persist
	spanCoreLoad   // core.Load
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "fastfair.search", "fastfair.update", "fastfair.insert",
	"core.alloc", "core.free", "core.access", "core.load",
}

var spanLayers = [numSpanKinds]string{
	"bench", "fastfair", "fastfair", "fastfair", "core", "core", "core", "core",
}

// traceSampleEvery is the op sampling rate of the Chrome trace.
const traceSampleEvery = 256

type spanTotals struct {
	calls [numSpanKinds]uint64
	total [numSpanKinds]int64 // ns inside the span
	self  [numSpanKinds]int64 // ns inside the span but outside its children
}

func (a spanTotals) minus(b spanTotals) spanTotals {
	for k := range a.calls {
		a.calls[k] -= b.calls[k]
		a.total[k] -= b.total[k]
		a.self[k] -= b.self[k]
	}
	return a
}

// selfPerCall is the mean self time of one span of kind k, in ns.
func (a spanTotals) selfPerCall(k spanKind) float64 {
	return ratio(float64(a.self[k]), float64(a.calls[k]))
}

type frame struct {
	kind         spanKind
	start, child int64
}

// traceEvent is one Chrome trace-event ("X" = complete event, times in µs).
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]uint64 `json:"args"`
}

// tracer records spans from one goroutine. Every span feeds the totals;
// the spans of one op in traceSampleEvery are also kept as trace events.
type tracer struct {
	spanTotals
	stack   []frame
	tid     int // worker whose step is running
	sampled bool
	opID    uint64
	events  []traceEvent
}

func (t *tracer) enter(k spanKind) int64 {
	if k == spanOp {
		t.opID = t.calls[spanOp]
		t.sampled = t.opID%traceSampleEvery == 0
	}
	now := nanotime()
	t.stack = append(t.stack, frame{kind: k, start: now})
	return now
}

func (t *tracer) exit() {
	now := nanotime()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	t.calls[f.kind]++
	t.total[f.kind] += d
	t.self[f.kind] += d - f.child
	inOp := f.kind == spanOp
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
		inOp = true
	}
	if t.sampled && inOp {
		t.events = append(t.events, traceEvent{
			Name: spanNames[f.kind], Cat: spanLayers[f.kind], Ph: "X",
			TS: float64(f.start) / 1e3, Dur: float64(d) / 1e3, PID: 1, TID: t.tid,
			Args: map[string]uint64{"op": t.opID},
		})
	}
}

func (t *tracer) writeChrome(path string) error {
	data, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{t.events, "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// thread is what the allocator workloads call on a *core.Thread.
type thread interface {
	Alloc(size uint64) (core.NVMPtr, error)
	TxAlloc(size uint64, isEnd bool) (core.NVMPtr, error)
	Free(p core.NVMPtr) error
}

type tracedThread struct {
	t  *core.Thread
	tr *tracer
}

func (x tracedThread) Alloc(size uint64) (core.NVMPtr, error) {
	x.tr.enter(spanCoreAlloc)
	defer x.tr.exit()
	return x.t.Alloc(size)
}

func (x tracedThread) TxAlloc(size uint64, isEnd bool) (core.NVMPtr, error) {
	x.tr.enter(spanCoreAlloc)
	defer x.tr.exit()
	return x.t.TxAlloc(size, isEnd)
}

func (x tracedThread) Free(p core.NVMPtr) error {
	x.tr.enter(spanCoreFree)
	defer x.tr.exit()
	return x.t.Free(p)
}

// tracedHandle times the alloc.Handle calls fastfair and the YCSB workload
// make into core.
type tracedHandle struct {
	alloc.Handle
	tr *tracer
}

func (x tracedHandle) Alloc(size uint64) (alloc.Ptr, error) {
	x.tr.enter(spanCoreAlloc)
	defer x.tr.exit()
	return x.Handle.Alloc(size)
}

func (x tracedHandle) Free(p alloc.Ptr) error {
	x.tr.enter(spanCoreFree)
	defer x.tr.exit()
	return x.Handle.Free(p)
}

func (x tracedHandle) Write(p alloc.Ptr, off uint64, b []byte) error {
	x.tr.enter(spanCoreAccess)
	defer x.tr.exit()
	return x.Handle.Write(p, off, b)
}

func (x tracedHandle) Read(p alloc.Ptr, off uint64, b []byte) error {
	x.tr.enter(spanCoreAccess)
	defer x.tr.exit()
	return x.Handle.Read(p, off, b)
}

func (x tracedHandle) WriteU64(p alloc.Ptr, off uint64, v uint64) error {
	x.tr.enter(spanCoreAccess)
	defer x.tr.exit()
	return x.Handle.WriteU64(p, off, v)
}

func (x tracedHandle) ReadU64(p alloc.Ptr, off uint64) (uint64, error) {
	x.tr.enter(spanCoreAccess)
	defer x.tr.exit()
	return x.Handle.ReadU64(p, off)
}

func (x tracedHandle) Persist(p alloc.Ptr, off, n uint64) error {
	x.tr.enter(spanCoreAccess)
	defer x.tr.exit()
	return x.Handle.Persist(p, off, n)
}

// index is what the YCSB workload calls on a *fastfair.Tree.
type index interface {
	Search(h alloc.Handle, key uint64) (uint64, bool, error)
	Update(h alloc.Handle, key, val uint64) (uint64, bool, error)
	Insert(h alloc.Handle, key, val uint64) error
}

type tracedIndex struct {
	index
	tr *tracer
}

func (x tracedIndex) Search(h alloc.Handle, key uint64) (uint64, bool, error) {
	x.tr.enter(spanFFSearch)
	defer x.tr.exit()
	return x.index.Search(h, key)
}

func (x tracedIndex) Update(h alloc.Handle, key, val uint64) (uint64, bool, error) {
	x.tr.enter(spanFFUpdate)
	defer x.tr.exit()
	return x.index.Update(h, key, val)
}

func (x tracedIndex) Insert(h alloc.Handle, key, val uint64) error {
	x.tr.enter(spanFFInsert)
	defer x.tr.exit()
	return x.index.Insert(h, key, val)
}
