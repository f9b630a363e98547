package obs

import (
	"sort"
	"time"

	"poseidon/internal/nvm"
)

// OpStats is the merged latency view of one operation class.
type OpStats struct {
	Op      string
	Count   uint64
	TotalNS uint64
	MeanNS  uint64
	P50NS   uint64
	P95NS   uint64
	P99NS   uint64
	MaxNS   uint64
}

// ClassAttr is one operation class's share of device persistence traffic,
// with per-operation amplification ratios where an operation count exists.
type ClassAttr struct {
	Class        string
	Ops          uint64 // operations recorded for the class, 0 if untracked
	Writes       uint64
	BytesWritten uint64
	Flushes      uint64
	Fences       uint64
	WritesPerOp  float64 `json:",omitempty"`
	BytesPerOp   float64 `json:",omitempty"`
	FlushesPerOp float64 `json:",omitempty"`
	FencesPerOp  float64 `json:",omitempty"`
}

// SubheapGauge is the live state of one sub-heap. Filled by core.
type SubheapGauge struct {
	ID               int
	Initialized      bool
	Quarantined      bool
	QuarantineReason string `json:",omitempty"`
	AllocatedBlocks  uint64
	AllocatedBytes   uint64
	FreeBlocks       uint64
	FreeBytes        uint64
	LargestFreeBytes uint64
	// Fragmentation is 1 - largest-free-block/free-bytes: 0 when all free
	// space is one block, approaching 1 as it shatters.
	Fragmentation float64
}

// DeviceStats is the device-level view (flat counters + capacity gauges).
// Filled by core from nvm.StatsSnapshot.
type DeviceStats struct {
	StatsEnabled  bool
	Writes        uint64
	BytesWritten  uint64
	Flushes       uint64
	Fences        uint64
	CapacityBytes uint64
	ResidentBytes int64
}

// HealthStatus is the heap's health state machine position. Filled by core.
type HealthStatus struct {
	// State is the textual state: healthy, degraded, read-only, failed.
	State string
	// Code is the numeric state (0 healthy, 1 degraded, 2 read-only,
	// 3 failed), monotone in severity so alerting can threshold on it.
	Code int32
	// ReadOnly reports whether mutating operations are currently rejected.
	ReadOnly bool
	// Detail summarises why the heap is not healthy, empty when it is.
	Detail string `json:",omitempty"`
}

// EventsSnapshot summarises the journal. Dropped == Overwritten: events the
// fixed ring displaced before anyone read them (the journal-saturation
// signal; a quiet heap has 0, a saturated one climbs).
type EventsSnapshot struct {
	Emitted     uint64
	Overwritten uint64
	Dropped     uint64
	ByKind      map[string]uint64
	Recent      []Event
}

// Snapshot is the full telemetry state at one instant: what /metrics,
// the JSON endpoint, Heap.Metrics() and poseidon-inspect -stats all render.
type Snapshot struct {
	TakenAt     time.Time
	Ops         []OpStats
	Attribution []ClassAttr
	// Counters are the heap's flat lifetime counters (core.HeapStats
	// flattened by name). Filled by core.
	Counters map[string]uint64 `json:",omitempty"`
	Subheaps []SubheapGauge    `json:",omitempty"`
	Health   *HealthStatus     `json:",omitempty"`
	Device   DeviceStats
	Events   EventsSnapshot
	Profile  *ProfileStats `json:",omitempty"`
	Trace    *TracerStats  `json:",omitempty"`
	// Build, Runtime, Watchdog and Blackbox are filled by core (Heap.Metrics):
	// build identity, boot epoch/uptime, stall-watchdog counters and the
	// persistent flight recorder's state.
	Build    *BuildInfo     `json:",omitempty"`
	Runtime  *RuntimeStatus `json:",omitempty"`
	Watchdog *WatchdogStats `json:",omitempty"`
	Blackbox *BlackboxStats `json:",omitempty"`
}

// Snapshot merges every histogram shard, the attribution table and the
// journal into a self-contained view. Core layers (heap gauges, device
// stats, lifetime counters) are filled in by the caller. Nil-safe: a nil
// Telemetry yields an empty timestamped snapshot.
func (t *Telemetry) Snapshot() *Snapshot {
	snap := &Snapshot{TakenAt: time.Now()}
	if t == nil {
		return snap
	}

	opCount := map[nvm.OpClass]uint64{}
	for op := Op(0); op < NumOps; op++ {
		h := t.hists[op].Snapshot()
		snap.Ops = append(snap.Ops, OpStats{
			Op:      op.String(),
			Count:   h.Count,
			TotalNS: h.Sum,
			MeanNS:  h.Mean(),
			P50NS:   h.Quantile(0.50),
			P95NS:   h.Quantile(0.95),
			P99NS:   h.Quantile(0.99),
			MaxNS:   h.Max,
		})
		if c := attrClassOf[op]; c < nvm.NumClasses {
			opCount[c] += h.Count
		}
	}

	attr := t.attr.Snapshot()
	for c := nvm.OpClass(0); c < nvm.NumClasses; c++ {
		cc := attr[c]
		ca := ClassAttr{
			Class:        c.String(),
			Ops:          opCount[c],
			Writes:       cc.Writes,
			BytesWritten: cc.BytesWritten,
			Flushes:      cc.Flushes,
			Fences:       cc.Fences,
		}
		if ca.Ops > 0 {
			n := float64(ca.Ops)
			ca.WritesPerOp = float64(cc.Writes) / n
			ca.BytesPerOp = float64(cc.BytesWritten) / n
			ca.FlushesPerOp = float64(cc.Flushes) / n
			ca.FencesPerOp = float64(cc.Fences) / n
		}
		snap.Attribution = append(snap.Attribution, ca)
	}

	snap.Events = EventsSnapshot{
		Emitted:     t.journal.Emitted(),
		Overwritten: t.journal.Overwritten(),
		ByKind:      map[string]uint64{},
		Recent:      t.journal.Events(),
	}
	snap.Events.Dropped = snap.Events.Overwritten
	for k := EventKind(0); k < NumEventKinds; k++ {
		if n := t.journal.KindCount(k); n > 0 {
			snap.Events.ByKind[k.String()] = n
		}
	}
	if t.prof != nil {
		ps := t.prof.Stats()
		snap.Profile = &ps
	}
	if t.tracer != nil {
		ts := t.tracer.Stats()
		snap.Trace = &ts
	}
	return snap
}

// CounterNames returns the snapshot's counter names, sorted, for
// deterministic exposition.
func (s *Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
