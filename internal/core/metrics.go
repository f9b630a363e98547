package core

import (
	"time"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

// DeviceStats returns the device's flat operation counters. Enabled is
// false (and every counter zero) when the heap was created without
// Options.DeviceStats or Options.Telemetry.
func (h *Heap) DeviceStats() nvm.StatsSnapshot { return h.dev.StatsSnapshot() }

// Telemetry returns the registry the heap was created with, nil when the
// heap runs without Options.Telemetry. The obs recording methods are
// nil-safe, so callers may use the result unconditionally.
func (h *Heap) Telemetry() *obs.Telemetry { return h.tel }

// Metrics assembles the full telemetry snapshot: latency histograms,
// per-class device attribution and the event journal from the obs registry,
// plus the core-owned layers — lifetime counters, per-sub-heap occupancy
// gauges and the device's flat stats. Safe for concurrent use and without
// telemetry (the histogram/attribution/gauge sections are then empty, but
// counters and device stats still fill in).
func (h *Heap) Metrics() *obs.Snapshot {
	snap := h.tel.Snapshot() // nil-safe: empty timestamped snapshot

	st := h.Stats()
	snap.Counters = map[string]uint64{
		"allocs":               st.Allocs,
		"tx_allocs":            st.TxAllocs,
		"frees":                st.Frees,
		"defrag_merges":        st.DefragMerges,
		"invalid_frees":        st.InvalidFrees,
		"double_frees":         st.DoubleFrees,
		"recovered_blocks":     st.RecoveredBlocks,
		"recovered_noops":      st.RecoveredNoops,
		"magazine_hits":        st.MagazineHits,
		"magazine_misses":      st.MagazineMisses,
		"magazine_refills":     st.MagazineRefills,
		"magazine_flushes":     st.MagazineFlushes,
		"recovered_cached":     st.RecoveredCached,
		"permission_switches":  st.PermissionSwitches,
		"quarantined_subheaps": st.QuarantinedSubheaps,
		"quarantined_bytes":    st.QuarantinedBytes,
		"transient_retries":    st.TransientRetries,
		"repaired_subheaps":    st.RepairedSubheaps,
		"repaired_bytes":       st.RepairedBytes,
		"mirror_restores":      st.MirrorRestores,
	}

	hs := h.Health()
	snap.Health = &obs.HealthStatus{
		State:    hs.String(),
		Code:     int32(hs),
		ReadOnly: hs == StateReadOnly,
		Detail:   h.healthDetail(),
	}

	if h.tel != nil {
		snap.Subheaps = h.subheapGaugeList()
	}

	bi := obs.CollectBuildInfo()
	snap.Build = &bi
	epoch, nextSeq, bbOn := h.bbState()
	snap.Runtime = &obs.RuntimeStatus{
		BootEpoch:     epoch,
		UptimeSeconds: time.Since(h.openedAt).Seconds(),
	}
	if h.wd != nil {
		ts := h.tap.Snapshot()
		snap.Watchdog = &obs.WatchdogStats{
			Enabled:          true,
			StallThresholdNS: h.wd.threshold.Nanoseconds(),
			Stalls:           h.stallsTotal.Load(),
			FlushOutliers:    ts.FlushOutliers,
			FenceOutliers:    ts.FenceOutliers,
			FlushMaxNS:       ts.FlushMaxNS,
			FenceMaxNS:       ts.FenceMaxNS,
		}
	}
	snap.Blackbox = &obs.BlackboxStats{
		Enabled:         bbOn,
		CapacityRecords: h.lay.boxArena().Capacity(),
		Persisted:       h.bbPublished.Load(),
		Dropped:         h.bbDropped.Load(),
		Torn:            h.bbTorn.Load(),
		Epoch:           epoch,
		NextSeq:         nextSeq,
	}

	ds := h.dev.StatsSnapshot()
	snap.Device = obs.DeviceStats{
		StatsEnabled:  ds.Enabled,
		Writes:        ds.Writes,
		BytesWritten:  ds.BytesWritten,
		Flushes:       ds.Flushes,
		Fences:        ds.Fences,
		CapacityBytes: h.dev.Capacity(),
		ResidentBytes: h.dev.ResidentBytes(),
	}
	return snap
}

// subheapGaugeList reads every sub-heap's DRAM occupancy gauges without
// taking sub-heap locks: the gauges are atomics and a formatted sub-heap
// always holds at least one record, so "initialized" is derivable from the
// counts themselves. Values are instantaneous and may be mid-operation.
func (h *Heap) subheapGaugeList() []obs.SubheapGauge {
	out := make([]obs.SubheapGauge, 0, len(h.subheaps))
	for _, s := range h.subheaps {
		g := obs.SubheapGauge{ID: s.id}
		if s.isQuarantined() {
			g.Quarantined = true
			g.QuarantineReason = s.quarantineReason()
			out = append(out, g)
			continue
		}
		if s.gauge == nil {
			out = append(out, g)
			continue
		}
		geo := s.mgr.Geometry()
		g.AllocatedBlocks = clampU64(s.gauge.allocBlocks.Load())
		g.AllocatedBytes = clampU64(s.gauge.allocBytes.Load())
		for c := range s.gauge.freeByClass {
			n := clampU64(s.gauge.freeByClass[c].Load())
			if n == 0 {
				continue
			}
			size := geo.ClassSize(c)
			g.FreeBlocks += n
			g.FreeBytes += n * size
			if size > g.LargestFreeBytes {
				g.LargestFreeBytes = size
			}
		}
		g.Initialized = g.AllocatedBlocks+g.FreeBlocks > 0
		if g.FreeBytes > 0 {
			g.Fragmentation = 1 - float64(g.LargestFreeBytes)/float64(g.FreeBytes)
		}
		out = append(out, g)
	}
	return out
}

// clampU64 converts a gauge delta to uint64, flooring transient negative
// readings (a scrape can land between the two halves of a split update).
func clampU64(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}
