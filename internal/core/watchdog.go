package core

// Stall watchdog: a background goroutine that detects sub-heap operations
// holding their lock past Options.Watchdog.StallThreshold. Every holder of
// a sub-heap lock takes it through one envelope (subheap.lock/unlock),
// which publishes hold-start metadata in per-sub-heap atomics — op kind
// first, then a fresh token, then the start timestamp LAST, so a scanner
// that observes a non-zero timestamp sees a consistent op/token pair.
// Each detected stall is journalled once (EventStall, de-duplicated per
// lock acquisition by token), mirrored into the black box, and counted
// into poseidon_stalls_total. Every tick also publishes staged black-box
// records, so the ring stays near-current even on an idle heap.

import (
	"fmt"
	"sync"
	"time"

	"poseidon/internal/obs"
)

type watchdog struct {
	threshold time.Duration
	interval  time.Duration
	stop      chan struct{}
	done      chan struct{}
	halted    sync.Once
	// lastToken de-duplicates reports: one EventStall per stalled lock
	// acquisition per sub-heap, no matter how many ticks it stays stalled.
	// Touched only by the watchdog goroutine.
	lastToken []uint64
}

// startWatchdog launches the watchdog goroutine when configured, scanning
// every StallThreshold/4 (at least every millisecond). Called
// single-threaded from Create/Load before the heap is shared, so the
// envelope's h.wd nil check never races a write.
func (h *Heap) startWatchdog() {
	if h.opts.Watchdog.StallThreshold <= 0 || h.tel == nil {
		return
	}
	w := &watchdog{
		threshold: h.opts.Watchdog.StallThreshold,
		interval:  max(h.opts.Watchdog.StallThreshold/4, time.Millisecond),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		lastToken: make([]uint64, len(h.subheaps)),
	}
	h.wd = w
	go h.watchdogLoop(w)
}

// stopWatchdog halts the goroutine (idempotent) and waits for it. h.wd
// stays set so the envelope keeps its histograms without a racy nil-out.
func (h *Heap) stopWatchdog() {
	w := h.wd
	if w == nil {
		return
	}
	w.halted.Do(func() {
		close(w.stop)
		<-w.done
	})
}

func (h *Heap) watchdogLoop(w *watchdog) {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			// Final drain so records staged after the last tick reach the
			// ring before Close seals the header.
			_ = h.FlushBlackbox()
			return
		case <-t.C:
			h.watchdogScan(w)
			_ = h.FlushBlackbox()
		}
	}
}

// watchdogScan checks every sub-heap's hold-start atomics for an operation
// past the deadline.
func (h *Heap) watchdogScan(w *watchdog) {
	now := time.Now().UnixNano()
	for i, s := range h.subheaps {
		since := s.wdSince.Load()
		if since == 0 {
			continue
		}
		held := time.Duration(now - since)
		if held < w.threshold {
			continue
		}
		// wdSince was stored last, so op/token loaded now are the ones
		// belonging to this acquisition (or a newer one, which is also
		// stalled-or-fine on its own clock and will be re-checked).
		token := s.wdToken.Load()
		if token == w.lastToken[i] {
			continue // this stall is already on record
		}
		w.lastToken[i] = token
		op := obs.Op(s.wdOp.Load())
		h.stallsTotal.Add(1)
		h.tel.Emit(obs.EventStall, i, fmt.Sprintf(
			"op %s holding sub-heap %d lock for %s (threshold %s)",
			op, i, held.Round(time.Millisecond), w.threshold))
	}
}

// InjectStall arms a one-shot test failpoint: the next operation to take
// the given sub-heap's lock — any of them, since all take it through one
// envelope: alloc, free, refill, audit, defragmentation, trim, repair,
// recovery, lookup or mirror refresh — sleeps for d while holding it, long
// enough for the watchdog to observe a stall. Errors when the sub-heap does
// not exist; a heap without a watchdog ignores the armed value.
func (h *Heap) InjectStall(shard int, d time.Duration) error {
	if shard < 0 || shard >= len(h.subheaps) {
		return fmt.Errorf("poseidon: no sub-heap %d", shard)
	}
	h.subheaps[shard].stallInject.Store(d.Nanoseconds())
	return nil
}
