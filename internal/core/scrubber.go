package core

import (
	"fmt"
	"time"

	"poseidon/internal/obs"
)

// Online scrubber: the runtime arm of degrade-don't-die. ScrubOnLoad only
// catches corruption present at load; media faults accumulate while the
// heap runs. The scrubber audits one sub-heap at a time with the same fsck
// engine, under that sub-heap's own lock — foreground traffic on every
// other sub-heap proceeds, and traffic on the audited one just waits out
// one audit slice. A failed audit quarantines the sub-heap and immediately
// attempts a Repair, so a corruption whose mirror survived heals without
// operator involvement.

// startScrubber launches the background scrubber when Options.OnlineScrub
// is enabled. Raw-attached heaps never scrub (fsck -raw must observe the
// image untouched).
func (h *Heap) startScrubber() {
	if h.opts.OnlineScrub.Interval <= 0 || h.rawAttach {
		return
	}
	h.scrubStop = make(chan struct{})
	h.scrubDone = make(chan struct{})
	go h.scrubLoop(h.scrubStop, h.scrubDone)
}

// scrubLoop runs full scrub passes separated by Options.OnlineScrub.Interval
// until stop closes.
func (h *Heap) scrubLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	interval := h.opts.OnlineScrub.Interval
	timer := time.NewTimer(interval)
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		for _, s := range h.subheaps {
			select {
			case <-stop:
				return
			default:
			}
			if err := h.scrubSubheap(s); err != nil {
				// Device-level failure: stop scrubbing, the heap is dying in
				// a way audits cannot fix. Foreground ops surface their own
				// errors.
				h.tel.Emit(obs.EventScrubFinding, s.id,
					fmt.Sprintf("online scrub aborted: %v", err))
				return
			}
		}
		timer.Reset(interval)
	}
}

// ScrubPass synchronously audits every in-service sub-heap once — the
// deterministic form of the background scrubber, for tests and tools.
// Returns the first device-level error; audit findings quarantine (and
// auto-repair) without failing the pass.
func (h *Heap) ScrubPass() error {
	if h.closed.Load() {
		return ErrClosed
	}
	for _, s := range h.subheaps {
		if err := h.scrubSubheap(s); err != nil {
			return fmt.Errorf("sub-heap %d scrub: %w", s.id, err)
		}
	}
	return nil
}

// scrubSubheap audits one in-service sub-heap; on a failed audit it
// quarantines and immediately attempts repair. Errors returned are
// device-level (the audit could not run); corruption is handled, not
// returned.
func (h *Heap) scrubSubheap(s *subheap) error {
	if s.isQuarantined() {
		return nil
	}
	quarantined, err := h.auditSubheap(s, sampleLatency)
	if quarantined {
		// Self-heal: the repair emits its own journal events and, on
		// failure, leaves the sub-heap quarantined with the audit's reason
		// intact.
		_ = h.Repair(s.id)
	}
	return err
}

// auditSubheap audits one in-service sub-heap with the fsck engine and
// quarantines it when the audit fails or cannot finish, reporting whether
// it did: the one audit step of ScrubOnLoad, ScrubPass and the online
// scrubber. take is what each audit's envelope records. Only device-level
// errors are returned.
func (h *Heap) auditSubheap(s *subheap, take samples) (quarantined bool, err error) {
	var sub SubheapReport
	err = h.retry(func() (e error) {
		sub, e = s.check(nil, take)
		return e
	})
	switch {
	case err == nil && len(sub.Problems) == 0:
		return false, nil
	case err == nil:
		h.tel.Emit(obs.EventScrubFinding, s.id, fmt.Sprintf(
			"%d problems, first: %s", len(sub.Problems), sub.Problems[0]))
		s.quarantine(fmt.Sprintf("audit failed: %s (%d problems)",
			sub.Problems[0], len(sub.Problems)))
	case quarantinable(err):
		s.quarantine(fmt.Sprintf("audit aborted: %v", err))
	default:
		return false, err
	}
	return true, nil
}
