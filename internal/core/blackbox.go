package core

// Heap-side glue for the black-box flight recorder: a crash-surviving,
// checksummed ring in the heap image (internal/plog/blackbox.go) into which
// the DRAM event journal and a sampled stream of op spans are mirrored.
//
// Hot-path discipline: MirrorEvent only stages the record in DRAM under
// bbMu — no device I/O, no re-entrant Emit — and device publishes happen at
// commit points (a staged batch reaching bbBatch, a watchdog tick, Close,
// an explicit FlushBlackbox). A publish assigns each staged record its ring
// sequence, writes the sequence-congruent slots, then seals the whole batch
// with one flush pass over the written range (at most two contiguous spans
// when the batch wraps) and a single fence. No header write per publish:
// every record is individually self-checksummed, so replay validates slots
// independently and a crash mid-batch loses only the unsealed tail.
//
// Publish paths deliberately avoid Heap.retry: its success path emits
// EventTransientRetry, which would re-enter MirrorEvent under bbMu. A failed
// publish simply leaves the records staged for the next commit point.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
)

const (
	// bbStageCap bounds the DRAM staging buffer; when full the oldest
	// staged record is dropped (and counted) rather than blocking an
	// emitter.
	bbStageCap = 512
	// bbBatch is the staged-record count that triggers an inline publish
	// from MirrorEvent; smaller batches wait for the next watchdog tick or
	// explicit flush.
	bbBatch = 8
	// bbSpanBatch caps the sampled spans folded into one publish, so a hot
	// tracer cannot crowd events out of the ring.
	bbSpanBatch = 32
)

// BlackboxEntry is one reconstructed timeline entry — the human/JSON view
// of a plog.BoxRecord.
type BlackboxEntry struct {
	Seq     uint64
	Time    time.Time
	Type    string // "event", "span" or "stall"
	Kind    string // event kind or op name
	Subheap int    // -1 when not sub-heap scoped
	Lane    int    // span lane, -1 otherwise
	DurNS   int64  `json:",omitempty"` // span duration
	Flushes uint64 `json:",omitempty"` // cachelines flushed inside the span
	Fences  uint64 `json:",omitempty"`
	Detail  string `json:",omitempty"`
}

// MirrorEvent implements obs.EventMirror: every journal event is staged for
// the persistent ring. DRAM-only; see the package comment for the publish
// discipline.
func (h *Heap) MirrorEvent(e obs.Event) {
	if !h.lay.boxArena().Valid() {
		return
	}
	rec := plog.BoxRecord{
		Type:    plog.BoxEvent,
		Kind:    uint8(e.Kind),
		Subheap: int32(e.Subheap),
		Lane:    -1,
		WallNS:  e.At.UnixNano(),
		Detail:  e.Detail,
	}
	h.bbMu.Lock()
	h.stageLocked(rec)
	if h.bbOn && len(h.bbStaged) >= bbBatch {
		_ = h.publishLocked()
	}
	h.bbMu.Unlock()
}

// stageLocked appends one record to the staging buffer, dropping (and
// counting) the oldest when full. Caller holds bbMu.
func (h *Heap) stageLocked(rec plog.BoxRecord) {
	if len(h.bbStaged) >= bbStageCap {
		copy(h.bbStaged, h.bbStaged[1:])
		h.bbStaged = h.bbStaged[:bbStageCap-1]
		h.bbDropped.Add(1)
	}
	h.bbStaged = append(h.bbStaged, rec)
}

// stageSpansLocked pulls the tracer spans recorded since the last publish
// into the staging buffer (newest bbSpanBatch of them). Caller holds bbMu.
func (h *Heap) stageSpansLocked() {
	spans := h.tel.Tracer().SpansSince(h.bbSpanSeq)
	if len(spans) == 0 {
		return
	}
	h.bbSpanSeq = spans[len(spans)-1].Seq + 1
	if drop := len(spans) - bbSpanBatch; drop > 0 {
		h.bbDropped.Add(uint64(drop))
		spans = spans[drop:]
	}
	for _, sp := range spans {
		h.stageLocked(plog.BoxRecord{
			Type:    plog.BoxSpan,
			Kind:    uint8(sp.Op),
			Subheap: int32(sp.Subheap),
			Lane:    int32(sp.Lane),
			WallNS:  sp.StartNS,
			DurNS:   sp.DurNS,
			Aux0:    sp.Flushes,
			Aux1:    sp.Fences,
			Detail:  sp.Err,
		})
	}
}

// publishLocked writes every staged record into the ring and seals the
// batch with one flush pass and a single fence. On error the records stay
// staged (a retry re-assigns the same sequences, so partially-written slots
// are simply overwritten). Caller holds bbMu with bbOn set.
func (h *Heap) publishLocked() error {
	h.stageSpansLocked()
	if len(h.bbStaged) == 0 {
		return nil
	}
	arena := h.lay.boxArena()
	capR := arena.Capacity()
	batch := h.bbStaged
	if uint64(len(batch)) > capR {
		// More staged than the whole ring holds: publishing the oldest
		// would be immediately overwritten by the newest in this same
		// batch. Keep the newest ringful.
		drop := uint64(len(batch)) - capR
		h.bbDropped.Add(drop)
		batch = batch[drop:]
	}
	h.grant(h.bbThread)
	defer h.revoke(h.bbThread)
	w := h.bbWin
	for i := range batch {
		batch[i].Seq = h.bbSeq + uint64(i)
		buf := plog.EncodeBoxRecord(batch[i])
		if err := w.Write(arena.SlotOff(batch[i].Seq), buf[:]); err != nil {
			return err
		}
	}
	// The written slots form at most two contiguous spans (one wrap).
	n := uint64(len(batch))
	first := n
	if start := h.bbSeq % capR; start+n > capR {
		first = capR - start
	}
	if err := w.Flush(arena.SlotOff(h.bbSeq), first*plog.BoxRecordSize); err != nil {
		return err
	}
	if first < n {
		if err := w.Flush(arena.RecordsOff(), (n-first)*plog.BoxRecordSize); err != nil {
			return err
		}
	}
	w.Fence()
	h.bbSeq += n
	h.bbPublished.Add(n)
	h.bbStaged = h.bbStaged[:0]
	return nil
}

// writeBoxHeaderLocked writes the next header generation (best-effort — a
// failed write leaves the previous generation valid). Caller holds bbMu.
func (h *Heap) writeBoxHeaderLocked() {
	var p [16]byte
	binary.LittleEndian.PutUint64(p[0:], h.bbEpoch)
	binary.LittleEndian.PutUint64(p[8:], h.bbSeq)
	h.grant(h.bbThread)
	defer h.revoke(h.bbThread)
	if h.lay.boxArena().Header().Write(h.bbWin, h.bbHdrGen, p[:], new([]byte)) == nil {
		h.bbHdrGen++
	}
}

// initBlackboxFresh arms the recorder on a just-formatted image: boot epoch
// 1, generation-1 header. Called single-threaded from Create.
func (h *Heap) initBlackboxFresh() {
	if !h.lay.boxArena().Valid() {
		return
	}
	h.bbMu.Lock()
	defer h.bbMu.Unlock()
	h.bbEpoch = 1
	h.bbHdrGen = 1
	h.bbOn = true
	h.writeBoxHeaderLocked()
}

// loadBlackbox replays the persistent ring after recovery: the newest valid
// header generation is adopted (bumping the boot epoch past it), every
// record slot is validated independently, and the recorder resumes past the
// highest surviving sequence. Never fails the load and never quarantines
// anything — a torn header or ring degrades to exactly one EventBlackboxTorn
// journal event.
func (h *Heap) loadBlackbox() {
	if !h.lay.boxArena().Valid() {
		return
	}
	msg := h.loadBlackboxLocked()
	if msg != "" {
		// Outside bbMu: Emit re-enters MirrorEvent.
		h.tel.Emit(obs.EventBlackboxTorn, -1, msg)
	}
}

// loadBlackboxLocked is the bbMu-holding body of loadBlackbox; it returns
// the torn-state description to journal (empty when the image was clean).
func (h *Heap) loadBlackboxLocked() string {
	h.bbMu.Lock()
	defer h.bbMu.Unlock()
	arena := h.lay.boxArena()

	gen, hdr, hdrTorn := arena.Header().Read(h.bbRead)

	region := make([]byte, arena.Capacity()*plog.BoxRecordSize)
	if err := h.bbRead(arena.RecordsOff(), region); err != nil {
		// Unreadable ring: run DRAM-only this boot rather than risk
		// publishing over bytes we could not inspect.
		return fmt.Sprintf("black-box ring unreadable: %v; recorder disabled this boot", err)
	}
	recs, torn := plog.ReplayBox(region, arena.Capacity())
	h.bbRecovered = recs
	h.bbTorn.Add(uint64(torn))

	h.bbSeq = 0
	if len(recs) > 0 {
		h.bbSeq = recs[len(recs)-1].Seq + 1
	}
	// Without a valid header (fresh pre-recorder arena, or both slots
	// torn) the epoch restarts but writing resumes after the surviving
	// records.
	h.bbEpoch, h.bbHdrGen = 1, gen+1
	if len(hdr) == 16 {
		h.bbEpoch = binary.LittleEndian.Uint64(hdr) + 1
		h.bbSeq = max(h.bbSeq, binary.LittleEndian.Uint64(hdr[8:]))
	}
	h.bbOn = true
	h.writeBoxHeaderLocked()

	switch {
	case hdrTorn && torn > 0:
		return fmt.Sprintf("black-box torn: no valid header slot, %d torn record slots; %d records survive", torn, len(recs))
	case hdrTorn:
		return fmt.Sprintf("black-box header torn: no valid slot; %d records survive", len(recs))
	case torn > 0:
		return fmt.Sprintf("black-box tail torn: %d record slots failed validation; %d records survive", torn, len(recs))
	}
	return ""
}

// bbRead reads a device range with bounded transient-fault retries that —
// unlike Heap.retry — never emit a journal event (loadBlackbox and timeline
// reads run under bbMu).
func (h *Heap) bbRead(off uint64, buf []byte) error {
	_, err := nvm.Retry(func() error { return h.bbWin.Read(off, buf) })
	return err
}

// FlushBlackbox publishes every staged record to the persistent ring — the
// commit point tools call before saving an image, and the watchdog's
// background pace. No-op (nil) on heaps without an arena.
func (h *Heap) FlushBlackbox() error {
	h.bbMu.Lock()
	defer h.bbMu.Unlock()
	if !h.bbOn {
		return nil
	}
	return h.publishLocked()
}

// sealBlackbox writes a clean-close header generation (best-effort).
func (h *Heap) sealBlackbox() {
	h.bbMu.Lock()
	defer h.bbMu.Unlock()
	if !h.bbOn {
		return
	}
	h.writeBoxHeaderLocked()
}

// BlackboxTimeline reconstructs the merged timeline (events + spans +
// stalls, ascending sequence order) from the persistent ring. On a live
// heap staged records are published first (best-effort); on an Attach-mode
// heap (poseidon-fsck, poseidon-inspect) the crashed image is replayed
// read-only. Returns nil on images without an arena.
func (h *Heap) BlackboxTimeline() ([]BlackboxEntry, error) {
	arena := h.lay.boxArena()
	if !arena.Valid() {
		return nil, nil
	}
	h.bbMu.Lock()
	if h.bbOn {
		_ = h.publishLocked()
	}
	region := make([]byte, arena.Capacity()*plog.BoxRecordSize)
	err := h.bbRead(arena.RecordsOff(), region)
	h.bbMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("poseidon: black-box ring read: %w", err)
	}
	recs, _ := plog.ReplayBox(region, arena.Capacity())
	out := make([]BlackboxEntry, 0, len(recs))
	for _, r := range recs {
		out = append(out, boxEntry(r))
	}
	return out, nil
}

// BlackboxJSON renders the timeline as JSON — the /debug/blackbox payload.
func (h *Heap) BlackboxJSON() ([]byte, error) {
	tl, err := h.BlackboxTimeline()
	if err != nil {
		return nil, err
	}
	epoch, _, _ := h.bbState()
	return json.MarshalIndent(struct {
		HeapID   uint64
		Epoch    uint64
		Entries  int
		Timeline []BlackboxEntry
	}{h.heapID, epoch, len(tl), tl}, "", "  ")
}

// bbState reads the recorder's boot epoch, next sequence and armed flag
// under bbMu.
func (h *Heap) bbState() (epoch, nextSeq uint64, on bool) {
	h.bbMu.Lock()
	defer h.bbMu.Unlock()
	return h.bbEpoch, h.bbSeq, h.bbOn
}

// boxEntry converts one decoded record to its timeline view. Stall events
// get their own entry type so a post-mortem reader can grep for them.
func boxEntry(r plog.BoxRecord) BlackboxEntry {
	e := BlackboxEntry{
		Seq:     r.Seq,
		Time:    time.Unix(0, r.WallNS),
		Subheap: int(r.Subheap),
		Lane:    int(r.Lane),
		DurNS:   r.DurNS,
		Flushes: r.Aux0,
		Fences:  r.Aux1,
		Detail:  r.Detail,
	}
	switch r.Type {
	case plog.BoxSpan:
		e.Type = "span"
		e.Kind = obs.Op(r.Kind).String()
	default:
		e.Type = "event"
		if obs.EventKind(r.Kind) == obs.EventStall {
			e.Type = "stall"
		}
		e.Kind = obs.EventKind(r.Kind).String()
	}
	return e
}
