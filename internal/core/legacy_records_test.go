package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
)

// parentRecordSum is the checksum the parent format's site-table and
// black-box headers carried: FNV-1a seeded with seq, splitmix64 finalizer.
func parentRecordSum(seq uint64, b []byte) uint64 {
	h := uint64(0xCBF29CE484222325) ^ seq*0x9E3779B97F4A7C15
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001B3
	}
	h += 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

// parentWords encodes little-endian words.
func parentWords(words ...uint64) []byte {
	var b []byte
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// rewriteRecordsParent rewrites an image's three double-buffered records
// in the layouts the parent format used, from their current contents: each
// sub-heap's mirror as PSMIRROR word slots, the profile side-table as a
// POSSITES header with its payload at +128, and the black-box header as
// two POSBLBOX slots. The black-box record ring is left as it is.
func rewriteRecordsParent(t *testing.T, h *Heap) {
	t.Helper()
	dev := h.Device()
	put := func(off uint64, b []byte) {
		t.Helper()
		if err := dev.Write(off, b); err != nil {
			t.Fatal(err)
		}
		if err := dev.Flush(off, uint64(len(b))); err != nil {
			t.Fatal(err)
		}
	}

	for _, s := range h.subheaps {
		s.mu.Lock()
		_, img := s.loadMirrorLocked()
		s.mu.Unlock()
		if img == nil {
			t.Fatalf("sub-heap %d has no mirror to rewrite", s.id)
		}
		put(s.base+shMirrorOff, make([]byte, 2*shMirrorSlotSize))
		for seq := uint64(1); seq <= 2; seq++ {
			words := []uint64{0x524f5252494d5350, seq, uint64(img.levels), uint64(len(img.lists))}
			for _, ht := range img.lists {
				words = append(words, ht[0], ht[1])
			}
			sum := uint64(0x9E3779B97F4A7C15)
			for _, w := range words {
				sum ^= w
				sum *= 0xFF51AFD7ED558CCD
				sum ^= sum >> 33
			}
			put(s.base+shMirrorOff+(seq%2)*shMirrorSlotSize, parentWords(append(words, sum)...))
		}
	}

	table := h.lay.profArena()
	gen, blob, _ := table.Read(h.profWin.Read)
	if gen == 0 {
		t.Fatal("no profile snapshot to rewrite")
	}
	epoch, sites := binary.LittleEndian.Uint64(blob), blob[8:]
	put(table.Base, make([]byte, h.lay.profSize))
	put(table.Base, parentWords(0x5345544953534F50, 1, uint64(len(sites)), parentRecordSum(1, sites), epoch))
	put(table.Base+128, sites)

	hdr := h.lay.boxArena().Header()
	_, p, _ := hdr.Read(h.bbRead)
	if len(p) != 16 {
		t.Fatal("no black-box header to rewrite")
	}
	for gen := uint64(1); gen <= 2; gen++ { // p: boot epoch, next record sequence
		slot := append(parentWords(0x584f424c42534f50, gen), p...)
		slot = append(slot, parentWords(parentRecordSum(gen, p))...)
		put(hdr.Off(int(gen-1)), append(slot, make([]byte, 24)...))
	}
	dev.Fence()
}

// TestParentFormatRecordsLoad loads an image whose mirrors, profile
// side-table and black-box header are in the parent's layouts: each reads
// as blank, so the load journals no profile reset, no torn black box and
// no quarantine, and the black-box records still replay. A corrupted
// primary header still repairs, by rebuild. One mirror refresh, one profile
// persist and Close then bring every record back in the current format.
func TestParentFormatRecordsLoad(t *testing.T) {
	h := newProfHeap(t, 1, 0)
	for i := range h.subheaps { // format every sub-heap, so each has a mirror
		th, err := h.ThreadOn(i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := th.Alloc(100); err != nil {
			t.Fatal(err)
		}
		th.Close()
	}
	for i := 0; i < 3; i++ {
		h.Telemetry().Emit(obs.EventScrubFinding, -1, fmt.Sprintf("before-rewrite-%d", i))
	}
	if err := h.PersistProfile(); err != nil {
		t.Fatal(err)
	}
	if err := h.FlushBlackbox(); err != nil {
		t.Fatal(err)
	}
	if err := h.SyncMirrors(); err != nil {
		t.Fatal(err)
	}
	rewriteRecordsParent(t, h)
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}

	h2, err := Load(h.Device(), profOptions(1, 0))
	if err != nil {
		t.Fatalf("Load parent-format records: %v", err)
	}
	events := h2.Telemetry().Snapshot().Events.ByKind
	for _, kind := range []string{"profile_reset", "blackbox_torn", "quarantine"} {
		if events[kind] != 0 {
			t.Fatalf("parent-format records journalled %d %s events", events[kind], kind)
		}
	}
	for _, s := range h2.subheaps {
		s.mu.Lock()
		gen, _ := s.loadMirrorLocked()
		s.mu.Unlock()
		if gen != 0 {
			t.Fatalf("sub-heap %d: parent-format mirror read as generation %d", s.id, gen)
		}
	}
	if got := h2.ProfileEpoch(); got != 1 || len(h2.Telemetry().Profiler().Sites()) != 0 {
		t.Fatalf("parent-format profile adopted: epoch %d, %d sites", got, len(h2.Telemetry().Profiler().Sites()))
	}
	requireServiceable(t, h2)
	auditHeap(t, h2)
	tl, err := h2.BlackboxTimeline()
	if err != nil {
		t.Fatal(err)
	}
	if got := countBoxEvents(tl, "scrub_finding"); got != 3 {
		t.Fatalf("replayed %d pre-rewrite black-box markers, want 3", got)
	}

	// Without a mirror the corrupted header heals by rebuild.
	if err := h2.Device().InjectBitFlip(freeAnchorOff(t, h2, 0), 6); err != nil {
		t.Fatal(err)
	}
	if err := h2.ScrubPass(); err != nil {
		t.Fatalf("ScrubPass: %v", err)
	}
	if st := h2.Stats(); st.RepairedSubheaps != 1 || st.MirrorRestores != 0 {
		t.Fatalf("repair: %d repaired, %d mirror restores; want 1 rebuild", st.RepairedSubheaps, st.MirrorRestores)
	}
	requireServiceable(t, h2)
	auditHeap(t, h2)

	if err := h2.SyncMirrors(); err != nil {
		t.Fatal(err)
	}
	th2 := newThread(t, h2)
	if _, err := th2.Alloc(100); err != nil {
		t.Fatal(err)
	}
	th2.Close()
	if err := h2.PersistProfile(); err != nil {
		t.Fatal(err)
	}
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}

	h3, err := Load(h2.Device(), profOptions(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Close()
	events = h3.Telemetry().Snapshot().Events.ByKind
	if events["profile_reset"] != 0 || events["blackbox_torn"] != 0 {
		t.Fatalf("current-format records journalled %d profile resets, %d torn black boxes", events["profile_reset"], events["blackbox_torn"])
	}
	for _, s := range h3.subheaps {
		s.mu.Lock()
		gen, img := s.loadMirrorLocked()
		s.mu.Unlock()
		if gen == 0 || img == nil {
			t.Fatalf("sub-heap %d: no current-format mirror after a refresh", s.id)
		}
	}
	if got := h3.ProfileEpoch(); got != 2 || len(h3.Telemetry().Profiler().Sites()) == 0 {
		t.Fatalf("profile after one persist: epoch %d, %d sites; want epoch 2 and its sites", got, len(h3.Telemetry().Profiler().Sites()))
	}
	if epoch, _, _ := h3.bbState(); epoch != 2 {
		t.Fatalf("black-box boot epoch %d, want 2", epoch)
	}
}
