package core

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"poseidon/internal/memblock"
	"poseidon/internal/nvm"
)

// Frees no longer write a sub-heap's remote-free ring region, but an image
// written with rings on may still hold entries the owner never drained.
// These tests craft such images: they write memblock.EncodeRingEntry words
// into a crashed image's ring region, the state a crash left behind when
// producers had persisted entries no drain consumed.

// ringWord is the entry a producer persisted to free the block p points at,
// displaced by extra bytes (a non-zero extra makes an interior pointer).
func ringWord(p NVMPtr, extra uint64) uint64 {
	return memblock.EncodeRingEntry(p.Offset()+extra, 0)
}

// writeRingWords persists words into sub-heap i's ring region, one per
// slot from slot 0.
func writeRingWords(t *testing.T, h *Heap, i int, words ...uint64) {
	t.Helper()
	for k, w := range words {
		if err := h.Device().PersistU64(h.lay.ringBase(i)+uint64(k)*memblock.RingSlotBytes, w); err != nil {
			t.Fatal(err)
		}
	}
}

// ringFixture is a two-sub-heap heap holding two committed TxAllocs, p and
// q, carved on sub-heap 0's locked path, and a block p1 on sub-heap 1.
type ringFixture struct {
	h        *Heap
	p, q, p1 NVMPtr
}

func newRingFixture(t *testing.T, opts Options) ringFixture {
	t.Helper()
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th0.Close()
	th1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	defer th1.Close()
	f := ringFixture{h: h}
	if f.p, err = th0.TxAlloc(128, true); err != nil {
		t.Fatal(err)
	}
	if f.q, err = th0.TxAlloc(128, true); err != nil {
		t.Fatal(err)
	}
	if f.p1, err = th1.Alloc(128); err != nil {
		t.Fatal(err)
	}
	return f
}

// crash writes words into sub-heap 0's ring region and cuts the power.
// With flip >= 0 it then flips a bit of slot flip's byte 7, which holds
// checksum bits only: InjectBitFlip corrupts both images, so this is media
// corruption, not a recoverable dirty store.
func (f ringFixture) crash(t *testing.T, flip int, words ...uint64) *nvm.Device {
	t.Helper()
	writeRingWords(t, f.h, 0, words...)
	dev := f.h.Device()
	if _, err := dev.Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	_ = f.h.Close()
	if flip >= 0 {
		if err := dev.InjectBitFlip(f.h.lay.ringBase(0)+uint64(flip)*memblock.RingSlotBytes+7, 3); err != nil {
			t.Fatal(err)
		}
	}
	return dev
}

// validWords are two entries for p (the second a double free) and one for
// an interior pointer into it.
func (f ringFixture) validWords() []uint64 {
	return []uint64{ringWord(f.p, 0), ringWord(f.p, 0), ringWord(f.p, 64)}
}

// damagedWords are q's entry, for crash to flip, and an entry whose
// offset lies past the user region. Neither may ever be replayed.
func (f ringFixture) damagedWords() []uint64 {
	g := f.h.subheaps[0].mgr.Geometry()
	return []uint64{ringWord(f.q, 0), memblock.EncodeRingEntry(g.UserSize+64, 0)}
}

// TestRemoteFreeCrashReplayIdempotent loads an image whose ring holds a
// double free and an interior-pointer free of one committed block, and
// verifies Load replays them idempotently: one real free, the rest counted
// rejects, and every slot cleared. A later cross-shard free of the block is
// rejected at the call.
func TestRemoteFreeCrashReplayIdempotent(t *testing.T) {
	f := newRingFixture(t, testOptions())
	h2, err := Load(f.crash(t, -1, f.validWords()...), testOptions())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer h2.Close()
	st := h2.Stats()
	if st.Frees != 1 || st.DoubleFrees != 1 || st.InvalidFrees != 1 {
		t.Fatalf("replay stats: Frees=%d DoubleFrees=%d InvalidFrees=%d, want 1,1,1",
			st.Frees, st.DoubleFrees, st.InvalidFrees)
	}
	if st.RecoveredNoops != 2 {
		t.Fatalf("RecoveredNoops = %d, want 2 (rejected replays are no-ops)", st.RecoveredNoops)
	}
	if st.RemoteDrains != 1 {
		t.Fatalf("RemoteDrains = %d, want 1", st.RemoteDrains)
	}
	report := checkHeap(t, h2)
	if report.PendingRemote != 0 || !report.OK() {
		t.Fatalf("post-replay audit: PendingRemote = %d, problems = %v",
			report.PendingRemote, report.Problems)
	}
	if report.AllocatedBlocks != 2 {
		t.Fatalf("AllocatedBlocks = %d, want q and p1", report.AllocatedBlocks)
	}
	th1, err := h2.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	defer th1.Close()
	if err := th1.Free(f.p); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("cross-shard free of the replayed block = %v, want ErrDoubleFree", err)
	}
}

// TestRemoteFreeCheckReportsPendingAndCorrupt pins the audit of a raw
// Attach, which replays nothing: valid pending entries count as
// PendingRemote (not problems — they are legal crash states), while
// undecodable and out-of-range words are structural problems.
func TestRemoteFreeCheckReportsPendingAndCorrupt(t *testing.T) {
	f := newRingFixture(t, testOptions())
	valid := f.validWords()
	dev := f.crash(t, len(valid), append(valid, f.damagedWords()...)...)
	h2, err := Attach(dev, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	report := checkHeap(t, h2)
	var corrupt, outside bool
	for _, p := range report.Problems {
		switch {
		case strings.Contains(p, "corrupt entry"):
			corrupt = true
		case strings.Contains(p, "outside user region"):
			outside = true
		}
	}
	if !corrupt || !outside || len(report.Problems) != 2 {
		t.Fatalf("problems = %v; want one corrupt and one out-of-range finding", report.Problems)
	}
	if report.PendingRemote != 3 {
		t.Fatalf("PendingRemote = %d, want the 3 valid entries", report.PendingRemote)
	}
}

// TestRemoteFreeRingBitFlipQuarantine loads an image whose ring holds a
// checksum-flipped entry and an out-of-range one under ScrubOnLoad: Load
// must not die, must replay neither word, and must quarantine exactly the
// owning sub-heap. Repair then clears the words and returns the sub-heap
// to service with an exact census.
func TestRemoteFreeRingBitFlipQuarantine(t *testing.T) {
	opts := testOptions()
	opts.ScrubOnLoad = true
	f := newRingFixture(t, opts)
	h2, err := Load(f.crash(t, 0, f.damagedWords()...), opts)
	if err != nil {
		t.Fatalf("Load must degrade, not die: %v", err)
	}
	defer h2.Close()
	if !h2.subheaps[0].isQuarantined() {
		t.Fatal("sub-heap 0 not quarantined after ring word damage")
	}
	if h2.subheaps[1].isQuarantined() {
		t.Fatal("healthy sub-heap 1 was quarantined")
	}
	if st := h2.Stats(); st.Frees != 0 || st.RemoteDrains != 0 || st.RecoveredNoops != 0 {
		t.Fatalf("a damaged word was replayed: %+v", st)
	}
	report := checkHeap(t, h2)
	if !report.OK() || report.Quarantined != 1 {
		t.Fatalf("quarantine must absorb the problems: Quarantined = %d, problems = %v",
			report.Quarantined, report.Problems)
	}
	// The healthy sub-heap still serves.
	th1, err := h2.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	defer th1.Close()
	if err := th1.Free(f.p1); err != nil {
		t.Fatalf("free on healthy sub-heap: %v", err)
	}

	if err := h2.Repair(0); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	report = checkHeap(t, h2)
	if !report.Healthy() || report.PendingRemote != 0 {
		t.Fatalf("after repair: Healthy = %v, PendingRemote = %d, problems = %v",
			report.Healthy(), report.PendingRemote, report.Problems)
	}
	if report.AllocatedBlocks != 2 {
		t.Fatalf("AllocatedBlocks = %d after repair, want p and q", report.AllocatedBlocks)
	}
	for k := uint64(0); k < memblock.RingSlots; k++ {
		if w, err := h2.Device().ReadU64(h2.lay.ringBase(0) + k*memblock.RingSlotBytes); err != nil || w != 0 {
			t.Fatalf("ring slot %d = %#x (%v) after repair, want cleared", k, w, err)
		}
	}
	if st := h2.Stats(); st.Frees != 1 || st.RemoteDrains != 0 {
		t.Fatalf("repair replayed a damaged word: %+v", st)
	}
}

// TestRemoteFreeRingReplayCrashSweep walks the device failpoint through
// every mutating op of a Load that replays crafted ring entries — each free
// commit and each slot clear among them — crashes the half-recovered image
// under each eviction mode, and requires the second Load to audit clean,
// quarantine nothing, clear every slot and free each entry's block exactly
// once: the blocks named in the rings are free, the untouched ones live.
func TestRemoteFreeRingReplayCrashSweep(t *testing.T) {
	opts := testOptions()
	opts.ScrubOnLoad = true
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	var freed, live []NVMPtr
	for i := 0; i < 2; i++ {
		th, err := h.ThreadOn(i)
		if err != nil {
			t.Fatal(err)
		}
		var words []uint64
		for k := 0; k < 4; k++ {
			p, err := th.TxAlloc(uint64(64<<k), true)
			if err != nil {
				t.Fatal(err)
			}
			if k == 3 {
				live = append(live, p)
				continue
			}
			freed = append(freed, p)
			words = append(words, ringWord(p, 0))
		}
		th.Close()
		// The first block twice: the second replay is a rejected no-op.
		writeRingWords(t, h, i, append(words, words[0])...)
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ring.img")
	if err := h.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	_ = h.Close()
	loadFile := func() *nvm.Device {
		dev, err := nvm.LoadFile(path, nvm.Options{CrashTracking: true})
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}

	const huge = int64(1) << 40
	devM := loadFile()
	devM.FailAfter(huge)
	hm, err := Load(devM, opts)
	total := int(huge - devM.FailBudgetRemaining())
	devM.DisarmFailpoint()
	if err != nil {
		t.Fatalf("measurement Load: %v", err)
	}
	if st := hm.Stats(); st.RemoteDrains != uint64(len(freed)) || st.RecoveredNoops != 2 {
		t.Fatalf("measurement Load: RemoteDrains = %d, RecoveredNoops = %d; want %d, 2",
			st.RemoteDrains, st.RecoveredNoops, len(freed))
	}
	_ = hm.Close()

	runs := 0
	for _, mode := range []nvm.EvictMode{nvm.EvictNone, nvm.EvictAll, nvm.EvictTorn} {
		for point := 0; point < total; point++ {
			dev := loadFile()
			dev.FailAfter(int64(point))
			h1, lerr := Load(dev, opts)
			tripped := dev.FailBudgetRemaining() < 0
			dev.DisarmFailpoint()
			if !tripped {
				t.Fatalf("mode=%s point=%d: failpoint did not trip", mode, point)
			}
			if lerr == nil {
				// The failpoint landed in a best-effort write (the mirror
				// refresh at the tail of recovery); the crash below applies.
				_ = h1.Close()
			}
			if _, err := dev.Crash(nvm.CrashPolicy{Mode: mode, Prob: 0.5, Seed: int64(point)}); err != nil {
				t.Fatal(err)
			}
			h2, err := Load(dev, opts)
			if err != nil {
				t.Fatalf("mode=%s point=%d: second Load: %v", mode, point, err)
			}
			report := checkHeap(t, h2)
			if !report.Healthy() || report.PendingRemote != 0 {
				t.Fatalf("mode=%s point=%d: Healthy = %v, PendingRemote = %d, problems = %v",
					mode, point, report.Healthy(), report.PendingRemote, report.Problems)
			}
			if report.AllocatedBlocks != uint64(len(live)) {
				t.Fatalf("mode=%s point=%d: AllocatedBlocks = %d, want %d",
					mode, point, report.AllocatedBlocks, len(live))
			}
			th, err := h2.Thread()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range live {
				if _, err := th.BlockSize(p); err != nil {
					t.Fatalf("mode=%s point=%d: live block %v lost: %v", mode, point, p, err)
				}
			}
			for _, p := range freed {
				if _, err := th.BlockSize(p); err == nil {
					t.Fatalf("mode=%s point=%d: ring entry's block %v still allocated", mode, point, p)
				}
			}
			th.Close()
			_ = h2.Close()
			runs++
		}
	}
	t.Logf("ring replay sweep: %d crash points x 3 modes, %d runs", total, runs)
}
