package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
)

// appendLane appends locs to micro-log lane i as entries of its open
// transaction, the way TxAlloc's commit hook writes them.
func appendLane(t *testing.T, h *Heap, lane int, locs ...uint64) {
	t.Helper()
	h.grant(h.sbThread)
	defer h.revoke(h.sbThread)
	l, err := plog.OpenMicroLog(h.sbWin, h.lay.laneBase(lane), h.lay.laneSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range locs {
		if err := l.Append(loc); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRollbackEdgeCases loads images whose lanes name blocks the batched
// rollback must not free twice: the same block twice in one lane and once
// more in another, a block already free, a block of a quarantined
// sub-heap, and — through a failed commit — a block whose entry the
// commit retracted before another thread carved it. Every block is freed
// at most once, and every other entry is a RecoveredNoop.
func TestRollbackEdgeCases(t *testing.T) {
	cases := []struct {
		name          string
		setup         func(t *testing.T, h *Heap) (live []NVMPtr)
		blocks, noops uint64
	}{
		{"named-twice", func(t *testing.T, h *Heap) []NVMPtr {
			th := newThread(t, h)
			p, err := th.TxAlloc(256, false)
			if err != nil {
				t.Fatal(err)
			}
			appendLane(t, h, th.laneI, p.Loc())
			appendLane(t, h, th.laneI+1, p.Loc())
			return nil
		}, 1, 2},
		{"already-free", func(t *testing.T, h *Heap) []NVMPtr {
			th := newThread(t, h)
			p, err := th.TxAlloc(256, true) // freed by the locked path
			if err != nil {
				t.Fatal(err)
			}
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
			appendLane(t, h, th.laneI, p.Loc())
			return nil
		}, 0, 1},
		{"quarantined", func(t *testing.T, h *Heap) []NVMPtr {
			th, err := h.ThreadOn(1)
			if err != nil {
				t.Fatal(err)
			}
			p, err := th.TxAlloc(256, false)
			if err != nil {
				t.Fatal(err)
			}
			// An interrupted repair benches sub-heap 1 at the next load.
			if err := h.Device().PersistU64(h.lay.subheapBase(1)+shRepairingOff, 1); err != nil {
				t.Fatal(err)
			}
			return []NVMPtr{p}
		}, 0, 1},
		{"retracted", func(t *testing.T, h *Heap) []NVMPtr {
			th := newThread(t, h)
			if _, err := th.Alloc(64); err != nil { // format the sub-heap
				t.Fatal(err)
			}
			// One transient write fault on the log region fails the commit
			// after its hook appended the entry and before its record.
			s := th.Shard()
			h.Device().ArmTransientFaults(nvm.TransientFaults{
				Off: h.lay.undoBase(s), Len: h.lay.undoSize, MaxFaults: 1})
			_, txErr := th.TxAlloc(256, false)
			h.Device().DisarmTransientFaults()
			if !errors.Is(txErr, nvm.ErrTransient) {
				t.Fatalf("TxAlloc = %v, want a transient commit failure", txErr)
			}
			if n := th.lane.Count(); n != 0 {
				t.Fatalf("failed commit left %d lane entries", n)
			}
			// The block the failed TxAlloc carved is free; this carves it.
			p, err := th.Alloc(256)
			if err != nil {
				t.Fatal(err)
			}
			return []NVMPtr{p}
		}, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newTestHeap(t)
			live := c.setup(t, h)
			h2 := reload(t, h, nvm.CrashPolicy{Mode: nvm.EvictNone})
			defer h2.Close()
			st := h2.Stats()
			if st.RecoveredBlocks != c.blocks || st.RecoveredNoops != c.noops {
				t.Fatalf("RecoveredBlocks/Noops = %d/%d, want %d/%d",
					st.RecoveredBlocks, st.RecoveredNoops, c.blocks, c.noops)
			}
			rep, err := h2.Check()
			if err != nil || !rep.OK() || rep.PendingTx != 0 {
				t.Fatalf("check: %v, %d pending tx, %v", err, rep.PendingTx, rep.Problems)
			}
			for _, p := range live {
				s, dev, err := h2.resolve(p)
				if err != nil {
					t.Fatal(err)
				}
				s.mu.Lock()
				h2.grant(s.thread)
				ready := s.ready || s.ensureReady() == nil
				slot, lerr := s.mgr.Lookup(s.win, dev)
				rec, rerr := s.mgr.ReadRecord(s.win, slot)
				h2.revoke(s.thread)
				s.mu.Unlock()
				if !ready || lerr != nil || rerr != nil || rec.Size != 256 {
					t.Fatalf("block %v no longer allocated: %v %v %+v", p, lerr, rerr, rec)
				}
			}
		})
	}
}

// TestSweepBatchedRollback fails the device at every mutating op of a
// Load that rolls back seven open TxAllocs in two sub-heaps, crashes under
// every eviction mode and loads again: the second load must account for
// every entry still logged and roll back exactly the transactional blocks
// still allocated, whatever part of the batched rollback the first load
// made durable, leaving only the live blocks.
func TestSweepBatchedRollback(t *testing.T) {
	h := newTestHeap(t)
	const live, open = 5, 7 // five threads: one committed TxAlloc each, one or two open
	for i := 0; i < live; i++ {
		th, err := h.ThreadOn(i % 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := th.TxAlloc(128, true); err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i%2; j++ {
			if _, err := th.TxAlloc(256, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := h.Device().SaveTo(&img); err != nil {
		t.Fatal(err)
	}
	load := func() *nvm.Device {
		dev, err := nvm.LoadFrom(bytes.NewReader(img.Bytes()), nvm.Options{CrashTracking: true})
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	dev := load()
	const huge = int64(1) << 40
	dev.FailAfter(huge)
	ref, err := Load(dev, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	total := huge - dev.FailBudgetRemaining()
	rep, err := ref.Check()
	if err != nil || !rep.OK() {
		t.Fatalf("reference load: %v %v", err, rep.Problems)
	}
	want := rep.AllocatedBlocks
	if got := ref.Stats().RecoveredBlocks; got != open || want != live {
		t.Fatalf("reference load: %d blocks rolled back, %d allocated; want %d and %d", got, want, open, live)
	}
	for _, mode := range []nvm.EvictMode{nvm.EvictNone, nvm.EvictAll, nvm.EvictRandom, nvm.EvictTorn} {
		for k := int64(0); k < total; k++ {
			what := fmt.Sprintf("mode=%s op=%d", mode, k)
			dev := load()
			dev.FailAfter(k)
			if h1, err := Load(dev, testOptions()); err == nil {
				_ = h1.Close() // the op was a best-effort one, the black box's say
			}
			dev.DisarmFailpoint()
			if _, err := dev.Crash(nvm.CrashPolicy{Mode: mode, Prob: 0.5, Seed: k}); err != nil {
				t.Fatal(err)
			}
			raw, err := Attach(dev, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			before, err := raw.Check() // the crashed image as it is
			if err != nil {
				t.Fatal(err)
			}
			h2, err := Load(dev, testOptions())
			if err != nil {
				t.Fatalf("%s: second load: %v", what, err)
			}
			st := h2.Stats()
			if st.RecoveredBlocks+st.RecoveredNoops != before.PendingTx {
				t.Fatalf("%s: %d rolled back + %d no-ops, %d entries logged", what,
					st.RecoveredBlocks, st.RecoveredNoops, before.PendingTx)
			}
			// With every record in place, the blocks still allocated beyond
			// the live ones are exactly the ones to roll back.
			if before.PendingUndo == 0 && st.RecoveredBlocks != before.AllocatedBlocks-live {
				t.Fatalf("%s: %d blocks rolled back, %d were still allocated", what,
					st.RecoveredBlocks, before.AllocatedBlocks-live)
			}
			rep, err := h2.Check()
			if err != nil || !rep.OK() || rep.AllocatedBlocks != want || rep.PendingTx != 0 || rep.Quarantined != 0 {
				t.Fatalf("%s: %v, %d allocated (want %d), %d pending tx, %d quarantined, %v",
					what, err, rep.AllocatedBlocks, want, rep.PendingTx, rep.Quarantined, rep.Problems)
			}
			_ = h2.Close()
		}
	}
}

// TestManifestReplayBatched crashes four threads that each cache up to 64
// blocks of 8 classes in two sub-heaps: Load returns all ~2048 blocks in
// batched commits, at most one fence per commit plus a constant (the
// manifest word clears, one fence per lane, and the load's mirror,
// profile and black-box writes).
func TestManifestReplayBatched(t *testing.T) {
	opts := testOptions()
	opts.SubheapUserSize = 4 << 20
	opts.DeviceStats = true
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		th, err := h.ThreadOn(i % 2)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < defaultMagClasses; c++ {
			p, err := th.Alloc(64 << c)
			if err != nil {
				t.Fatal(err)
			}
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	_ = h.Close()
	raw, err := Attach(h.Device(), opts)
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := raw.Check()
	if err != nil || crashed.PendingCached < 3*defaultMagSlots {
		t.Fatalf("crashed image: %v, %d cached blocks; want most of %d", err, crashed.PendingCached, 4*defaultMagSlots)
	}
	before := h.Device().StatsSnapshot()
	h2, err := Load(h.Device(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	fences := h2.Device().StatsSnapshot().Fences - before.Fences
	st := h2.Stats()
	if st.RecoveredCached != crashed.PendingCached || st.RecoveredNoops != 0 {
		t.Fatalf("RecoveredCached/Noops = %d/%d, want %d/0", st.RecoveredCached, st.RecoveredNoops, crashed.PendingCached)
	}
	t.Logf("load: %d commits, %d fences", st.Commits, fences)
	if st.Commits > 8 || fences > st.Commits+8 {
		t.Fatalf("load took %d commits and %d fences; want batched commits and one fence each plus at most 8", st.Commits, fences)
	}
	if rep, err := h2.Check(); err != nil || !rep.OK() || rep.AllocatedBlocks != 0 || rep.PendingCached != 0 {
		t.Fatalf("check: %v, %d allocated, %d cached, %v", err, rep.AllocatedBlocks, rep.PendingCached, rep.Problems)
	}
}

// TestSweepBatchedManifestReplay fails the device at every mutating op of
// a Load that returns a thread's 62 cached blocks in two chunked commits
// (an 8 KiB log), crashes under every eviction mode and loads again: whatever
// part of the replay the first load made durable, the second load must
// account for every entry still cached, leave every cached block free
// exactly once, and every popped block allocated.
func TestSweepBatchedManifestReplay(t *testing.T) {
	opts := testOptions()
	opts.Subheaps, opts.MaxThreads = 1, 2
	opts.SubheapUserSize, opts.SubheapMetaSize, opts.UndoLogSize = 256<<10, 64<<10, 8<<10
	opts.Magazines = MagazineOptions{Capacity: 32, Classes: 2}
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	var live, cached []NVMPtr
	for c := 0; c < 2; c++ {
		for k := 0; k < 2; k++ {
			p, err := th.Alloc(64 << c)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		}
		if err := th.Free(live[len(live)-1]); err != nil {
			t.Fatal(err)
		}
		live = live[:len(live)-1]
		for _, rel := range th.mag.blocks[c] {
			cached = append(cached, makePtr(h.heapID, 0, rel))
		}
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := h.Device().SaveTo(&img); err != nil {
		t.Fatal(err)
	}
	load := func() *nvm.Device {
		dev, err := nvm.LoadFrom(bytes.NewReader(img.Bytes()), nvm.Options{CrashTracking: true})
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	dev := load()
	const huge = int64(1) << 40
	dev.FailAfter(huge)
	ref, err := Load(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	total := huge - dev.FailBudgetRemaining()
	if st := ref.Stats(); st.RecoveredCached != uint64(len(cached)) || st.Commits < 2 {
		t.Fatalf("reference load: %d cached blocks returned in %d commits; want %d in chunks", st.RecoveredCached, st.Commits, len(cached))
	}
	for _, mode := range []nvm.EvictMode{nvm.EvictNone, nvm.EvictAll, nvm.EvictRandom, nvm.EvictTorn} {
		for k := int64(0); k < total; k++ {
			what := fmt.Sprintf("mode=%s op=%d", mode, k)
			dev := load()
			dev.FailAfter(k)
			if h1, err := Load(dev, opts); err == nil {
				_ = h1.Close()
			}
			dev.DisarmFailpoint()
			if _, err := dev.Crash(nvm.CrashPolicy{Mode: mode, Prob: 0.5, Seed: k}); err != nil {
				t.Fatal(err)
			}
			raw, err := Attach(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			before, err := raw.Check()
			if err != nil {
				t.Fatal(err)
			}
			h2, err := Load(dev, opts)
			if err != nil {
				t.Fatalf("%s: second load: %v", what, err)
			}
			st := h2.Stats()
			if st.RecoveredCached+st.RecoveredNoops != before.PendingCached {
				t.Fatalf("%s: %d cached returned + %d no-ops, %d entries cached", what,
					st.RecoveredCached, st.RecoveredNoops, before.PendingCached)
			}
			rep, err := h2.Check()
			if err != nil || !rep.OK() || rep.AllocatedBlocks != uint64(len(live)) || rep.PendingCached != 0 || rep.Quarantined != 0 {
				t.Fatalf("%s: %v, %d allocated (want %d), %d cached, %d quarantined, %v",
					what, err, rep.AllocatedBlocks, len(live), rep.PendingCached, rep.Quarantined, rep.Problems)
			}
			th, err := h2.ThreadOn(0)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range cached {
				if _, err := th.BlockSize(p); err == nil {
					t.Fatalf("%s: cached block %v still allocated", what, p)
				}
			}
			for _, p := range live {
				if _, err := th.BlockSize(p); err != nil {
					t.Fatalf("%s: popped block %v lost: %v", what, p, err)
				}
			}
			th.Close()
			_ = h2.Close()
		}
	}
}

// TestMinimumLogSize runs the smallest log the options accept, 8 KiB — two
// 4 KiB record slots: a full repair rebuild, which stages hundreds of
// one-word deletes of corrupt records, and a magazine refill at capacity
// 64 must both commit, their batches sized by what one record holds.
func TestMinimumLogSize(t *testing.T) {
	opts := testOptions()
	opts.UndoLogSize = 8 << 10
	opts.ScrubOnLoad = true
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	var slots []uint64
	for i := 0; i < 300; i++ {
		p, err := th.Alloc(64 << (i % 4))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, recordSlot(t, h, p))
	}
	th.Close()
	// Corrupt records are beyond the header mirror: repair rebuilds, and
	// drops each with a one-word delete.
	for _, slot := range slots {
		if err := h.Device().InjectBitFlip(slot+8, 0); err != nil {
			t.Fatal(err)
		}
	}
	h2 := func() *Heap {
		if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
			t.Fatal(err)
		}
		_ = h.Close()
		h2, err := Load(h.Device(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return h2
	}()
	defer h2.Close()
	if !h2.subheaps[0].isQuarantined() {
		t.Fatal("corrupt record did not quarantine sub-heap 0")
	}
	commits := h2.Stats().Commits
	if err := h2.Repair(0); err != nil {
		t.Fatalf("repair at an 8 KiB log: %v", err)
	}
	if st := h2.Stats(); st.MirrorRestores != 0 || st.Commits-commits < 2 {
		t.Fatalf("repair took %d commits, %d mirror restores; want a chunked rebuild", st.Commits-commits, st.MirrorRestores)
	}
	if rep, err := h2.Check(); err != nil || !rep.OK() {
		t.Fatalf("check after repair: %v %v", err, rep.Problems)
	}

	opts.Magazines = MagazineOptions{Capacity: 64}
	opts.DeviceStats = true
	h3, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Close()
	th3, err := h3.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th3.Close()
	for i := 0; i < 8; i++ {
		if _, err := th3.Alloc(64); err != nil {
			t.Fatal(err)
		}
	}
	if st := h3.Stats(); st.MagazineRefills != 1 || st.MagazineHits != 8 {
		t.Fatalf("refills %d, hits %d at an 8 KiB log; want 1 and 8", st.MagazineRefills, st.MagazineHits)
	}
	// A flush-back of more cached blocks than one record holds commits
	// them in chunks: 256 blocks over four classes go back to their
	// magazines, which cache most of them.
	var held []NVMPtr
	for c := 0; c < 4; c++ {
		for i := 0; i < 64; i++ {
			p, err := th3.Alloc(64 << c)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, p)
		}
	}
	for _, p := range held {
		if err := th3.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	commits, fences := h3.Stats().Commits, h3.Device().StatsSnapshot().Fences
	if _, err := th3.magFlushAll(); err != nil || th3.mag.disabled {
		t.Fatalf("flush-back of four classes' cached blocks at an 8 KiB log: %v (magazine off: %v)", err, th3.mag.disabled)
	}
	n, f := h3.Stats().Commits-commits, h3.Device().StatsSnapshot().Fences-fences
	if n < 2 || f != 2*n {
		t.Fatalf("flush-back took %d commits and %d fences; want it chunked, 2 fences per chunk", n, f)
	}
	if rep, err := h3.Check(); err != nil || !rep.OK() || rep.AllocatedBlocks != 8 {
		t.Fatalf("check after flush-back: %v, %d blocks allocated (want 8), %v", err, rep.AllocatedBlocks, rep.Problems)
	}

	// A refill batch too large for one record halves until it fits: 128
	// carves of free 128-byte blocks stage about 6.5 KiB.
	opts.Magazines = MagazineOptions{}
	h4, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h4.Close()
	th4, err := h4.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th4.Close()
	var ps []NVMPtr
	for i := 0; i < 128; i++ {
		p, err := th4.Alloc(128)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		if err := th4.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	blocks, err := h4.subheaps[0].carve(obs.OpRefill, nvm.ClassAlloc, 1, make([]carved, 128), nil, nil)
	if err != nil || blocks == 0 || blocks >= 128 {
		t.Fatalf("refill of 128 blocks at an 8 KiB log: %d blocks, %v; want a halved batch", blocks, err)
	}
}

// newestRecordRuns decodes sub-heap i's newest commit record from the
// device: the target and byte length of each run, and its generation.
func newestRecordRuns(t *testing.T, h *Heap, i int) (runs [][2]uint64, newest uint64) {
	t.Helper()
	base, size := h.lay.undoBase(i), h.lay.undoSize/2&^7
	var pay []byte
	for k := uint64(0); k < 2; k++ {
		hdr := make([]byte, plog.SlotHeader)
		if err := h.Device().Read(base+k*size, hdr); err != nil {
			t.Fatal(err)
		}
		if gen := binary.LittleEndian.Uint64(hdr[8:]); gen > newest {
			newest, pay = gen, make([]byte, binary.LittleEndian.Uint64(hdr[16:]))
			if err := h.Device().Read(base+k*size+plog.SlotHeader, pay); err != nil {
				t.Fatal(err)
			}
		}
	}
	for len(pay) > 0 {
		target, n := binary.LittleEndian.Uint64(pay), binary.LittleEndian.Uint64(pay[8:])
		runs = append(runs, [2]uint64{target, n})
		pay = pay[16+n:]
	}
	return runs, newest
}

// TestFailedApplyFlushSettles fails the flush of one line a Free's commit
// applies, through a fault on a word of that line outside the commit's
// words: the store passes, the flush does not. A twin heap, run the same
// way without the fault, names the commit's words; each of their lines
// takes its turn. The Free must still commit durably — after two more
// commits, the second overwriting its record's slot, an EvictNone crash
// and a Load must find the heap audit-clean with the block free.
func TestFailedApplyFlushSettles(t *testing.T) {
	setup := func() (*Heap, *Thread, NVMPtr) {
		h := newTestHeap(t)
		th := newThread(t, h)
		p, err := th.TxAlloc(256, true) // its Free takes the locked path
		if err != nil {
			t.Fatal(err)
		}
		return h, th, p
	}
	twin, th, p := setup()
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
	runs, _ := newestRecordRuns(t, twin, th.Shard())
	base := twin.lay.subheapBase(th.Shard())
	_ = twin.Close()

	covered := func(off uint64) bool {
		for _, r := range runs {
			if off >= r[0] && off < r[0]+r[1] {
				return true
			}
		}
		return false
	}
	faults := map[uint64]uint64{} // line → a word of it outside the commit
	for _, r := range runs {
		for line := r[0] &^ (nvm.CachelineSize - 1); line < r[0]+r[1]; line += nvm.CachelineSize {
			for off := line; off < line+nvm.CachelineSize && faults[line] == 0; off += 8 {
				if !covered(off) {
					faults[line] = off
				}
			}
		}
	}
	if len(faults) == 0 {
		t.Fatal("no line of the Free's commit has a word outside it")
	}
	for line, fault := range faults {
		// Named by the line's offset in its sub-heap, which a change to
		// the superblock's size leaves alone.
		t.Run(fmt.Sprintf("subheap+%#x", line-base), func(t *testing.T) {
			h, th, p := setup()
			h.Device().ArmTransientFaults(nvm.TransientFaults{Off: fault, Len: 8, Writes: true, MaxFaults: 1})
			err := th.Free(p)
			n := h.Device().TransientFaultsInjected()
			h.Device().DisarmTransientFaults()
			if err != nil || n != 1 {
				t.Fatalf("Free with a failed line flush: %v, %d faults injected; want it settled after 1", err, n)
			}
			if got, _ := newestRecordRuns(t, h, th.Shard()); !slices.Equal(got, runs) {
				t.Fatalf("the faulted Free committed runs %v, its twin %v", got, runs)
			}
			for i := 0; i < 2; i++ {
				if _, err := th.Alloc(4096); err != nil {
					t.Fatal(err)
				}
			}
			h2 := reload(t, h, nvm.CrashPolicy{Mode: nvm.EvictNone})
			defer h2.Close()
			if rep, err := h2.Check(); err != nil || !rep.OK() || rep.AllocatedBlocks != 2 {
				t.Fatalf("check: %v, %d blocks allocated (want 2), %v", err, rep.AllocatedBlocks, rep.Problems)
			}
		})
	}
}

// TestInDoubtFlushBackClearsManifest leaves a magazine flush-back's commit
// in doubt: its record's flush fails, and so does the settle. The next op
// on the sub-heap settles it, freeing the blocks for anyone to carve, so
// their manifest words must already be cleared: another thread then
// carves and durably holds every block, and a crash and Load must leave
// them all allocated, none freed by a stale manifest entry.
func TestInDoubtFlushBackClearsManifest(t *testing.T) {
	opts := testOptions()
	opts.Magazines = MagazineOptions{Capacity: 8, Classes: 1}
	for seed := int64(1); ; seed++ {
		h, err := Create(opts)
		if err != nil {
			t.Fatal(err)
		}
		th, err := h.ThreadOn(0)
		if err != nil {
			t.Fatal(err)
		}
		var cached []NVMPtr // one refill's blocks, popped and pushed back
		for i := 0; i < 4; i++ {
			p, err := th.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			cached = append(cached, p)
		}
		for _, p := range cached {
			if err := th.Free(p); err != nil {
				t.Fatal(err)
			}
		}
		// A seeded fault stream over the next record's slot that spares
		// its store and fails its flush and the settle's flush of it.
		_, gen := newestRecordRuns(t, h, 0)
		size := h.lay.undoSize / 2 &^ 7
		h.Device().ArmTransientFaults(nvm.TransientFaults{
			Off: h.lay.undoBase(0) + (gen+1)&1*size, Len: size, Writes: true, Prob: 0.5, MaxFaults: 2, Seed: seed})
		_, err = th.magFlushAll()
		h.Device().DisarmTransientFaults()
		if !errors.Is(err, plog.ErrInDoubt) {
			_ = h.Close()
			if seed == 64 {
				t.Fatalf("no seed up to %d left the flush-back in doubt: %v", seed, err)
			}
			continue
		}
		man := plog.NewManifest(h.lay.laneManifestBase(th.laneI))
		for k := uint64(0); k < 8; k++ {
			if w, _ := h.Device().ReadU64(man.WordOff(k)); w != 0 {
				t.Fatalf("manifest word %d = %#x after an in-doubt flush-back, want cleared", k, w)
			}
		}
		// Another thread carves blocks, durably, until it holds the four.
		th2, err := h.ThreadOn(0)
		if err != nil {
			t.Fatal(err)
		}
		held, want := map[NVMPtr]bool{}, map[NVMPtr]bool{}
		for _, p := range cached {
			want[p] = true
		}
		for n := 0; n < 4; {
			p, err := th2.TxAlloc(64, true)
			if err != nil {
				t.Fatalf("carving the flushed blocks: %v (%d of 4 held)", err, n)
			}
			held[p] = true
			if want[p] {
				n++
			}
		}
		h2 := reload(t, h, nvm.CrashPolicy{Mode: nvm.EvictNone})
		defer h2.Close()
		rep, err := h2.Check()
		if err != nil || !rep.OK() || rep.AllocatedBlocks != uint64(len(held)) || h2.Stats().RecoveredCached != 0 {
			t.Fatalf("check: %v, %d blocks allocated (want %d), %d cached blocks freed by recovery, %v",
				err, rep.AllocatedBlocks, len(held), h2.Stats().RecoveredCached, rep.Problems)
		}
		return
	}
}

// TestWarmAllocsCommitOnce pins HeapStats.Commits: each warm locked Alloc
// and Free writes exactly one commit record, and CommitBytes counts its
// payload.
func TestWarmAllocsCommitOnce(t *testing.T) {
	opts := testOptions()
	opts.Magazines = MagazineOptions{Classes: 2} // 256 B takes the locked path
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	th := newThread(t, h)
	defer th.Close()
	p, err := th.Alloc(256) // formats the sub-heap: one more record
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
	last := h.Stats()
	step := func(what string, op func() error) {
		t.Helper()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		st := h.Stats()
		if st.Commits-last.Commits != 1 || st.CommitBytes <= last.CommitBytes {
			t.Fatalf("%s: %d records, %d payload bytes; want 1 record", what,
				st.Commits-last.Commits, st.CommitBytes-last.CommitBytes)
		}
		last = st
	}
	for i := 0; i < 50; i++ {
		var p NVMPtr
		step("Alloc", func() (err error) { p, err = th.Alloc(256); return err })
		step("Free", func() error { return th.Free(p) })
	}
}
