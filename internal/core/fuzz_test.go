package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
)

// fuzzImage is the crashed image FuzzLoad damages: testOptions' two
// sub-heaps with live magazine and TxAlloc blocks on both, local and
// cross-shard frees, an open TxAlloc, a root, and a persisted profile and
// black box.
type fuzzImage struct {
	img  []byte
	lay  layout
	live map[NVMPtr]uint64 // requested size of each block live at the crash
	root NVMPtr
	// Device offsets of one word per decoder the image exercises.
	microEpoch, microEntry, manifestWord uint64
}

// newFuzzImage builds the image and crashes it under EvictNone.
func newFuzzImage(tb testing.TB) fuzzImage {
	opts := testOptions()
	opts.Telemetry = obs.New()
	opts.Profile.Rate = 1 // every Alloc is a site-table sample
	h, err := Create(opts)
	if err != nil {
		tb.Fatal(err)
	}
	fz := fuzzImage{lay: h.lay, live: map[NVMPtr]uint64{}}
	var ths [2]*Thread
	for shard := range ths {
		if ths[shard], err = h.ThreadOn(shard); err != nil {
			tb.Fatal(err)
		}
	}
	var mine [2][]NVMPtr
	for shard, th := range ths {
		for i := range 20 {
			size := uint64(64 << (i % 4))
			p, err := th.Alloc(size)
			if err != nil {
				tb.Fatal(err)
			}
			fz.live[p], mine[shard] = size, append(mine[shard], p)
		}
		for i := range 5 {
			size := uint64(128 << (i % 3))
			p, err := th.TxAlloc(size, true)
			if err != nil {
				tb.Fatal(err)
			}
			fz.live[p], mine[shard] = size, append(mine[shard], p)
		}
	}
	// Each thread frees five of its own magazine blocks, and three magazine
	// and two TxAlloc blocks of the other's; the TxAlloc frees take the
	// owner's lock.
	for shard, th := range ths {
		for i, j := range []int{1, 4, 7, 20, 22} {
			for _, p := range []NVMPtr{mine[shard][3*i], mine[1-shard][j]} {
				if err := th.Free(p); err != nil {
					tb.Fatal(err)
				}
				delete(fz.live, p)
			}
		}
	}
	fz.root = mine[0][len(mine[0])-1]
	if err := h.SetRoot(fz.root); err != nil {
		tb.Fatal(err)
	}
	for _, size := range []uint64{64, 256, 1024} {
		if _, err := ths[0].TxAlloc(size, false); err != nil {
			tb.Fatal(err)
		}
	}
	fz.microEpoch = h.lay.laneBase(ths[1].laneI) + 8
	fz.microEntry = h.lay.laneBase(ths[0].laneI) + 16
	for k := range h.lay.magSlots {
		off := h.lay.laneManifestBase(ths[1].laneI) + 8*k
		if w, err := h.Device().ReadU64(off); err != nil {
			tb.Fatal(err)
		} else if w != 0 {
			fz.manifestWord = off
			break
		}
	}
	if err := h.PersistProfile(); err != nil {
		tb.Fatal(err)
	}
	if err := h.FlushBlackbox(); err != nil {
		tb.Fatal(err)
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.Device().SaveTo(&buf); err != nil {
		tb.Fatal(err)
	}
	fz.img = buf.Bytes()
	return fz
}

// seeds returns one input per superblock word and per decoder's count or
// length word: every geometry field in each slot, each root slot, magic,
// version, sub-heap 0's initialized word, the shard-1 lane's epoch word,
// the open TxAlloc's micro-log entry, a commit-log slot's len, a
// cache-manifest word, and the len of each site-table and black-box header
// slot.
func (fz fuzzImage) seeds() []uint64 {
	offs := []uint64{sbMagicOff, sbVersionOff, fz.lay.subheapBase(0) + shInitializedOff,
		fz.microEpoch, fz.microEntry, fz.lay.undoBase(0) + 16, fz.manifestWord}
	for slot := range 2 {
		for i := range uint64(8) {
			offs = append(offs, geometryRecord.Off(slot)+plog.SlotHeader+8*i)
		}
		offs = append(offs, rootRecord.Off(slot)+plog.SlotHeader,
			fz.lay.profArena().Off(slot)+16, fz.lay.boxArena().Header().Off(slot)+16)
	}
	return offs
}

// check loads dev the way a restart does and returns what the load got
// wrong: nothing if Load fails; otherwise Check must run, every live block
// in an in-service sub-heap must answer BlockSize of at least its size,
// and Root must return the root or an error.
func (fz fuzzImage) check(dev *nvm.Device) error {
	opts := testOptions()
	opts.ScrubOnLoad = true
	opts.Telemetry = obs.New()
	h, err := Load(dev, opts)
	if err != nil {
		return nil
	}
	defer h.Close()
	rep, err := h.Check()
	if err != nil {
		return fmt.Errorf("Check: %v", err)
	}
	th, err := h.Thread()
	if err != nil {
		return fmt.Errorf("Thread: %v", err)
	}
	defer th.Close()
	for p, size := range fz.live {
		if rep.SubheapReports[p.Subheap()].Quarantined {
			continue
		}
		if got, err := th.BlockSize(p); err != nil || got < size {
			return fmt.Errorf("live block %v: size %d (%v), want at least %d", p, got, err, size)
		}
	}
	if root, err := h.Root(); err == nil && root != fz.root {
		return fmt.Errorf("root %v, want %v", root, fz.root)
	}
	return nil
}

// FuzzLoad XORs mask into the byte at off (modulo the device) of one
// crashed image and loads it with ScrubOnLoad under a 5 s hang guard: the
// load must fail, or hold everything fuzzImage.check asks. A panic fails
// the input too.
func FuzzLoad(f *testing.F) {
	fz := newFuzzImage(f)
	for _, off := range fz.seeds() {
		f.Add(uint32(off), byte(0x10))
	}
	// The shard-1 lane's epoch word holds epoch 5 after five committed
	// TxAllocs; in the bare counter of image version 3, 5^0x01 was the
	// epoch of the last of them.
	f.Add(uint32(fz.microEpoch), byte(0x01))
	f.Fuzz(func(t *testing.T, off uint32, mask byte) {
		dev := deviceWith(t, fz.img, mask, uint64(off)%fz.lay.capacity)
		res := make(chan error, 1)
		go func() { res <- fz.check(dev) }()
		select {
		case err := <-res:
			if err != nil {
				t.Fatalf("byte %#x ^ %#x: %v", off, mask, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("byte %#x ^ %#x: Load hung", off, mask)
		}
	})
}
