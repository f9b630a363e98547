package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
)

// liveImage is a crashed image with committed blocks in both sub-heaps.
type liveImage struct {
	img   []byte
	lay   layout
	live  []NVMPtr
	sizes []uint64 // requested size of each live block
}

// newLiveImage builds testOptions' heap with ten committed TxAllocs on
// each of its two sub-heaps and crashes it under EvictNone.
func newLiveImage(t *testing.T) liveImage {
	t.Helper()
	h := newTestHeap(t)
	li := liveImage{lay: h.lay}
	for shard := range 2 {
		th, err := h.ThreadOn(shard)
		if err != nil {
			t.Fatal(err)
		}
		for i := range 10 {
			size := uint64(64 << (i % 5))
			p, err := th.TxAlloc(size, true)
			if err != nil {
				t.Fatal(err)
			}
			li.live, li.sizes = append(li.live, p), append(li.sizes, size)
		}
		th.Close()
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.Device().SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	_ = h.Close()
	li.img = buf.Bytes()
	return li
}

// deviceWith loads img into a fresh device and XORs mask into the byte at
// each device offset in offs.
func deviceWith(t *testing.T, img []byte, mask byte, offs ...uint64) *nvm.Device {
	t.Helper()
	dev, err := nvm.LoadFrom(bytes.NewReader(img), nvm.Options{CrashTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range offs {
		var b [1]byte
		if err := dev.Read(off, b[:]); err != nil {
			t.Fatal(err)
		}
		b[0] ^= mask
		if err := dev.Persist(off, b[:]); err != nil {
			t.Fatal(err)
		}
	}
	return dev
}

// openers are the two ways to open an existing image; they share
// readLayout.
var openers = map[string]func(*nvm.Device, Options) (*Heap, error){"Load": Load, "Attach": Attach}

// openNoPanic runs open over dev, turning a panic into an error so one bad
// input cannot hide the others.
func openNoPanic(open func(*nvm.Device, Options) (*Heap, error), dev *nvm.Device, opts Options) (h *Heap, err error) {
	defer func() {
		if r := recover(); r != nil {
			h, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return open(dev, opts)
}

// flipMasks are the XOR masks the flip tests apply to each byte.
var flipMasks = []byte{0x01, 0x10, 0x30, 0x80}

// TestLoadRejectsVersion1 rewrites a fresh image's version word to 1, 2
// and 3: Load and Attach must both fail with ErrCorruptHeap and name the
// version.
func TestLoadRejectsVersion1(t *testing.T) {
	for _, v := range []uint64{1, 2, 3} {
		h := newTestHeap(t)
		if err := h.Device().PersistU64(sbVersionOff, v); err != nil {
			t.Fatal(err)
		}
		_ = h.Close()
		for name, open := range openers {
			_, err := open(h.Device(), testOptions())
			if want := fmt.Sprintf("version %d", v); !errors.Is(err, ErrCorruptHeap) || !strings.Contains(err.Error(), want) {
				t.Errorf("%s of a version-%d image = %v, want ErrCorruptHeap naming %s", name, v, err, want)
			}
		}
	}
}

// TestGeometryRecordFlips damages the geometry record of a crashed image
// with live blocks. Each byte of the newer slot XORed with each of
// flipMasks must still open, through Attach and then Load, to the same
// heap id and layout with every live block answering BlockSize: the older
// slot holds the same value. The same byte of the slot image flipped in
// both slots must fail with ErrCorruptHeap, and so must a record
// rewritten, checksum and all, with a high byte of its sub-heap or lane
// count flipped: those counts lie past the device, and once panicked in
// assemble. A failed open writes nothing, and neither does an Attach, so
// those inputs share a device.
func TestGeometryRecordFlips(t *testing.T) {
	li := newLiveImage(t)
	opts := testOptions()
	dev := deviceWith(t, li.img, 0)
	if gen, _, _ := geometryRecord.Read(dev.Read); gen != 2 {
		t.Fatalf("geometry record at generation %d, want 2: Create writes both slots", gen)
	}
	newer, older := geometryRecord.Off(0), geometryRecord.Off(1) // generations 2 and 1
	for b := range geometryRecord.Size {
		for _, mask := range flipMasks {
			flipped := deviceWith(t, li.img, mask, newer+b)
			for _, name := range []string{"Attach", "Load"} {
				h, err := openNoPanic(openers[name], flipped, opts)
				if err != nil {
					t.Errorf("%s with newer-slot byte %d ^ %#x = %v, want the older slot", name, b, mask, err)
					continue
				}
				if h.HeapID() != opts.HeapID || h.lay != li.lay {
					t.Errorf("%s with newer-slot byte %d ^ %#x: heap %#x, layout %+v; want %#x, %+v",
						name, b, mask, h.HeapID(), h.lay, opts.HeapID, li.lay)
				}
				th := newThread(t, h)
				for i, p := range li.live {
					if got, err := th.BlockSize(p); err != nil || got < li.sizes[i] {
						t.Errorf("%s with newer-slot byte %d ^ %#x: live block %v: size %d (%v), want at least %d",
							name, b, mask, p, got, err, li.sizes[i])
						break
					}
				}
				th.Close()
				_ = h.Close()
			}
		}
	}
	_, geo, _ := geometryRecord.Read(dev.Read)
	for b := range plog.SlotHeader + uint64(len(geo)) {
		for _, mask := range flipMasks {
			flip := func() {
				for _, off := range []uint64{newer + b, older + b} {
					v, err := dev.ReadU8(off)
					if err != nil {
						t.Fatal(err)
					}
					if err := dev.Persist(off, []byte{v ^ mask}); err != nil {
						t.Fatal(err)
					}
				}
			}
			flip()
			for name, open := range openers {
				if _, err := openNoPanic(open, dev, opts); !errors.Is(err, ErrCorruptHeap) {
					t.Errorf("%s with byte %d ^ %#x in both slots = %v, want ErrCorruptHeap", name, b, mask, err)
				}
			}
			flip()
		}
	}
	w := mpk.NewWindow(dev, mpk.NewUnit(dev.Capacity()).NewThread(mpk.RightsRW))
	for _, word := range []int{1, 5} { // the sub-heap and lane counts
		for _, b := range []int{6, 7} {
			for _, mask := range flipMasks {
				p := slices.Clone(geo)
				p[8*word+b] ^= mask
				if err := writeBoth(w, geometryRecord, 0, p); err != nil {
					t.Fatal(err)
				}
				for name, open := range openers {
					if _, err := openNoPanic(open, dev, opts); !errors.Is(err, ErrCorruptHeap) {
						t.Errorf("%s with geometry word %d byte %d ^ %#x = %v, want ErrCorruptHeap", name, word, b, mask, err)
					}
				}
			}
		}
	}
}

// TestMicroLogEpochFlips commits five TxAllocs on each of two threads, so
// each thread's lane holds epoch 5, and crashes. Each byte of either
// lane's epoch word XORed with each of flipMasks must fail the word's
// check: a raw Check must report it, and Load must journal it and load
// with every committed block still allocated. A TxAlloc then opened on the
// lane and crashed must roll back only itself. In the bare counter the
// word held up to image version 3, 5^0x01 was the epoch of the last
// commit, and recovery freed its block.
func TestMicroLogEpochFlips(t *testing.T) {
	h := newTestHeap(t)
	var lanes []int
	var live []NVMPtr
	for shard := range 2 {
		th, err := h.ThreadOn(shard)
		if err != nil {
			t.Fatal(err)
		}
		lanes = append(lanes, th.laneI)
		for i := range 5 {
			p, err := th.TxAlloc(uint64(64<<i), true)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		}
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := h.Device().SaveTo(&img); err != nil {
		t.Fatal(err)
	}
	for _, lane := range lanes {
		for b := range uint64(8) {
			for _, mask := range flipMasks {
				at := fmt.Sprintf("lane %d epoch byte %d ^ %#x", lane, b, mask)
				dev := deviceWith(t, img.Bytes(), mask, h.lay.laneBase(lane)+8+b)
				raw, err := Attach(dev, testOptions())
				if err != nil {
					t.Fatalf("%s: Attach: %v", at, err)
				}
				if rep := checkHeap(t, raw); !slices.ContainsFunc(rep.Problems, func(p string) bool {
					return strings.Contains(p, fmt.Sprintf("micro lane %d: epoch word", lane))
				}) {
					t.Errorf("%s: raw Check problems %v, want the epoch word", at, rep.Problems)
				}
				allocated, journaled, after, rolled := crashOpenTx(t, dev, lane)
				if allocated != uint64(len(live)) || !journaled || after != allocated || rolled != 1 {
					t.Errorf("%s: %d blocks allocated (journaled %v), then %d after one open TxAlloc on the lane rolled back %d; want %d, true, %d, 1",
						at, allocated, journaled, after, rolled, len(live), len(live))
				}
			}
		}
	}
}

// TestTxCommitTornAtWords opens a three-TxAlloc transaction and commits
// it without a further allocation (TxAbandon), then lays each subset of
// the 8-byte words the commit changed in the lane over the lane as it was
// open: a crash keeps an aligned 8-byte store whole and nothing wider.
// Each image must load with the transaction rolled back or committed, and
// a TxAlloc then opened on the lane and crashed must roll back only
// itself. Had the commit zeroed entry 0 beside the epoch word, the image
// with entry 0 zeroed and the epoch not bumped would read committed, and
// the next transaction's entry 0 would revive entries 1 and 2 of the
// committed one.
func TestTxCommitTornAtWords(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	for range 3 {
		if _, err := th.TxAlloc(64, false); err != nil {
			t.Fatal(err)
		}
	}
	base := h.lay.laneBase(th.laneI)
	open := make([]byte, h.lay.laneSize)
	committed := make([]byte, h.lay.laneSize)
	if err := h.Device().Read(base, open); err != nil {
		t.Fatal(err)
	}
	if err := th.TxAbandon(); err != nil {
		t.Fatal(err)
	}
	if err := h.Device().Read(base, committed); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := h.Device().SaveTo(&img); err != nil {
		t.Fatal(err)
	}
	var words []int
	for off := 0; off < len(open); off += 8 {
		if !bytes.Equal(open[off:off+8], committed[off:off+8]) {
			words = append(words, off)
		}
	}
	if len(words) == 0 {
		t.Fatal("the commit changed no word of the lane")
	}
	for set := range 1 << len(words) {
		lane := slices.Clone(open)
		for i, off := range words {
			if set>>i&1 != 0 {
				copy(lane[off:off+8], committed[off:])
			}
		}
		dev := deviceWith(t, img.Bytes(), 0)
		if err := dev.Persist(base, lane); err != nil {
			t.Fatal(err)
		}
		allocated, _, after, rolled := crashOpenTx(t, dev, th.laneI)
		if (allocated != 0 && allocated != 3) || after != allocated || rolled != 1 {
			t.Errorf("words %#x of the commit at lane +%v: %d blocks allocated, then %d after one open TxAlloc on the lane rolled back %d; want 0 or 3, the same, 1",
				set, words, allocated, after, rolled)
		}
	}
}

// crashOpenTx loads dev and reports the blocks allocated and whether Load
// journaled a finding on lane's micro log. It then opens one TxAlloc on a
// thread holding lane, crashes and loads again, and reports the blocks
// allocated and rolled back then.
func crashOpenTx(t *testing.T, dev *nvm.Device, lane int) (allocated uint64, journaled bool, after, rolled uint64) {
	t.Helper()
	opts := testOptions()
	opts.Telemetry = obs.New()
	h, err := Load(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range opts.Telemetry.DrainEvents() {
		journaled = journaled || e.Kind == obs.EventScrubFinding && strings.Contains(e.Detail, fmt.Sprintf("micro lane %d", lane))
	}
	if rep := checkHeap(t, h); !rep.OK() {
		t.Fatalf("after Load: problems %v", rep.Problems)
	} else {
		allocated = rep.AllocatedBlocks
	}
	for {
		th, err := h.ThreadOn(0)
		if err != nil {
			t.Fatalf("no thread on lane %d: %v", lane, err)
		}
		if th.laneI != lane {
			continue
		}
		if _, err := th.TxAlloc(64, false); err != nil {
			t.Fatal(err)
		}
		break
	}
	h2 := reload(t, h, nvm.CrashPolicy{Mode: nvm.EvictNone})
	defer h2.Close()
	return allocated, journaled, checkHeap(t, h2).AllocatedBlocks, h2.Stats().RecoveredBlocks
}

// TestInitializedWordFlipQuarantines flips each byte of sub-heap 0's
// initialized word under four masks. Load must quarantine sub-heap 0, not
// read it as never formatted and format over its blocks, while sub-heap 1
// serves; Repair must then return sub-heap 0 to service with every live
// block intact.
func TestInitializedWordFlipQuarantines(t *testing.T) {
	li := newLiveImage(t)
	opts := testOptions()
	opts.ScrubOnLoad = true
	for b := range uint64(8) {
		for _, mask := range flipMasks {
			t.Run(fmt.Sprintf("byte%d^%#x", b, mask), func(t *testing.T) {
				h, err := Load(deviceWith(t, li.img, mask, li.lay.subheapBase(0)+shInitializedOff+b), opts)
				if err != nil {
					t.Fatalf("Load: %v", err)
				}
				defer h.Close()
				rep := checkHeap(t, h)
				if !rep.OK() || !rep.SubheapReports[0].Quarantined || rep.SubheapReports[1].Quarantined {
					t.Fatalf("after Load, sub-heap reports %+v, problems %v; want only sub-heap 0 quarantined",
						rep.SubheapReports, rep.Problems)
				}
				if err := h.Repair(0); err != nil {
					t.Fatalf("Repair: %v", err)
				}
				rep = checkHeap(t, h)
				if !rep.Healthy() || rep.AllocatedBlocks != uint64(len(li.live)) {
					t.Fatalf("after Repair, %d allocated blocks, problems %v, quarantined %d; want %d, none, 0",
						rep.AllocatedBlocks, rep.Problems, rep.Quarantined, len(li.live))
				}
				th := newThread(t, h)
				defer th.Close()
				for i, p := range li.live {
					if got, err := th.BlockSize(p); err != nil || got < li.sizes[i] {
						t.Fatalf("live block %v: size %d (%v), want at least %d", p, got, err, li.sizes[i])
					}
				}
			})
		}
	}
}
