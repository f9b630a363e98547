package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"poseidon/internal/nvm"
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
// device offset off.
func deviceWith(t *testing.T, img []byte, off uint64, mask byte) *nvm.Device {
	t.Helper()
	dev, err := nvm.LoadFrom(bytes.NewReader(img), nvm.Options{CrashTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if err := dev.Read(off, b[:]); err != nil {
		t.Fatal(err)
	}
	b[0] ^= mask
	if err := dev.Persist(off, b[:]); err != nil {
		t.Fatal(err)
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

// TestLoadRejectsVersion1 rewrites a fresh image's version word to 1: Load
// and Attach must both fail with ErrCorruptHeap and name the version.
func TestLoadRejectsVersion1(t *testing.T) {
	h := newTestHeap(t)
	if err := h.Device().PersistU64(sbVersionOff, 1); err != nil {
		t.Fatal(err)
	}
	_ = h.Close()
	for name, open := range openers {
		_, err := open(h.Device(), testOptions())
		if !errors.Is(err, ErrCorruptHeap) || !strings.Contains(err.Error(), "version 1") {
			t.Errorf("%s of a version-1 image = %v, want ErrCorruptHeap naming version 1", name, err)
		}
	}
}

// TestLoadRejectsOverflowingLaneCount flips each byte of the superblock's
// sub-heap count and lane count words under four masks. No input may
// panic Load or Attach; each must load or fail with ErrCorruptHeap, and a
// flip in either word's two high bytes, which puts the count past the
// device, must fail.
func TestLoadRejectsOverflowingLaneCount(t *testing.T) {
	img := newLiveImage(t).img
	for _, word := range []uint64{sbSubheapsOff, sbLaneCountOff} {
		for b := range uint64(8) {
			for _, mask := range []byte{0x01, 0x10, 0x30, 0x80} {
				for name, open := range openers {
					h, err := openNoPanic(open, deviceWith(t, img, word+b, mask), testOptions())
					switch {
					case err == nil && b < 6:
						_ = h.Close()
					case !errors.Is(err, ErrCorruptHeap):
						t.Errorf("%s with word +%d byte %d ^ %#x = %v, want ErrCorruptHeap", name, word, b, mask, err)
					}
				}
			}
		}
	}
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
		for _, mask := range []byte{0x01, 0x10, 0x30, 0x80} {
			t.Run(fmt.Sprintf("byte%d^%#x", b, mask), func(t *testing.T) {
				h, err := Load(deviceWith(t, li.img, li.lay.subheapBase(0)+shInitializedOff+b, mask), opts)
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
