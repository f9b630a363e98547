package nvm

import (
	"errors"
	"testing"
)

func TestFailpointTriggersAndDisarms(t *testing.T) {
	d := newTestDevice(t, ChunkSize, true)
	d.FailAfter(2)
	if err := d.Write(0, []byte{1}); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if err := d.WriteU64(64, 7); err != nil {
		t.Fatalf("write 2: %v", err)
	}
	if err := d.Write(128, []byte{3}); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("write 3: %v, want ErrDeviceFailed", err)
	}
	if err := d.Flush(0, 64); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("flush: %v, want ErrDeviceFailed", err)
	}
	if err := d.Zero(0, 64); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("zero: %v, want ErrDeviceFailed", err)
	}
	// Reads still work on a dying device.
	if _, err := d.ReadU64(64); err != nil {
		t.Fatalf("read on failed device: %v", err)
	}
	d.DisarmFailpoint()
	if err := d.Write(128, []byte{3}); err != nil {
		t.Fatalf("write after disarm: %v", err)
	}
}

// TestFailpointBudgetCosts pins the failpoint budget consumed by every
// mutating entry point. Crash sweeps index crash points by this budget, so
// the costs below are a compatibility contract: changing any of them
// renumbers every recorded reproducer. Primitive mutations (write, zero,
// flush, hole-punch drop phase) cost exactly one unit; compound helpers
// cost the sum of the primitives they are documented to be built from.
func TestFailpointBudgetCosts(t *testing.T) {
	const huge = int64(1) << 40
	cases := []struct {
		name string
		op   func(d *Device) error
		want int64
	}{
		{"Write", func(d *Device) error { return d.Write(0, make([]byte, 100)) }, 1},
		{"WriteCrossChunk", func(d *Device) error { return d.Write(ChunkSize-8, make([]byte, 16)) }, 1},
		{"WriteU64", func(d *Device) error { return d.WriteU64(64, 7) }, 1},
		{"WriteU64Straddle", func(d *Device) error { return d.WriteU64(ChunkSize-4, 7) }, 1},
		{"WriteU32", func(d *Device) error { return d.WriteU32(64, 7) }, 1},
		{"WriteU16", func(d *Device) error { return d.WriteU16(64, 7) }, 1},
		{"WriteU8", func(d *Device) error { return d.WriteU8(64, 7) }, 1},
		{"Zero", func(d *Device) error { return d.Zero(0, 4096) }, 1},
		{"ZeroUntouchedChunk", func(d *Device) error { return d.Zero(ChunkSize, 4096) }, 1},
		{"Flush", func(d *Device) error { return d.Flush(0, 4096) }, 1},
		{"FlushEmpty", func(d *Device) error { return d.Flush(0, 0) }, 0},
		{"Fence", func(d *Device) error { d.Fence(); return nil }, 0},
		{"Read", func(d *Device) error { return d.Read(0, make([]byte, 64)) }, 0},
		{"ReadU64", func(d *Device) error { _, err := d.ReadU64(0); return err }, 0},
		{"Persist", func(d *Device) error { return d.Persist(0, make([]byte, 64)) }, 2},
		{"PersistU64", func(d *Device) error { return d.PersistU64(0, 7) }, 2},
		// PunchHole: whole-chunk drop phase costs one unit regardless of
		// chunk count; partial edges cost Zero+Flush each.
		{"PunchHoleWholeChunk", func(d *Device) error { return d.PunchHole(0, ChunkSize) }, 1},
		{"PunchHoleTwoChunks", func(d *Device) error { return d.PunchHole(0, 2*ChunkSize) }, 1},
		{"PunchHoleLeadingEdge", func(d *Device) error { return d.PunchHole(64, ChunkSize-64) }, 2},
		{"PunchHoleBothEdges", func(d *Device) error { return d.PunchHole(64, ChunkSize) }, 4},
		{"InjectBitFlip", func(d *Device) error { return d.InjectBitFlip(0, 0) }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, tracking := range []bool{false, true} {
				d := newTestDevice(t, 4*ChunkSize, tracking)
				// Touch the chunks involved so cost never depends on
				// materialisation state (except the explicit untouched case).
				if tc.name != "ZeroUntouchedChunk" {
					for off := uint64(0); off < 3*ChunkSize; off += ChunkSize {
						if err := d.Write(off, []byte{1}); err != nil {
							t.Fatal(err)
						}
					}
				}
				d.FailAfter(huge)
				if err := tc.op(d); err != nil {
					t.Fatalf("tracking=%v: op failed under huge budget: %v", tracking, err)
				}
				got := huge - d.FailBudgetRemaining()
				d.DisarmFailpoint()
				if got != tc.want {
					t.Errorf("tracking=%v: consumed %d budget units, want %d", tracking, got, tc.want)
				}
			}
		})
	}
}

// TestFailpointPunchHoleAtomicDrop verifies the drop phase consumes its
// budget before releasing any chunk: a failpoint firing there leaves the
// range intact, never half-punched.
func TestFailpointPunchHoleAtomicDrop(t *testing.T) {
	d := newTestDevice(t, 2*ChunkSize, false)
	if err := d.Persist(0, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	if err := d.Persist(ChunkSize, []byte{0xCD}); err != nil {
		t.Fatal(err)
	}
	d.FailAfter(0)
	if err := d.PunchHole(0, 2*ChunkSize); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("err = %v, want ErrDeviceFailed", err)
	}
	d.DisarmFailpoint()
	for _, off := range []uint64{0, ChunkSize} {
		v, err := d.ReadU8(off)
		if err != nil {
			t.Fatal(err)
		}
		if v == 0 {
			t.Fatalf("chunk at %#x released despite failed punch", off)
		}
	}
}

func TestFailpointZeroBudgetFailsImmediately(t *testing.T) {
	d := newTestDevice(t, ChunkSize, false)
	d.FailAfter(0)
	if err := d.Write(0, []byte{1}); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("err = %v", err)
	}
}
