package memblock

import (
	"errors"
	"math/rand"
	"testing"

	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
	"poseidon/internal/plog"
	"poseidon/internal/txn"
)

const (
	testLogBase  = 0
	testLogSize  = 64 * 1024
	testMetaBase = testLogBase + testLogSize
	testMetaSize = 1 << 20
	testUserBase = 4 << 20
	testUserSize = 1 << 20
)

type fixture struct {
	w   mpk.Window
	m   *Manager
	b   *txn.Batch
	log *plog.RedoLog
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	d, err := nvm.NewDevice(nvm.Options{Capacity: 8 << 20, CrashTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	u := mpk.NewUnit(d.Capacity())
	w := mpk.NewWindow(d, u.NewThread(mpk.RightsRW))
	g, err := ComputeGeometry(testMetaBase, testMetaSize, testUserBase, testUserSize)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(w, g)
	if err := m.Format(); err != nil {
		t.Fatal(err)
	}
	log := plog.NewRedoLog(w, testLogBase, testLogSize)
	if err := log.Open(false); err != nil {
		t.Fatal(err)
	}
	return &fixture{w: w, m: m, b: txn.NewBatch(w, log), log: log}
}

func (f *fixture) commit(t *testing.T) {
	t.Helper()
	if err := f.b.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestComputeGeometryErrors(t *testing.T) {
	tests := []struct {
		name               string
		metaSize, userSize uint64
	}{
		{"non-power-of-two user", 1 << 20, 1000},
		{"tiny user", 1 << 20, 32},
		{"tiny metadata", 128, 1 << 20},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ComputeGeometry(0, tt.metaSize, 0, tt.userSize); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestGeometryShape(t *testing.T) {
	g, err := ComputeGeometry(testMetaBase, testMetaSize, testUserBase, testUserSize)
	if err != nil {
		t.Fatal(err)
	}
	// 64 B .. 1 MiB inclusive = 15 classes.
	if g.NumClasses != 15 {
		t.Fatalf("classes = %d, want 15", g.NumClasses)
	}
	if g.MaxClass() != 14 {
		t.Fatalf("max class = %d", g.MaxClass())
	}
	if len(g.LevelOff) == 0 || len(g.LevelOff) != len(g.LevelCap) {
		t.Fatalf("levels: %d offsets, %d caps", len(g.LevelOff), len(g.LevelCap))
	}
	for i := 1; i < len(g.LevelCap); i++ {
		if g.LevelCap[i] != 2*g.LevelCap[i-1] {
			t.Fatalf("level %d cap %d, prev %d", i, g.LevelCap[i], g.LevelCap[i-1])
		}
	}
	if g.End > testMetaBase+testMetaSize {
		t.Fatalf("geometry overruns region: end %#x", g.End)
	}
	if g.ClassSize(0) != 64 {
		t.Fatalf("class 0 size = %d", g.ClassSize(0))
	}
	if g.ClassSize(g.MaxClass()) != testUserSize {
		t.Fatalf("max class size = %d", g.ClassSize(g.MaxClass()))
	}
}

func TestClassOf(t *testing.T) {
	g, err := ComputeGeometry(testMetaBase, testMetaSize, testUserBase, testUserSize)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		size uint64
		want int
	}{
		{1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2}, {4096, 6}, {testUserSize, 14},
	}
	for _, tt := range tests {
		got, err := g.ClassOf(tt.size)
		if err != nil {
			t.Fatalf("ClassOf(%d): %v", tt.size, err)
		}
		if got != tt.want {
			t.Errorf("ClassOf(%d) = %d, want %d", tt.size, got, tt.want)
		}
		if g.ClassSize(got) < tt.size {
			t.Errorf("class %d size %d < requested %d", got, g.ClassSize(got), tt.size)
		}
	}
	if _, err := g.ClassOf(0); !errors.Is(err, ErrBadSize) {
		t.Error("ClassOf(0) should fail")
	}
	if _, err := g.ClassOf(testUserSize + 1); !errors.Is(err, ErrBadSize) {
		t.Error("oversized ClassOf should fail")
	}
}

func TestInsertLookupDelete(t *testing.T) {
	f := newFixture(t)
	slot, err := f.m.Insert(f.b, testUserBase, 4096, StatusAllocated)
	if err != nil {
		t.Fatal(err)
	}
	f.commit(t)

	got, err := f.m.Lookup(f.w, testUserBase)
	if err != nil {
		t.Fatal(err)
	}
	if got != slot {
		t.Fatalf("lookup slot %#x, want %#x", got, slot)
	}
	rec, err := f.m.ReadRecord(f.w, got)
	if err != nil {
		t.Fatal(err)
	}
	if rec.BlockOff != testUserBase || rec.Size != 4096 || rec.Status != StatusAllocated {
		t.Fatalf("record = %+v", rec)
	}

	if err := f.m.Delete(f.b, slot); err != nil {
		t.Fatal(err)
	}
	f.commit(t)
	if _, err := f.m.Lookup(f.w, testUserBase); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup after delete: %v", err)
	}
}

func TestLookupMissing(t *testing.T) {
	f := newFixture(t)
	if _, err := f.m.Lookup(f.w, testUserBase+64); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestInsertDuplicateRejected(t *testing.T) {
	f := newFixture(t)
	if _, err := f.m.Insert(f.b, testUserBase, 64, StatusFree); err != nil {
		t.Fatal(err)
	}
	f.commit(t)
	if _, err := f.m.Insert(f.b, testUserBase, 64, StatusFree); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

func TestInsertInvalidOffsets(t *testing.T) {
	f := newFixture(t)
	if _, err := f.m.Insert(f.b, 0, 64, StatusFree); err == nil {
		t.Fatal("offset 0 accepted")
	}
	if _, err := f.m.Insert(f.b, ^uint64(0), 64, StatusFree); err == nil {
		t.Fatal("tombstone offset accepted")
	}
}

func TestTombstoneKeepsProbeChain(t *testing.T) {
	f := newFixture(t)
	// Insert enough colliding keys to chain past slot 0, then delete an
	// early one; later keys must still be found.
	c := f.m.Geometry().LevelCap[0]
	// Construct keys that collide on the same home slot in level 0.
	base := testUserBase
	var keys []uint64
	k := uint64(base)
	home := hashSlot(k, c)
	for len(keys) < 4 {
		if hashSlot(k, c) == home {
			keys = append(keys, k)
		}
		k += 64
	}
	slots := make(map[uint64]uint64)
	for _, key := range keys {
		s, err := f.m.Insert(f.b, key, 64, StatusAllocated)
		if err != nil {
			t.Fatal(err)
		}
		slots[key] = s
	}
	f.commit(t)
	if err := f.m.Delete(f.b, slots[keys[0]]); err != nil {
		t.Fatal(err)
	}
	f.commit(t)
	for _, key := range keys[1:] {
		if _, err := f.m.Lookup(f.w, key); err != nil {
			t.Fatalf("key %#x lost after earlier delete: %v", key, err)
		}
	}
	// And the tombstone is reused by the next colliding insert.
	s, err := f.m.Insert(f.b, keys[0], 64, StatusAllocated)
	if err != nil {
		t.Fatal(err)
	}
	if s != slots[keys[0]] {
		t.Fatalf("tombstone not reused: slot %#x, want %#x", s, slots[keys[0]])
	}
}

func TestProbeWindowOverflowAndExtend(t *testing.T) {
	f := newFixture(t)
	c := f.m.Geometry().LevelCap[0]
	// Fill one probe window completely with colliding keys.
	var keys []uint64
	k := uint64(testUserBase)
	home := hashSlot(k, c)
	for uint64(len(keys)) < f.m.Geometry().ProbeWindow {
		if hashSlot(k, c) == home {
			keys = append(keys, k)
		}
		k += 64
	}
	for _, key := range keys {
		if _, err := f.m.Insert(f.b, key, 64, StatusAllocated); err != nil {
			t.Fatalf("insert %#x: %v", key, err)
		}
	}
	f.commit(t)
	// Next level has different geometry, so a colliding key lands there —
	// unless level 1 also has its window full, which it is not. To force
	// ErrNoSlot we need the key's window full in *every* active level; with
	// one active level, filling level 0's window suffices if we find a key
	// colliding there. Keep scanning for one more.
	extra := k
	for hashSlot(extra, c) != home {
		extra += 64
	}
	_, err := f.m.Insert(f.b, extra, 64, StatusAllocated)
	if !errors.Is(err, ErrNoSlot) {
		t.Fatalf("err = %v, want ErrNoSlot", err)
	}
	// Extend and retry: now level 1 provides a slot.
	if err := f.m.ExtendLevel(f.b); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Insert(f.b, extra, 64, StatusAllocated); err != nil {
		t.Fatalf("insert after extend: %v", err)
	}
	f.commit(t)
	if _, err := f.m.Lookup(f.w, extra); err != nil {
		t.Fatalf("lookup after extend: %v", err)
	}
	levels, err := f.m.ActiveLevels(f.w)
	if err != nil {
		t.Fatal(err)
	}
	if levels != 2 {
		t.Fatalf("active levels = %d, want 2", levels)
	}
}

func TestExtendLevelExhausted(t *testing.T) {
	f := newFixture(t)
	n := len(f.m.Geometry().LevelCap)
	for i := 1; i < n; i++ {
		if err := f.m.ExtendLevel(f.b); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.m.ExtendLevel(f.b); !errors.Is(err, ErrTableFull) {
		t.Fatalf("err = %v, want ErrTableFull", err)
	}
}

func TestFreeListPushPopOrder(t *testing.T) {
	f := newFixture(t)
	var slots []uint64
	for i := uint64(0); i < 3; i++ {
		s, err := f.m.Insert(f.b, testUserBase+i*64, 64, StatusFree)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.m.PushFreeTail(f.b, 0, s); err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	f.commit(t)
	if n, err := f.m.FreeListLen(f.w, 0); err != nil || n != 3 {
		t.Fatalf("len = %d (%v), want 3", n, err)
	}
	// FIFO: head is the first pushed.
	head, err := f.m.FreeHead(f.w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if head != slots[0] {
		t.Fatalf("head = %#x, want %#x", head, slots[0])
	}
	// Remove the middle element; list stays linked.
	if err := f.m.RemoveFree(f.b, 0, slots[1]); err != nil {
		t.Fatal(err)
	}
	f.commit(t)
	if n, _ := f.m.FreeListLen(f.w, 0); n != 2 {
		t.Fatalf("len after middle removal = %d", n)
	}
	// Remove head.
	if err := f.m.RemoveFree(f.b, 0, slots[0]); err != nil {
		t.Fatal(err)
	}
	f.commit(t)
	head, _ = f.m.FreeHead(f.w, 0)
	if head != slots[2] {
		t.Fatalf("head after removals = %#x, want %#x", head, slots[2])
	}
	// Remove last.
	if err := f.m.RemoveFree(f.b, 0, slots[2]); err != nil {
		t.Fatal(err)
	}
	f.commit(t)
	if n, _ := f.m.FreeListLen(f.w, 0); n != 0 {
		t.Fatalf("len after all removals = %d", n)
	}
	if head, _ := f.m.FreeHead(f.w, 0); head != 0 {
		t.Fatalf("head of empty list = %#x", head)
	}
}

func TestFreeListClassValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := f.m.FreeHead(f.w, -1); !errors.Is(err, ErrBadSize) {
		t.Fatal("negative class accepted")
	}
	if _, err := f.m.FreeHead(f.w, f.m.Geometry().NumClasses); !errors.Is(err, ErrBadSize) {
		t.Fatal("out-of-range class accepted")
	}
}

func TestForEachRecord(t *testing.T) {
	f := newFixture(t)
	want := map[uint64]uint64{}
	for i := uint64(0); i < 20; i++ {
		off := testUserBase + i*128
		if _, err := f.m.Insert(f.b, off, 128, StatusAllocated); err != nil {
			t.Fatal(err)
		}
		want[off] = 128
	}
	f.commit(t)
	got := map[uint64]uint64{}
	err := f.m.ForEachRecord(f.w, func(rec Record) error {
		got[rec.BlockOff] = rec.Size
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d records, want %d", len(got), len(want))
	}
	for off, size := range want {
		if got[off] != size {
			t.Fatalf("record %#x size %d, want %d", off, got[off], size)
		}
	}
}

// Model test: random inserts/deletes/lookups against a map, committed in
// random batch sizes, with occasional crashes (EvictNone) between batches.
func TestTableMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		f := newFixture(t)
		rng := rand.New(rand.NewSource(seed))
		model := map[uint64]uint64{} // blockOff -> size
		extended := false

		reopen := func() {
			// Crash and recover (logs replayed by the owner in real use;
			// here batches are always either committed or not started).
			if _, err := f.w.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
				t.Fatal(err)
			}
			log := plog.NewRedoLog(f.w, testLogBase, testLogSize)
			if err := log.Open(true); err != nil {
				t.Fatal(err)
			}
			f.b = txn.NewBatch(f.w, log)
		}

		for step := 0; step < 300; step++ {
			off := testUserBase + uint64(rng.Intn(256))*64
			switch rng.Intn(5) {
			case 0, 1: // insert
				if _, ok := model[off]; ok {
					continue
				}
				_, err := f.m.Insert(f.b, off, 64, StatusAllocated)
				if errors.Is(err, ErrNoSlot) {
					if extended {
						continue
					}
					if err := f.m.ExtendLevel(f.b); err != nil {
						t.Fatal(err)
					}
					extended = true
					if _, err := f.m.Insert(f.b, off, 64, StatusAllocated); err != nil {
						t.Fatal(err)
					}
				} else if err != nil {
					t.Fatal(err)
				}
				f.commit(t)
				model[off] = 64
			case 2: // delete
				if _, ok := model[off]; !ok {
					continue
				}
				slot, err := f.m.Lookup(f.w, off)
				if err != nil {
					t.Fatalf("seed %d step %d: model has %#x but table lost it: %v", seed, step, off, err)
				}
				if err := f.m.Delete(f.b, slot); err != nil {
					t.Fatal(err)
				}
				f.commit(t)
				delete(model, off)
			case 3: // lookup
				slot, err := f.m.Lookup(f.w, off)
				if _, ok := model[off]; ok {
					if err != nil {
						t.Fatalf("seed %d step %d: lookup(%#x): %v", seed, step, off, err)
					}
					rec, err := f.m.ReadRecord(f.w, slot)
					if err != nil {
						t.Fatal(err)
					}
					if rec.BlockOff != off {
						t.Fatalf("record key %#x, want %#x", rec.BlockOff, off)
					}
				} else if !errors.Is(err, ErrNotFound) {
					t.Fatalf("seed %d step %d: ghost record %#x (err=%v)", seed, step, off, err)
				}
			case 4:
				if rng.Intn(10) == 0 {
					reopen()
				}
			}
		}
		// Final audit via ForEachRecord.
		count := 0
		err := f.m.ForEachRecord(f.w, func(rec Record) error {
			count++
			if _, ok := model[rec.BlockOff]; !ok {
				t.Fatalf("seed %d: ghost record %#x", seed, rec.BlockOff)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != len(model) {
			t.Fatalf("seed %d: table has %d records, model %d", seed, count, len(model))
		}
	}
}
