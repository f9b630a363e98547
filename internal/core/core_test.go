package core

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
	"poseidon/internal/obs"
	"poseidon/internal/plog"
)

// testOptions is a small, fast heap with crash tracking on.
func testOptions() Options {
	return Options{
		Subheaps:        2,
		SubheapUserSize: 1 << 20, // 1 MiB user per sub-heap
		SubheapMetaSize: 256 << 10,
		UndoLogSize:     64 << 10,
		MaxThreads:      8,
		HeapID:          0xABCDE,
		CrashTracking:   true,
	}
}

func newTestHeap(t *testing.T) *Heap {
	t.Helper()
	h, err := Create(testOptions())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return h
}

func newThread(t *testing.T, h *Heap) *Thread {
	t.Helper()
	th, err := h.Thread()
	if err != nil {
		t.Fatalf("Thread: %v", err)
	}
	return th
}

// reload simulates a restart: crash the device with the given policy and
// Load a fresh heap over it (runs recovery).
func reload(t *testing.T, h *Heap, policy nvm.CrashPolicy) *Heap {
	t.Helper()
	if _, err := h.Device().Crash(policy); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	_ = h.Close()
	h2, err := Load(h.Device(), testOptions())
	if err != nil {
		t.Fatalf("Load after crash: %v", err)
	}
	return h2
}

// auditHeap runs the full consistency audit (Heap.Check) and fails the
// test on any structural problem.
func auditHeap(t *testing.T, h *Heap) {
	t.Helper()
	report, err := h.Check()
	if err != nil {
		t.Fatalf("heap audit: %v", err)
	}
	if !report.OK() {
		t.Fatalf("heap audit found %d problems: %v", len(report.Problems), report.Problems)
	}
}

// checkHeap runs the audit and returns the report, failing on I/O errors.
func checkHeap(t *testing.T, h *Heap) CheckReport {
	t.Helper()
	report, err := h.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return report
}

func TestCreateAndBasicAllocFree(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	defer th.Close()

	p, err := th.Alloc(100)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if p.IsNull() {
		t.Fatal("null pointer returned")
	}
	if p.HeapID != h.HeapID() {
		t.Fatalf("heap id %#x, want %#x", p.HeapID, h.HeapID())
	}
	size, err := th.BlockSize(p)
	if err != nil {
		t.Fatal(err)
	}
	if size != 128 { // 100 rounds to the 128 B class
		t.Fatalf("block size = %d, want 128", size)
	}
	if err := th.Free(p); err != nil {
		t.Fatalf("Free: %v", err)
	}
	auditHeap(t, h)
}

func TestAllocSizeBounds(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	defer th.Close()
	if _, err := th.Alloc(0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("Alloc(0): %v", err)
	}
	if _, err := th.Alloc(testOptions().SubheapUserSize + 1); !errors.Is(err, ErrBadSize) {
		t.Fatalf("oversized alloc: %v", err)
	}
	// Allocating exactly the whole sub-heap works once.
	p, err := th.Alloc(testOptions().SubheapUserSize)
	if err != nil {
		t.Fatalf("whole-region alloc: %v", err)
	}
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	defer th.Close()
	rng := rand.New(rand.NewSource(1))
	type alloc struct {
		p    NVMPtr
		size uint64
	}
	var live []alloc
	for i := 0; i < 400; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			if err := th.Free(live[k].p); err != nil {
				t.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		size := uint64(rng.Intn(4096) + 1)
		p, err := th.Alloc(size)
		if errors.Is(err, ErrOutOfMemory) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, alloc{p, size})
	}
	// Overlap check via raw offsets.
	type span struct{ lo, hi uint64 }
	var spans []span
	for _, a := range live {
		dev, err := h.RawOffset(a.p)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := th.BlockSize(a.p)
		if err != nil {
			t.Fatal(err)
		}
		if bs < a.size {
			t.Fatalf("block smaller than requested: %d < %d", bs, a.size)
		}
		spans = append(spans, span{dev, dev + bs})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("blocks overlap: [%#x,%#x) and [%#x,%#x)",
					spans[i].lo, spans[i].hi, spans[j].lo, spans[j].hi)
			}
		}
	}
	auditHeap(t, h)
}

func TestDataRoundTrip(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	defer th.Close()
	p, err := th.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("poseidon"), 32)
	if err := th.Persist(p, 0, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := th.Read(p, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data mismatch")
	}
	if err := th.WriteU64(p, 8, 42); err != nil {
		t.Fatal(err)
	}
	if v, _ := th.ReadU64(p, 8); v != 42 {
		t.Fatalf("u64 = %d", v)
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	defer th.Close()
	p, err := th.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(p); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("second free: %v, want ErrDoubleFree", err)
	}
	if got := h.Stats().DoubleFrees; got != 1 {
		t.Fatalf("double-free counter = %d", got)
	}
	auditHeap(t, h)
}

func TestInvalidFreeRejected(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	defer th.Close()
	p, err := th.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	// Interior pointer: not a block start.
	interior := makePtr(h.HeapID(), p.Subheap(), p.Offset()+64)
	if err := th.Free(interior); !errors.Is(err, ErrInvalidFree) {
		t.Fatalf("interior free: %v, want ErrInvalidFree", err)
	}
	// Wrong heap ID.
	foreign := makePtr(h.HeapID()+1, 0, 0)
	if err := th.Free(foreign); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("foreign free: %v, want ErrBadPointer", err)
	}
	// Out-of-range sub-heap.
	badSub := makePtr(h.HeapID(), 200, 0)
	if err := th.Free(badSub); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("bad sub-heap free: %v, want ErrBadPointer", err)
	}
	if got := h.Stats().InvalidFrees; got != 1 {
		t.Fatalf("invalid-free counter = %d", got)
	}
	// The original block is untouched and still freeable.
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
	auditHeap(t, h)
}

// TestCrossShardFreeRejectedAtCall pins the API-misuse protection of frees
// across sub-heaps of blocks no magazine popped — a committed TxAlloc and a
// block above the magazined classes. Each takes the owner's lock (§5.7),
// so a double free returns ErrDoubleFree and an interior pointer
// ErrInvalidFree from Free itself, and leaves the census unchanged.
// TestRemoteFreeRejectedTelemetry checks how such rejects are journalled.
func TestCrossShardFreeRejectedAtCall(t *testing.T) {
	h := newTestHeap(t)
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
	tx, err := th0.TxAlloc(128, true)
	if err != nil {
		t.Fatal(err)
	}
	big, err := th0.Alloc(64 << h.opts.Magazines.Classes)
	if err != nil {
		t.Fatal(err)
	}
	live, err := th0.TxAlloc(256, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []NVMPtr{tx, big} {
		if err := th1.Free(p); err != nil {
			t.Fatalf("cross-shard free of %v: %v", p, err)
		}
	}
	census := checkHeap(t, h).AllocatedBlocks

	for _, p := range []NVMPtr{tx, big} {
		if err := th1.Free(p); !errors.Is(err, ErrDoubleFree) {
			t.Fatalf("cross-shard double free of %v = %v, want ErrDoubleFree", p, err)
		}
	}
	interior := makePtr(h.HeapID(), live.Subheap(), live.Offset()+64)
	if err := th1.Free(interior); !errors.Is(err, ErrInvalidFree) {
		t.Fatalf("cross-shard interior free = %v, want ErrInvalidFree", err)
	}

	if st := h.Stats(); st.DoubleFrees != 2 || st.InvalidFrees != 1 || st.MagazineHits != 0 {
		t.Fatalf("DoubleFrees = %d, InvalidFrees = %d, MagazineHits = %d; want 2, 1, 0",
			st.DoubleFrees, st.InvalidFrees, st.MagazineHits)
	}
	if report := checkHeap(t, h); !report.OK() || report.AllocatedBlocks != census {
		t.Fatalf("census %d -> %d after the rejects, problems = %v",
			census, report.AllocatedBlocks, report.Problems)
	}
}

// TestRemoteFreeDisabledByDefault checks that no free is deferred: a
// cross-shard free of a popped block goes into the freeing thread's
// magazine, its double free is reported by Free itself, and the always-0
// RemoteFrees counter stays 0.
func TestRemoteFreeDisabledByDefault(t *testing.T) {
	h := newTestHeap(t)
	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	th1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	defer th0.Close()
	defer th1.Close()
	p, err := th0.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := th1.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := th1.Free(p); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("second Free = %v, want ErrDoubleFree synchronously", err)
	}
	if st := h.Stats(); st.RemoteFrees != 0 {
		t.Fatalf("RemoteFrees = %d, want 0", st.RemoteFrees)
	}
	auditHeap(t, h)
}

// TestRemoteFreeRejectedTelemetry checks that a rejected free, same-shard
// or across sub-heaps, is journalled as EventFreeRejected on the owner's
// sub-heap and adds no OpFree latency sample: the sample would measure the
// validation path, not a free.
func TestRemoteFreeRejectedTelemetry(t *testing.T) {
	tel := obs.New()
	opts := testOptions()
	opts.Telemetry = tel
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	th0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	th1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	defer th0.Close()
	defer th1.Close()
	rejects := func() (n int) {
		for _, e := range tel.Events() {
			if e.Kind == obs.EventFreeRejected {
				if e.Subheap != 0 {
					t.Fatalf("reject journalled on sub-heap %d, want the owner 0", e.Subheap)
				}
				n++
			}
		}
		return n
	}

	p, err := th0.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	// Same-shard path validates synchronously.
	if err := th0.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := th0.Free(p); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free = %v", err)
	}
	if got := tel.Hist(obs.OpFree).Count; got != 1 {
		t.Fatalf("OpFree samples = %d after 1 accepted + 1 rejected free, want 1", got)
	}
	if got := rejects(); got != 1 {
		t.Fatalf("%d EventFreeRejected entries for the rejected free, want 1", got)
	}

	// A cross-shard free of a never-popped block takes the owner's lock.
	q, err := th0.TxAlloc(128, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := th1.Free(q); err != nil {
		t.Fatal(err)
	}
	freeSamples := tel.Hist(obs.OpFree).Count
	if err := th1.Free(q); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("cross-shard double free = %v, want ErrDoubleFree", err)
	}
	if got := tel.Hist(obs.OpFree).Count; got != freeSamples {
		t.Fatalf("OpFree samples = %d after the cross-shard reject, want %d", got, freeSamples)
	}
	if got := rejects(); got != 2 {
		t.Fatalf("%d EventFreeRejected entries after the cross-shard reject, want 2", got)
	}
	auditHeap(t, h)
}

func TestMetadataWriteBlockedByMPK(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	defer th.Close()
	if _, err := th.Alloc(64); err != nil {
		t.Fatal(err)
	}
	// A stray store to the sub-heap's metadata region must fault.
	metaOff := h.lay.subheapBase(th.Shard()) + 128
	var fault *mpk.ProtectionError
	func() {
		defer func() {
			if r := recover(); r != nil {
				pe, ok := r.(*mpk.ProtectionError)
				if !ok {
					panic(r)
				}
				fault = pe
			}
		}()
		_ = th.Window().WriteU64(metaOff, 0xBAD)
	}()
	if fault == nil {
		t.Fatal("stray metadata write did not fault")
	}
	if fault.Key != metadataKey {
		t.Fatalf("fault key = %d", fault.Key)
	}
	auditHeap(t, h)
}

func TestHeapOverflowIntoMetadataFaults(t *testing.T) {
	// The Figure 3 scenario against Poseidon: writing past the end of the
	// last block of a sub-heap's user region runs into the next sub-heap's
	// metadata and faults instead of corrupting it.
	h := newTestHeap(t)
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	p, err := th.Alloc(testOptions().SubheapUserSize) // the whole user region
	if err != nil {
		t.Fatal(err)
	}
	overflow := make([]byte, 8192) // spills past the user region
	faulted := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*mpk.ProtectionError); !ok {
					panic(r)
				}
				faulted = true
			}
		}()
		_ = th.Write(p, testOptions().SubheapUserSize-4096, overflow)
	}()
	if !faulted {
		t.Fatal("overflow into neighbouring metadata did not fault")
	}
}

func TestUserDataWritableWithoutFault(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	defer th.Close()
	p, err := th.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Write(p, 0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustionAndReuse(t *testing.T) {
	h := newTestHeap(t)
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	// Fill sub-heap 0 with 64 KiB blocks.
	var ptrs []NVMPtr
	for {
		p, err := th.Alloc(64 << 10)
		if errors.Is(err, ErrOutOfMemory) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	want := int(testOptions().SubheapUserSize / (64 << 10))
	if len(ptrs) != want {
		t.Fatalf("allocated %d blocks, want %d", len(ptrs), want)
	}
	// Free one; exactly one more allocation must succeed.
	if err := th.Free(ptrs[len(ptrs)/2]); err != nil {
		t.Fatal(err)
	}
	p, err := th.Alloc(64 << 10)
	if err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	if _, err := th.Alloc(64 << 10); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
	_ = p
	auditHeap(t, h)
}

func TestDefragmentationMergesBuddies(t *testing.T) {
	// A sub-heap small enough to fill completely with 64 B blocks: after
	// freeing them all, a whole-region allocation can only be satisfied by
	// merging buddies back up (§5.4 case 1).
	h, err := Create(Options{
		Subheaps:        1,
		SubheapUserSize: 64 << 10,
		SubheapMetaSize: 256 << 10,
		UndoLogSize:     64 << 10,
		HeapID:          3,
		CrashTracking:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	var ptrs []NVMPtr
	for i := 0; i < 1024; i++ {
		p, err := th.Alloc(64)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		ptrs = append(ptrs, p)
	}
	if _, err := th.Alloc(64); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("heap should be full, got %v", err)
	}
	for _, p := range ptrs {
		if err := th.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	p, err := th.Alloc(64 << 10)
	if err != nil {
		t.Fatalf("whole-region alloc after frees: %v", err)
	}
	if h.Stats().DefragMerges == 0 {
		t.Fatal("no defragmentation merges recorded")
	}
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
	auditHeap(t, h)
}

func TestFreeDelaysReuse(t *testing.T) {
	h := newTestHeap(t)
	th, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	// Two blocks of the same class on the free list: freeing a third and
	// allocating again must not hand back the just-freed block (tail
	// insertion, §5.5). TxAllocs take the locked path.
	a, _ := th.TxAlloc(64, true)
	b, _ := th.TxAlloc(64, true)
	c, _ := th.TxAlloc(64, true)
	if err := th.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(c); err != nil {
		t.Fatal(err)
	}
	got, err := th.TxAlloc(64, true)
	if err != nil {
		t.Fatal(err)
	}
	// The class-0 list held split remainders before a/b/c were appended, so
	// the only guarantee is that the most recently freed block is not the
	// one handed back.
	if got == c {
		t.Fatal("just-freed block reused immediately (tail insertion violated)")
	}
	_, _ = a, b
}

func TestRootPointer(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	defer th.Close()
	if root, err := h.Root(); err != nil || !root.IsNull() {
		t.Fatalf("fresh root = %v, %v", root, err)
	}
	p, err := th.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetRoot(p); err != nil {
		t.Fatal(err)
	}
	got, err := h.Root()
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("root = %v, want %v", got, p)
	}
	// Foreign pointers are rejected.
	if err := h.SetRoot(makePtr(12345, 0, 0)); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("foreign root: %v", err)
	}
}

// TestRootSurvivesRestart sets the root twice and restarts: Root must
// return the second pointer and its data. Then one byte of the root slot
// holding the newest generation is flipped, which must leave Root
// unchanged (the other slot holds the same value), and the same byte of
// the other slot, which must make Root fail with ErrCorruptHeap, Check
// list one Problem and Inspect print it.
func TestRootSurvivesRestart(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	first, err := th.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := th.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Persist(p, 0, []byte("root data")); err != nil {
		t.Fatal(err)
	}
	for _, r := range []NVMPtr{first, p} {
		if err := h.SetRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	th.Close()

	h2 := reload(t, h, nvm.CrashPolicy{Mode: nvm.EvictNone})
	root, err := h2.Root()
	if err != nil {
		t.Fatal(err)
	}
	if root != p {
		t.Fatalf("root after restart = %v, want %v", root, p)
	}
	th2 := newThread(t, h2)
	defer th2.Close()
	got := make([]byte, 9)
	if err := th2.Read(root, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "root data" {
		t.Fatalf("root data = %q", got)
	}

	// Damage the slot of the newest generation first, then the other.
	gen, _, _ := rootRecord.Read(h2.Device().Read)
	newest := int(gen & 1)
	flip := func(slot int) {
		t.Helper()
		off := rootRecord.Off(slot) + plog.SlotHeader
		v, err := h2.Device().ReadU8(off)
		if err != nil {
			t.Fatal(err)
		}
		if err := h2.Device().Persist(off, []byte{v ^ 0x10}); err != nil {
			t.Fatal(err)
		}
	}
	flip(newest)
	if root, err := h2.Root(); err != nil || root != p {
		t.Fatalf("root with its newest slot damaged = %v, %v; want %v", root, err, p)
	}
	flip(1 - newest)
	if root, err := h2.Root(); !errors.Is(err, ErrCorruptHeap) {
		t.Fatalf("root with both slots damaged = %v, %v; want ErrCorruptHeap", root, err)
	}
	if rep := checkHeap(t, h2); len(rep.Problems) != 1 {
		t.Fatalf("Check with both root slots damaged: problems %q, want one", rep.Problems)
	}
	var out bytes.Buffer
	if err := h2.Inspect(&out); err != nil || !strings.Contains(out.String(), "root record has no valid slot") {
		t.Fatalf("Inspect with both root slots damaged = %v:\n%s", err, out.String())
	}
}

func TestAllocationsSurviveRestart(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	var ptrs []NVMPtr
	for i := 0; i < 50; i++ {
		p, err := th.Alloc(uint64(64 << (i % 4)))
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	th.Close()

	h2 := reload(t, h, nvm.CrashPolicy{Mode: nvm.EvictNone})
	th2 := newThread(t, h2)
	defer th2.Close()
	// Every block is still allocated: freeing succeeds exactly once.
	for _, p := range ptrs {
		if err := th2.Free(p); err != nil {
			t.Fatalf("free after restart: %v", err)
		}
	}
	auditHeap(t, h2)
}

func TestTxAllocCommitted(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	p1, err := th.TxAlloc(64, false)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := th.TxAlloc(128, true) // commit
	if err != nil {
		t.Fatal(err)
	}
	th.Close()
	h2 := reload(t, h, nvm.CrashPolicy{Mode: nvm.EvictNone})
	th2 := newThread(t, h2)
	defer th2.Close()
	// Committed: both blocks survive.
	if err := th2.Free(p1); err != nil {
		t.Fatalf("p1 lost: %v", err)
	}
	if err := th2.Free(p2); err != nil {
		t.Fatalf("p2 lost: %v", err)
	}
	if h2.Stats().RecoveredBlocks != 0 {
		t.Fatalf("recovery freed %d blocks of a committed tx", h2.Stats().RecoveredBlocks)
	}
}

func TestTxAllocUncommittedRolledBack(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	p1, err := th.TxAlloc(64, false)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := th.TxAlloc(128, false) // never committed
	if err != nil {
		t.Fatal(err)
	}
	// Crash before is_end: recovery must free both (no leak, §4.5).
	h2 := reload(t, h, nvm.CrashPolicy{Mode: nvm.EvictNone})
	if got := h2.Stats().RecoveredBlocks; got != 2 {
		t.Fatalf("recovered %d blocks, want 2", got)
	}
	th2 := newThread(t, h2)
	defer th2.Close()
	// The blocks are free again: freeing them reports double free.
	if err := th2.Free(p1); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("p1 free after rollback: %v", err)
	}
	if err := th2.Free(p2); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("p2 free after rollback: %v", err)
	}
	auditHeap(t, h2)
}

func TestRecoveryIsIdempotent(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	if _, err := th.TxAlloc(64, false); err != nil {
		t.Fatal(err)
	}
	// First recovery.
	h2 := reload(t, h, nvm.CrashPolicy{Mode: nvm.EvictNone})
	// Crash immediately and recover again: replays must be no-ops.
	h3 := reload(t, h2, nvm.CrashPolicy{Mode: nvm.EvictNone})
	if got := h3.Stats().RecoveredBlocks + h3.Stats().RecoveredNoops; got != 0 {
		t.Fatalf("second recovery did work: %d", got)
	}
	auditHeap(t, h3)
}

func TestConcurrentAllocFree(t *testing.T) {
	h, err := Create(Options{
		Subheaps:        4,
		SubheapUserSize: 1 << 20,
		SubheapMetaSize: 256 << 10,
		UndoLogSize:     64 << 10,
		HeapID:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th, err := h.Thread()
			if err != nil {
				errs <- err
				return
			}
			defer th.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			var live []NVMPtr
			for i := 0; i < 500; i++ {
				if len(live) > 8 || (len(live) > 0 && rng.Intn(2) == 0) {
					k := rng.Intn(len(live))
					if err := th.Free(live[k]); err != nil {
						errs <- err
						return
					}
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				p, err := th.Alloc(uint64(rng.Intn(2048) + 1))
				if errors.Is(err, ErrOutOfMemory) {
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				live = append(live, p)
			}
			for _, p := range live {
				if err := th.Free(p); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	auditHeap(t, h)
}

func TestCrossThreadFree(t *testing.T) {
	h := newTestHeap(t)
	t0, err := h.ThreadOn(0)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	t1, err := h.ThreadOn(1)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	p, err := t0.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// Thread 1 frees a block owned by sub-heap 0.
	if err := t1.Free(p); err != nil {
		t.Fatalf("cross-thread free: %v", err)
	}
	auditHeap(t, h)
}

func TestThreadLaneExhaustionAndReuse(t *testing.T) {
	h := newTestHeap(t)
	var threads []*Thread
	for i := 0; i < testOptions().MaxThreads; i++ {
		th, err := h.Thread()
		if err != nil {
			t.Fatalf("thread %d: %v", i, err)
		}
		threads = append(threads, th)
	}
	if _, err := h.Thread(); !errors.Is(err, ErrNoThreads) {
		t.Fatalf("expected ErrNoThreads, got %v", err)
	}
	threads[0].Close()
	if _, err := h.Thread(); err != nil {
		t.Fatalf("thread after close: %v", err)
	}
	for _, th := range threads[1:] {
		th.Close()
	}
}

func TestClosedHeapAndThread(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	th.Close()
	if _, err := th.Alloc(64); !errors.Is(err, ErrClosed) {
		t.Fatalf("alloc on closed thread: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Thread(); !errors.Is(err, ErrClosed) {
		t.Fatalf("thread on closed heap: %v", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	p, err := th.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Persist(p, 0, []byte("durable!")); err != nil {
		t.Fatal(err)
	}
	if err := h.SetRoot(p); err != nil {
		t.Fatal(err)
	}
	th.Close()
	path := t.TempDir() + "/heap.img"
	if err := h.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	dev, err := nvm.LoadFile(path, nvm.Options{CrashTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Load(dev, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h2.HeapID() != h.HeapID() {
		t.Fatalf("heap id changed: %#x -> %#x", h.HeapID(), h2.HeapID())
	}
	root, err := h2.Root()
	if err != nil {
		t.Fatal(err)
	}
	th2 := newThread(t, h2)
	defer th2.Close()
	got := make([]byte, 8)
	if err := th2.Read(root, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable!" {
		t.Fatalf("data = %q", got)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dev, err := nvm.NewDevice(nvm.Options{Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dev, Options{}); !errors.Is(err, ErrCorruptHeap) {
		t.Fatalf("err = %v, want ErrCorruptHeap", err)
	}
}

func TestPtrCodecQuick(t *testing.T) {
	f := func(heapID uint64, sub uint16, off uint64) bool {
		off &= offsetMask
		p := makePtr(heapID, sub, off)
		return p.HeapID == heapID && p.Subheap() == sub && p.Offset() == off &&
			ptrFromWords(heapID, p.Loc()) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPtrString(t *testing.T) {
	if s := (NVMPtr{}).String(); s != "nvmptr(null)" {
		t.Fatalf("null string = %q", s)
	}
	p := makePtr(0xA, 3, 0x1000)
	if p.String() == "" || p.IsNull() {
		t.Fatal("non-null pointer misbehaves")
	}
}

func TestPtrTranslation(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	defer th.Close()
	p, err := th.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := h.RawOffset(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := h.PtrAt(dev)
	if err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("PtrAt(RawOffset(p)) = %v, want %v", back, p)
	}
	// Metadata offsets refuse to translate.
	if _, err := h.PtrAt(h.lay.subheapBase(0) + 64); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("metadata PtrAt: %v", err)
	}
	if _, err := h.RawOffset(NVMPtr{}); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("null RawOffset: %v", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Subheaps: -1},
		{SubheapUserSize: 3 << 20},                        // not a power of two
		{SubheapUserSize: 1 << 10},                        // too small
		{UndoLogSize: 4 << 10, SubheapMetaSize: 64 << 10}, // undo too small
	}
	for i, opts := range bad {
		if _, err := Create(opts); err == nil {
			t.Errorf("options %d accepted: %+v", i, opts)
		}
	}
}

// TestLoadAndAttachValidateOptions: reopening an image rejects every
// option Create rejects. A Load that accepted Magazines{Capacity: 1} let
// overflow move cap/2 = 0 blocks, so a class stack grew past its manifest
// window into the next lane's.
func TestLoadAndAttachValidateOptions(t *testing.T) {
	h := newTestHeap(t)
	dev := h.Device()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	bad := map[string]Options{
		"magazine capacity 1":        {Magazines: MagazineOptions{Capacity: 1, Classes: 1}},
		"magazine capacity 8192":     {Magazines: MagazineOptions{Capacity: 8192}},
		"magazine classes 65":        {Magazines: MagazineOptions{Capacity: 8, Classes: 65}},
		"negative profile rate":      {Profile: ProfileOptions{Rate: -5}},
		"profile without telemetry":  {Profile: ProfileOptions{Rate: 1}},
		"trace without telemetry":    {Trace: TraceOptions{Rate: 3}},
		"negative trace buffer":      {Trace: TraceOptions{Buffer: -1}},
		"watchdog without telemetry": {Watchdog: WatchdogOptions{StallThreshold: time.Second}},
		"negative scrub interval":    {OnlineScrub: OnlineScrubOptions{Interval: -time.Second}},
	}
	for name, opts := range bad {
		create := testOptions()
		create.Magazines, create.Profile, create.Trace = opts.Magazines, opts.Profile, opts.Trace
		create.Watchdog, create.OnlineScrub = opts.Watchdog, opts.OnlineScrub
		if _, err := Create(create); err == nil {
			t.Errorf("%s: Create accepted it", name)
		}
		if h, err := Load(dev, opts); err == nil {
			_ = h.Close()
			t.Errorf("%s: Load accepted it", name)
		}
		if h, err := Attach(dev, opts); err == nil {
			_ = h.Close()
			t.Errorf("%s: Attach accepted it", name)
		}
	}

	// The image's geometry overrides the Options fields: a user size too
	// wide for the cache manifest's 33-bit offset is not the image's.
	h, err := Load(dev, Options{SubheapUserSize: 1 << 40, Magazines: MagazineOptions{Capacity: 8}})
	if err != nil {
		t.Fatalf("Load judged the options' geometry instead of the image's: %v", err)
	}
	_ = h.Close()
}

func TestStatsCounters(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	defer th.Close()
	p, _ := th.Alloc(64)
	_ = th.Free(p)
	if _, err := th.TxAlloc(64, true); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Allocs != 1 || st.Frees != 1 || st.TxAllocs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PermissionSwitches == 0 {
		t.Fatal("no permission switches recorded under MPK")
	}
}

func TestProtectNoneSkipsSwitches(t *testing.T) {
	opts := testOptions()
	opts.Protection = ProtectNone
	h, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	th, err := h.Thread()
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	if _, err := th.Alloc(64); err != nil {
		t.Fatal(err)
	}
	if got := h.Stats().PermissionSwitches; got != 0 {
		t.Fatalf("switches = %d under ProtectNone", got)
	}
}

func TestTxAbandonDropsOpenTransaction(t *testing.T) {
	h := newTestHeap(t)
	th := newThread(t, h)
	p, err := th.TxAlloc(64, false)
	if err != nil {
		t.Fatal(err)
	}
	// Abandon: the log is dropped WITHOUT freeing the allocation — it
	// models an application that decides to keep the blocks (equivalent to
	// an is_end commit of what was logged so far).
	if err := th.TxAbandon(); err != nil {
		t.Fatal(err)
	}
	th.Close()
	h2 := reload(t, h, nvm.CrashPolicy{Mode: nvm.EvictNone})
	if got := h2.Stats().RecoveredBlocks; got != 0 {
		t.Fatalf("recovery rolled back %d blocks of an abandoned (committed) log", got)
	}
	th2 := newThread(t, h2)
	defer th2.Close()
	if err := th2.Free(p); err != nil {
		t.Fatalf("block lost: %v", err)
	}
	if h2.Subheaps() != testOptions().Subheaps {
		t.Fatalf("subheaps = %d", h2.Subheaps())
	}
}
