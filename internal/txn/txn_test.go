package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
	"poseidon/internal/plog"
)

const (
	logBase  = 0
	logSize  = 32 * 1024
	metaBase = 64 * 1024
)

func newBatch(t *testing.T) (*Batch, mpk.Window) {
	t.Helper()
	d, err := nvm.NewDevice(nvm.Options{Capacity: 1 << 20, CrashTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	u := mpk.NewUnit(d.Capacity())
	w := mpk.NewWindow(d, u.NewThread(mpk.RightsRW))
	log, err := plog.OpenUndoLog(w, logBase, logSize)
	if err != nil {
		t.Fatal(err)
	}
	return NewBatch(w, log), w
}

func TestReadYourWrites(t *testing.T) {
	b, w := newBatch(t)
	if err := w.PersistU64(metaBase, 10); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.ReadU64(metaBase); v != 10 {
		t.Fatalf("pre-stage read = %d", v)
	}
	if err := b.WriteU64(metaBase, 20); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.ReadU64(metaBase); v != 20 {
		t.Fatalf("staged read = %d, want 20", v)
	}
	// Device still has the old value until commit.
	if v, _ := w.ReadU64(metaBase); v != 10 {
		t.Fatalf("device leaked staged write: %d", v)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := w.ReadU64(metaBase); v != 20 {
		t.Fatalf("post-commit device = %d", v)
	}
}

func TestUnalignedWriteRejected(t *testing.T) {
	b, _ := newBatch(t)
	if err := b.WriteU64(metaBase+3, 1); err == nil {
		t.Fatal("want error for unaligned write")
	}
}

func TestAbortDropsWrites(t *testing.T) {
	b, w := newBatch(t)
	if err := b.WriteU64(metaBase, 99); err != nil {
		t.Fatal(err)
	}
	b.Abort()
	if b.Len() != 0 {
		t.Fatalf("len after abort = %d", b.Len())
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := w.ReadU64(metaBase); v != 0 {
		t.Fatalf("aborted write reached device: %d", v)
	}
}

func TestEmptyCommitRunsHook(t *testing.T) {
	b, _ := newBatch(t)
	ran := false
	if err := b.CommitWith(func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("hook not run on empty commit")
	}
}

func TestCommitIsAtomicUnderCrash(t *testing.T) {
	// Crash after commit's stores but before truncation: replay restores.
	b, w := newBatch(t)
	for i := uint64(0); i < 8; i++ {
		if err := w.PersistU64(metaBase+i*8, i+1); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 8; i++ {
		if err := b.WriteU64(metaBase+i*8, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	// Make the commit "crash" before truncating by using the hook.
	errBoom := errors.New("boom")
	err := b.CommitWith(func() error { return errBoom })
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := w.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.5, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	// Recovery: reopen log and replay.
	log, err := plog.OpenUndoLog(w, logBase, logSize)
	if err != nil {
		t.Fatal(err)
	}
	if log.IsEmpty() {
		t.Fatal("undo log should hold the interrupted operation")
	}
	if err := log.Replay(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		v, _ := w.ReadU64(metaBase + i*8)
		if v != i+1 {
			t.Fatalf("word %d = %d, want %d (partial commit leaked)", i, v, i+1)
		}
	}
}

func TestCommittedBatchSurvivesCrash(t *testing.T) {
	b, w := newBatch(t)
	for i := uint64(0); i < 4; i++ {
		if err := b.WriteU64(metaBase+i*512, 7*i+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		t.Fatal(err)
	}
	log, err := plog.OpenUndoLog(w, logBase, logSize)
	if err != nil {
		t.Fatal(err)
	}
	if !log.IsEmpty() {
		t.Fatal("committed batch left a dirty log")
	}
	for i := uint64(0); i < 4; i++ {
		v, _ := w.ReadU64(metaBase + i*512)
		if v != 7*i+1 {
			t.Fatalf("word %d lost: %d", i, v)
		}
	}
}

func TestBatchReusableAfterCommit(t *testing.T) {
	b, w := newBatch(t)
	if err := b.WriteU64(metaBase, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteU64(metaBase+8, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	v1, _ := w.ReadU64(metaBase)
	v2, _ := w.ReadU64(metaBase + 8)
	if v1 != 1 || v2 != 2 {
		t.Fatalf("values = %d,%d", v1, v2)
	}

	// A batch past findIndexMin words looks staged words up through its
	// hash index (multi-block refills and repair chunks get this large).
	// Re-staging, read-your-writes, abort and reuse must all behave as on
	// the linear path.
	const n = 2 * findIndexMin
	stageAll := func(base uint64) {
		t.Helper()
		for i := uint64(0); i < n; i++ {
			if err := b.WriteU64(metaBase+i*8, base+i); err != nil {
				t.Fatal(err)
			}
		}
	}
	stageAll(100)
	if err := b.WriteU64(metaBase+5*8, 7); err != nil { // re-stage, index active
		t.Fatal(err)
	}
	if b.Len() != n {
		t.Fatalf("len after re-stage = %d, want %d", b.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		want := 100 + i
		if i == 5 {
			want = 7
		}
		if v, _ := b.ReadU64(metaBase + i*8); v != want {
			t.Fatalf("staged word %d = %d, want %d", i, v, want)
		}
	}
	b.Abort()
	if v, _ := b.ReadU64(metaBase + 5*8); v != 0 {
		t.Fatalf("aborted word 5 read %d, want device 0", v)
	}
	stageAll(200)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if v, _ := w.ReadU64(metaBase + i*8); v != 200+i {
			t.Fatalf("reused batch word %d = %d, want %d", i, v, 200+i)
		}
	}
}

// BenchmarkBatchFind guards the staged-word lookup: WriteU64 re-staging and
// ReadU64 both search the staged set, and the open-addressed index must
// keep large batches (magazine refills, repair chunks) from going
// quadratic.
func BenchmarkBatchFind(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("words=%d", n), func(b *testing.B) {
			d, err := nvm.NewDevice(nvm.Options{Capacity: 1 << 20})
			if err != nil {
				b.Fatal(err)
			}
			u := mpk.NewUnit(d.Capacity())
			w := mpk.NewWindow(d, u.NewThread(mpk.RightsRW))
			log, err := plog.OpenUndoLog(w, logBase, logSize)
			if err != nil {
				b.Fatal(err)
			}
			batch := NewBatch(w, log)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					if err := batch.WriteU64(metaBase+uint64(j)*8, uint64(j)); err != nil {
						b.Fatal(err)
					}
				}
				// Hit every staged word once: the read path is the scan the
				// index exists for.
				for j := 0; j < n; j++ {
					if _, err := batch.ReadU64(metaBase + uint64(j)*8); err != nil {
						b.Fatal(err)
					}
				}
				batch.Abort()
			}
		})
	}
}

// Property: at any crash point with any eviction, the metadata is either
// fully pre-batch or fully post-batch for committed batches; never mixed.
func TestCrashAtomicityProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, w := newBatch(t)

		// Initial state: words hold their index+1.
		const words = 32
		for i := uint64(0); i < words; i++ {
			if err := w.PersistU64(metaBase+i*8, i+1); err != nil {
				t.Fatal(err)
			}
		}
		// Stage a random subset with recognisable values.
		staged := map[uint64]bool{}
		for i := 0; i < rng.Intn(16)+1; i++ {
			word := uint64(rng.Intn(words))
			staged[word] = true
			if err := b.WriteU64(metaBase+word*8, 1000+word); err != nil {
				t.Fatal(err)
			}
		}
		truncated := rng.Intn(2) == 0
		if truncated {
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			errStop := errors.New("stop before truncate")
			if err := b.CommitWith(func() error { return errStop }); !errors.Is(err, errStop) {
				t.Fatal(err)
			}
		}
		if _, err := w.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.4, Seed: seed * 31}); err != nil {
			t.Fatal(err)
		}
		log, err := plog.OpenUndoLog(w, logBase, logSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Replay(); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < words; i++ {
			v, _ := w.ReadU64(metaBase + i*8)
			want := i + 1
			if truncated && staged[i] {
				want = 1000 + i
			}
			if v != want {
				t.Fatalf("seed %d truncated=%v word %d = %d, want %d",
					seed, truncated, i, v, want)
			}
		}
	}
}
