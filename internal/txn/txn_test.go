package txn

import (
	"bytes"
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
	log, err := openLog(w, false)
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

// openLog attaches the test log, replaying its newest record with replay.
func openLog(w mpk.Window, replay bool) (*plog.RedoLog, error) {
	log := plog.NewRedoLog(w, logBase, logSize)
	return log, log.Open(replay)
}

func TestCommitIsAtomicUnderCrash(t *testing.T) {
	// A hook failure stops the commit before its record: nothing changes.
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
	errBoom := errors.New("boom")
	err := b.CommitWith(func() error { return errBoom })
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := w.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.5, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	// Recovery: reopen the log and replay its newest record.
	if _, err := openLog(w, true); err != nil {
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
	log, err := openLog(w, false)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := log.Pending(); err != nil || n != 0 {
		t.Fatalf("committed batch left %d words out of place (%v)", n, err)
	}
	for i := uint64(0); i < 4; i++ {
		v, _ := w.ReadU64(metaBase + i*512)
		if v != 7*i+1 {
			t.Fatalf("word %d lost: %d", i, v)
		}
	}
}

// TestFailedFlushSettles fails the flush of a commit's store while the
// store itself passes: in the applied word's line, through a fault on a
// word that shares the line but lies outside the store, or in the
// record's line, through a seeded fault stream that spares the record's
// store and hits its flush (both cover the same bytes). CommitWith must
// settle the commit durably. When the settle fails too, the commit is in
// doubt, and reopening the log with replay — what a sub-heap's next
// ensureReady does — must settle it. Either way, after zero, one or two
// more commits (the second reuses the record's slot) an EvictNone crash
// must still recover the committed value, which the two records before it
// gave other values.
func TestFailedFlushSettles(t *testing.T) {
	const x = metaBase // the word the faulted commit sets
	// One staged word makes a 56-byte record image. The faulted commit is
	// generation 3, in slot 1.
	cases := []struct {
		name    string
		f       nvm.TransientFaults
		inDoubt bool
	}{
		{"applied line", nvm.TransientFaults{Off: x + 8, Len: 8, MaxFaults: 1}, false},
		{"record line", nvm.TransientFaults{Off: logBase + logSize/2, Len: 56, Prob: 0.5, MaxFaults: 1}, false},
		{"applied line, settle", nvm.TransientFaults{Off: x, Len: 16, Prob: 0.5, MaxFaults: 2}, true},
	}
	for _, c := range cases {
		for extra := 0; extra <= 2; extra++ {
			t.Run(fmt.Sprintf("%s/%d more", c.name, extra), func(t *testing.T) {
				var b *Batch
				var w mpk.Window
				commit := func(off, v uint64) error {
					if err := b.WriteU64(off, v); err != nil {
						t.Fatal(err)
					}
					return b.Commit()
				}
				for seed := int64(1); ; seed++ {
					b, w = newBatch(t)
					for v := uint64(1); v <= 2; v++ {
						if err := commit(x, v); err != nil {
							t.Fatal(err)
						}
					}
					f := c.f
					f.Writes, f.Seed = true, seed
					w.Device().ArmTransientFaults(f)
					err := commit(x, 3)
					n := w.Device().TransientFaultsInjected()
					w.Device().DisarmTransientFaults()
					cached, _ := w.ReadU64(x)
					if !c.inDoubt && err == nil && n == 1 {
						break // the flush failed and the commit settled
					}
					if c.inDoubt && errors.Is(err, plog.ErrInDoubt) && cached == 3 {
						// The word is stored, perhaps never flushed, and the
						// settle failed.
						b.Abort()
						if err := b.log.Open(true); err != nil {
							t.Fatal(err)
						}
						break
					}
					// Otherwise the store failed (the commit aborted) or
					// nothing did: try the next seed.
					if seed == 64 {
						t.Fatalf("no seed up to %d faults as wanted: %v, %d faults injected", seed, err, n)
					}
				}
				for i := 0; i < extra; i++ {
					if err := commit(metaBase+uint64(1+i)*1024, 9); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := w.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
					t.Fatal(err)
				}
				if _, err := openLog(w, true); err != nil {
					t.Fatal(err)
				}
				if v, _ := w.ReadU64(x); v != 3 {
					t.Fatalf("committed word = %d after the crash, want 3", v)
				}
				for i := 0; i < extra; i++ {
					if v, _ := w.ReadU64(metaBase + uint64(1+i)*1024); v != 9 {
						t.Fatalf("later commit %d lost: %d", i, v)
					}
				}
			})
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
			log, err := openLog(w, false)
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
			errStop := errors.New("stop before the record")
			if err := b.CommitWith(func() error { return errStop }); !errors.Is(err, errStop) {
				t.Fatal(err)
			}
		}
		if _, err := w.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.4, Seed: seed * 31}); err != nil {
			t.Fatal(err)
		}
		if _, err := openLog(w, true); err != nil {
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

// tornPrior are the commits before the one TestTornCommitSweep tears, and
// tornCur that commit: it overwrites two of the three words the last prior
// commit wrote, so recovery must pick the right records and replay both.
var (
	tornPrior = [][]plog.Word{
		{{Off: metaBase, Val: 11}, {Off: metaBase + 8, Val: 12}, {Off: metaBase + 64, Val: 13}},
		{{Off: metaBase + 8, Val: 21}, {Off: metaBase + 128, Val: 22}},
		{{Off: metaBase, Val: 31}, {Off: metaBase + 136, Val: 32}, {Off: metaBase + 192, Val: 33}},
	}
	tornCur = []plog.Word{{Off: metaBase, Val: 41}, {Off: metaBase + 8, Val: 42}, {Off: metaBase + 136, Val: 43}}
)

// tornState returns every touched word's value after the given commits.
func tornState(commits ...[]plog.Word) map[uint64]uint64 {
	m := map[uint64]uint64{}
	for _, c := range append(tornPrior, tornCur) {
		for _, x := range c {
			m[x.Off] = 0
		}
	}
	for _, c := range commits {
		for _, x := range c {
			m[x.Off] = x.Val
		}
	}
	return m
}

func stageWords(t *testing.T, b *Batch, ws []plog.Word) {
	t.Helper()
	for _, x := range ws {
		if err := b.WriteU64(x.Off, x.Val); err != nil {
			t.Fatal(err)
		}
	}
}

// recovered reopens the log with replay and reports whether the touched
// words equal want.
func recovered(t *testing.T, w mpk.Window, want map[uint64]uint64) bool {
	t.Helper()
	if _, err := openLog(w, true); err != nil {
		t.Fatal(err)
	}
	for off, v := range want {
		if got, _ := w.ReadU64(off); got != v {
			return false
		}
	}
	return true
}

// TestTornCommitSweep crashes one commit in every state the protocol lets
// the media hold, and recovery must give exactly the pre-commit or the
// post-commit words:
//   - before the commit's fence: any subset of its record's words, and any
//     subset of the previous commit's applied lines (flushed, not yet
//     fenced), may be durable — recovery must give the pre-commit words,
//     or the post-commit ones if eviction carried the whole record;
//   - after it: the whole record and any subset of its applied lines —
//     recovery must give the post-commit words;
//   - a device failure at every op of the commit, crashed under every
//     eviction mode — either, and post-commit whenever Commit returned nil.
func TestTornCommitSweep(t *testing.T) {
	pre, post := tornState(tornPrior...), tornState(append(tornPrior, tornCur)...)
	const span = 256 // the data words live in [metaBase, metaBase+span)
	read := func(w mpk.Window, off, n uint64) []byte {
		b := make([]byte, n)
		if err := w.Read(off, b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	b, w := newBatch(t)
	var d2, d3, l3 []byte
	for i, c := range tornPrior {
		if i == 2 {
			d2 = read(w, metaBase, span)
		}
		stageWords(t, b, c)
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	d3, l3 = read(w, metaBase, span), read(w, logBase, logSize)
	stageWords(t, b, tornCur)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	d4, l4 := read(w, metaBase, span), read(w, logBase, logSize)

	diffs := func(a, b []byte, unit int) []int {
		var out []int
		for i := 0; i < len(a); i += unit {
			if !bytes.Equal(a[i:i+unit], b[i:i+unit]) {
				out = append(out, i)
			}
		}
		return out
	}
	recWords, prevLines, curLines := diffs(l3, l4, 8), diffs(d2, d3, 64), diffs(d3, d4, 64)
	if len(recWords) < 8 || len(prevLines) != 3 || len(curLines) != 2 {
		t.Fatalf("unexpected shape: %d record words, %d and %d applied lines", len(recWords), len(prevLines), len(curLines))
	}
	persist := func(off uint64, src []byte) {
		if err := w.Persist(off, src); err != nil {
			t.Fatal(err)
		}
	}

	// Before the fence.
	for mask := 0; mask < 1<<(len(recWords)+len(prevLines)); mask++ {
		persist(logBase, l3)
		persist(metaBase, d3)
		for i, at := range recWords {
			if mask&(1<<i) != 0 {
				persist(logBase+uint64(at), l4[at:at+8])
			}
		}
		for j, at := range prevLines {
			if mask&(1<<(len(recWords)+j)) != 0 {
				persist(metaBase+uint64(at), d2[at:at+64])
			}
		}
		want, what := pre, "pre"
		if whole := 1<<len(recWords) - 1; mask&whole == whole {
			want, what = post, "post"
		}
		if !recovered(t, w, want) {
			t.Fatalf("record/line mask %#b: recovery did not give the %s-commit words", mask, what)
		}
	}
	// After the fence.
	for mask := 0; mask < 1<<len(curLines); mask++ {
		persist(logBase, l4)
		persist(metaBase, d3)
		for j, at := range curLines {
			if mask&(1<<j) != 0 {
				persist(metaBase+uint64(at), d4[at:at+64])
			}
		}
		if !recovered(t, w, post) {
			t.Fatalf("complete record, applied-line mask %#b: recovery did not give the post-commit words", mask)
		}
	}

	// Device failure at every op, every eviction mode.
	for _, mode := range []nvm.EvictMode{nvm.EvictNone, nvm.EvictAll, nvm.EvictRandom, nvm.EvictTorn} {
		for budget := int64(0); ; budget++ {
			b, w := newBatch(t)
			for _, c := range tornPrior {
				stageWords(t, b, c)
				if err := b.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			stageWords(t, b, tornCur)
			w.Device().FailAfter(budget)
			err := b.Commit()
			w.Device().DisarmFailpoint()
			if _, cerr := w.Device().Crash(nvm.CrashPolicy{Mode: mode, Prob: 0.5, Seed: budget}); cerr != nil {
				t.Fatal(cerr)
			}
			isPost := recovered(t, w, post)
			if !isPost && (err == nil || !recovered(t, w, pre)) {
				t.Fatalf("mode %s, budget %d (commit err %v): recovered neither state", mode, budget, err)
			}
			if err == nil {
				break
			}
		}
	}
}
