package memblock

import (
	"fmt"
	"math/rand"
	"testing"

	"poseidon/internal/mpk"
	"poseidon/internal/nvm"
	"poseidon/internal/plog"
	"poseidon/internal/txn"
)

func benchTable(b *testing.B, metaBytes, userBytes uint64, blocks int) (*Manager, mpk.Window, []uint64) {
	b.Helper()
	d, err := nvm.NewDevice(nvm.Options{Capacity: 1<<20 + metaBytes + userBytes + 64<<20})
	if err != nil {
		b.Fatal(err)
	}
	u := mpk.NewUnit(d.Capacity())
	w := mpk.NewWindow(d, u.NewThread(mpk.RightsRW))
	g, err := ComputeGeometry(1<<20, metaBytes, 1<<20+metaBytes, userBytes)
	if err != nil {
		b.Fatal(err)
	}
	m := NewManager(w, g)
	if err := m.Format(); err != nil {
		b.Fatal(err)
	}
	log := plog.NewRedoLog(w, 0, 1<<20)
	if err := log.Open(false); err != nil {
		b.Fatal(err)
	}
	batch := txn.NewBatch(w, log)
	offs := make([]uint64, blocks)
	for i := 0; i < blocks; i++ {
		off := g.UserBase + uint64(i)*64
		offs[i] = off
		_, err := m.Insert(batch, off, 64, StatusAllocated)
		for err == ErrNoSlot {
			if err = m.ExtendLevel(batch); err != nil {
				b.Fatal(err)
			}
			_, err = m.Insert(batch, off, 64, StatusAllocated)
		}
		if err != nil {
			b.Fatal(err)
		}
		if batch.Len() > 512 {
			if err := batch.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := batch.Commit(); err != nil {
		b.Fatal(err)
	}
	// Shuffle so the measurement samples all levels uniformly (insertion
	// order correlates with level depth).
	rng := rand.New(rand.NewSource(9))
	rng.Shuffle(len(offs), func(i, j int) { offs[i], offs[j] = offs[j], offs[i] })
	return m, w, offs
}

// BenchmarkLookupVsPoolSize is the §4.7 claim as stated: with a fixed live
// population, lookup cost does not depend on the pool (heap) size — the
// hash table is keyed by offset, never scanned. Contrast PMDK's free-list
// rebuild (pmdkalloc.BenchmarkRebuildVsPoolSize), which walks the whole
// pool's chunk headers.
func BenchmarkLookupVsPoolSize(b *testing.B) {
	const blocks = 10_000
	for _, userBytes := range []uint64{64 << 20, 1 << 30, 16 << 30} {
		b.Run(fmt.Sprintf("pool=%dMiB", userBytes>>20), func(b *testing.B) {
			m, w, offs := benchTable(b, 16<<20, userBytes, blocks)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Lookup(w, offs[i%blocks]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLookupVsPopulation documents the table's other axis honestly:
// as the live-block population grows, keys overflow into higher levels and
// a lookup walks more (bounded) probe windows — constant with respect to
// capacity, but a growing constant with respect to load. The paper's
// "constant time" claim is about pool size; this is the level-walk
// trade-off of the multi-level design (§8 hints at "a more advanced index
// scheme" for exactly this reason).
func BenchmarkLookupVsPopulation(b *testing.B) {
	for _, blocks := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			m, w, offs := benchTable(b, 16<<20, 64<<20, blocks)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Lookup(w, offs[i%blocks]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
