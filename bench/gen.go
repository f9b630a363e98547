package main

// Workload generators. They are copies, not imports, of the repository's
// benchmark loops (benchutil.MicroWorker, larson, ycsb.Zipf/KeyOf), so a
// change to internal/ cannot change the traffic this benchmark sends. Each
// generator is a pure function of its seed: it never looks at the heap.

import (
	"math"
	"math/rand"
)

// streamSeed derives worker w's stream seed for one workload.
func streamSeed(seed int64, workload string, w int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(w+1)*0xBF58476D1CE4E5B9
	for _, c := range workload {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return int64(h >> 1)
}

// microGen is the Figure 6 stream: rounds of 100 allocations and 100 frees
// in random order, never freeing from an empty window.
type microGen struct {
	rng           *rand.Rand
	live          int
	allocs, frees int
}

const microWindow = 100

func newMicroGen(seed int64) *microGen { return &microGen{rng: rand.New(rand.NewSource(seed))} }

// next returns true for an allocation, or false and the index of the live
// block to free (the caller swap-removes it).
func (g *microGen) next() (alloc bool, victim int) {
	if g.allocs == 0 && g.frees == 0 {
		g.allocs, g.frees = microWindow, microWindow
	}
	if g.allocs > 0 && (g.live == 0 || g.frees == 0 || g.rng.Intn(2) == 0) {
		g.allocs--
		g.live++
		return true, 0
	}
	victim = g.rng.Intn(g.live)
	g.frees--
	g.live--
	return false, victim
}

// larsonGen is one Larson worker's stream: a random shared slot and a
// random 8–512 B size per step.
type larsonGen struct {
	rng   *rand.Rand
	slots int
}

const larsonMin, larsonMax = 8, 512

func newLarsonGen(seed int64, slots int) *larsonGen {
	return &larsonGen{rng: rand.New(rand.NewSource(seed)), slots: slots}
}

func (g *larsonGen) next() (slot int, size uint64) {
	slot = g.rng.Intn(g.slots)
	return slot, larsonMin + uint64(g.rng.Int63n(larsonMax-larsonMin+1))
}

// txGen is the tx-mixed stream: transactions of txLen TxAllocs with
// log-uniform sizes from 64 B to 64 KiB; once fifoTxs transactions are live,
// the oldest one's blocks are freed before the next transaction starts.
type txGen struct {
	rng     *rand.Rand
	txs     int // committed transactions held in the FIFO
	pos     int // allocations made in the open transaction
	freeing int // blocks of the oldest transaction still to free
}

const (
	txLen    = 4
	fifoTxs  = 256
	txMinLog = 6  // 64 B
	txMaxLog = 16 // 64 KiB
)

func newTxGen(seed int64) *txGen { return &txGen{rng: rand.New(rand.NewSource(seed))} }

// next returns a free of the oldest transaction's next block, or an
// allocation of size bytes that commits the transaction when end is set.
func (g *txGen) next() (free bool, size uint64, end bool) {
	if g.pos == 0 && g.freeing == 0 && g.txs == fifoTxs {
		g.freeing = txLen
		g.txs--
	}
	if g.freeing > 0 {
		g.freeing--
		return true, 0, false
	}
	size = uint64(math.Exp2(txMinLog + (txMaxLog-txMinLog)*g.rng.Float64()))
	g.pos++
	if end = g.pos == txLen; end {
		g.pos = 0
		g.txs++
	}
	return false, size, end
}

// ycsbGen is YCSB workload A: 50% reads and 50% updates over a scrambled
// Zipfian (theta 0.99) key popularity.
type ycsbGen struct {
	zipf *zipf
	mix  *rand.Rand
	n    uint64
}

const zipfTheta = 0.99

func newYCSBGen(seed int64, n uint64) *ycsbGen {
	return &ycsbGen{zipf: newZipf(seed, n, zipfTheta), mix: rand.New(rand.NewSource(seed ^ 0x5DEECE66D)), n: n}
}

func (g *ycsbGen) next() (item uint64, update bool) {
	item = g.zipf.next()
	if item >= g.n {
		item = g.n - 1
	}
	return item, g.mix.Intn(100) < 50
}

// zipf generates item indexes in [0, n) with YCSB's Zipfian skew.
type zipf struct {
	rng                               *rand.Rand
	n                                 uint64
	alpha, zetan, eta, oneOrTwoCutoff float64
}

func newZipf(seed int64, n uint64, theta float64) *zipf {
	z := &zipf{rng: rand.New(rand.NewSource(seed)), n: n}
	z.zetan = zetaSum(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zetaSum(2, theta)/z.zetan)
	z.oneOrTwoCutoff = 1 + math.Pow(0.5, theta)
	return z
}

func zetaSum(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

func (z *zipf) next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.oneOrTwoCutoff {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// keyOf scrambles an item index into its key, as YCSB's scrambled Zipfian
// does, so popular keys spread over the whole tree.
func keyOf(i uint64) uint64 {
	k := i*0x9E3779B97F4A7C15 + 0x123456789
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	if k == 0 {
		k = 1
	}
	return k
}

// tagOf is the 8-byte check word written into a block or value.
func tagOf(a, b uint64) uint64 {
	x := a*0xD6E8FEB86659FD93 ^ b
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	return x
}
