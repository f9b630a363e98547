package main

import "math/bits"

// subBits gives 2^subBits = 32 linear sub-buckets per power of two, so a
// bucket spans at most 1/32 (~3%) of its value.
const (
	subBits    = 5
	subBuckets = 1 << subBits
	numBuckets = subBuckets + (64-subBits)*subBuckets
)

// hist is a log-linear latency histogram in nanoseconds. Values below 32
// are exact; above, each octave splits into 32 equal buckets.
type hist struct {
	counts [numBuckets]uint64
	n      uint64
	sum    float64
	max    int64
}

func bucketOf(v int64) int {
	if v < subBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1)), e >= subBits
	sub := int(v>>(e-subBits)) & (subBuckets - 1)
	return subBuckets + (e-subBits)*subBuckets + sub
}

// bucketRange returns the lowest value of bucket i and its width.
func bucketRange(i int) (lo, width float64) {
	if i < subBuckets {
		return float64(i), 1
	}
	shift := (i - subBuckets) / subBuckets
	sub := (i - subBuckets) % subBuckets
	w := float64(uint64(1) << shift)
	return float64(subBuckets+sub) * w, w
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile interpolates linearly inside the bucket holding rank q*n, so the
// result moves with the data rather than snapping to bucket edges.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var below float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if below+float64(c) >= target {
			lo, w := bucketRange(i)
			v := lo + w*(target-below)/float64(c)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		below += float64(c)
	}
	return float64(h.max)
}
