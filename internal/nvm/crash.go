package nvm

import (
	"math/bits"
	"math/rand"
)

// EvictMode selects which dirty (written but unflushed) cachelines happen to
// reach the media when the power fails.
type EvictMode int

const (
	// EvictNone drops every unflushed store: only explicitly flushed data
	// survives. This is the classic "straight to the persistence domain you
	// asked for" failure.
	EvictNone EvictMode = iota + 1
	// EvictAll persists every dirty line, as if the cache had drained the
	// instant before the failure.
	EvictAll
	// EvictRandom persists each dirty line independently with probability
	// Prob, driven by Seed. This is the adversarial case real hardware
	// permits: caches evict lines whenever they please.
	EvictRandom
	// EvictTorn is the sub-cacheline adversary: each dirty line either
	// persists fully (probability Prob) or tears — a nonempty proper subset
	// of its eight 8-byte words, chosen by Seed, reaches the media while
	// the other words revert to their last flushed contents. Real platforms
	// only guarantee 8-byte store atomicity, so any crash-consistency
	// argument that silently relies on a wider store surviving whole —
	// 16 bytes, a half line, a whole line — breaks under this mode. Every
	// word is wholly old or wholly new, so the 8-byte atomic-store
	// guarantee still holds.
	EvictTorn
)

// String names the mode the way cmd/poseidon-torture spells it.
func (m EvictMode) String() string {
	switch m {
	case EvictNone:
		return "none"
	case EvictAll:
		return "all"
	case EvictRandom:
		return "random"
	case EvictTorn:
		return "torn"
	default:
		return "unknown"
	}
}

// CrashPolicy describes a simulated power-failure.
type CrashPolicy struct {
	Mode EvictMode
	// Prob is the per-line survival probability for EvictRandom, and the
	// full-persist (versus torn) probability for EvictTorn.
	Prob float64
	// Seed drives EvictRandom and EvictTorn deterministically.
	Seed int64
}

// CrashReport accounts for the fate of every dirty cacheline at a simulated
// power failure. It is what failed crash-sweeps print to make a violation
// diagnosable: "this crash point dropped 17 lines and tore 2".
type CrashReport struct {
	// DirtyLines is the number of written-but-unflushed cachelines at the
	// moment of failure.
	DirtyLines uint64
	// PersistedLines reached the media in full.
	PersistedLines uint64
	// TornLines had some but not all of their 8-byte words reach the media
	// (EvictTorn).
	TornLines uint64
	// DroppedLines reverted entirely to their last flushed contents.
	DroppedLines uint64
}

// Crash simulates a power failure: the device reverts to its persistent
// image, after the policy decides the fate of each dirty cacheline. The
// device remains usable afterwards — reopening it models a post-crash
// restart. Requires crash tracking.
func (d *Device) Crash(policy CrashPolicy) (CrashReport, error) {
	if !d.tracking {
		return CrashReport{}, ErrTrackingDisabled
	}
	var rng *rand.Rand
	if policy.Mode == EvictRandom || policy.Mode == EvictTorn {
		rng = rand.New(rand.NewSource(policy.Seed))
	}
	var report CrashReport
	for i := range d.chunks {
		c := d.chunks[i].Load()
		if c == nil {
			continue
		}
		for w, word := range c.dirty {
			for word != 0 {
				bit := word & (-word)
				word &^= bit
				line := uint64(w)*64 + uint64(trailingZeros(bit))
				report.DirtyLines++
				lo := line * CachelineSize
				switch policy.Mode {
				case EvictAll:
					copy(c.shadow[lo:lo+CachelineSize], c.data[lo:lo+CachelineSize])
					report.PersistedLines++
				case EvictRandom:
					if rng.Float64() < policy.Prob {
						copy(c.shadow[lo:lo+CachelineSize], c.data[lo:lo+CachelineSize])
						report.PersistedLines++
					} else {
						report.DroppedLines++
					}
				case EvictTorn:
					if rng.Float64() < policy.Prob {
						copy(c.shadow[lo:lo+CachelineSize], c.data[lo:lo+CachelineSize])
						report.PersistedLines++
					} else {
						words := 1 + rng.Intn(1<<(CachelineSize/8)-2) // bit i keeps word i
						for w := lo; words != 0; w, words = w+8, words>>1 {
							if words&1 != 0 {
								copy(c.shadow[w:w+8], c.data[w:w+8])
							}
						}
						report.TornLines++
					}
				default: // EvictNone
					report.DroppedLines++
				}
			}
			c.dirty[w] = 0
		}
		copy(c.data, c.shadow)
	}
	return report, nil
}

// DirtyLines returns the number of cachelines written since their last
// flush. Requires crash tracking.
func (d *Device) DirtyLines() (uint64, error) {
	if !d.tracking {
		return 0, ErrTrackingDisabled
	}
	var total uint64
	for i := range d.chunks {
		c := d.chunks[i].Load()
		if c == nil {
			continue
		}
		for _, word := range c.dirty {
			total += uint64(popcount(word))
		}
	}
	return total, nil
}

func trailingZeros(v uint64) int { return bits.TrailingZeros64(v) }

func popcount(v uint64) int { return bits.OnesCount64(v) }
