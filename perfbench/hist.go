package main

import "math/bits"

// hist is a log-linear latency histogram over nanoseconds: values below
// 2^subBits are exact, and each higher power of two splits into
// 2^subBits equal buckets (under 0.8 % relative width). Percentiles
// interpolate linearly inside the bucket that holds the rank, so they
// vary continuously with the distribution instead of snapping to
// bucket edges. Fixed size: recording never allocates.
type hist struct {
	counts [histBuckets]uint32
	n      int64
}

const (
	subBits     = 7
	histBuckets = (64 - subBits + 1) << subBits
)

func bucketOf(ns int64) int {
	if ns < 1<<subBits {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - subBits // >= 1
	return exp<<subBits | int(uint64(ns)>>(exp-1)&(1<<subBits-1))
}

// bucketBounds returns the [lo, hi) nanosecond range of bucket b.
func bucketBounds(b int) (lo, hi float64) {
	exp := b >> subBits
	if exp == 0 {
		return float64(b), float64(b + 1)
	}
	width := float64(uint64(1) << (exp - 1))
	lo = float64(uint64(1<<subBits|b&(1<<subBits-1)) << (exp - 1))
	return lo, lo + width
}

func (h *hist) add(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 for an empty
// histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketBounds(b)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, hi := bucketBounds(histBuckets - 1)
	return (lo + hi) / 2
}
