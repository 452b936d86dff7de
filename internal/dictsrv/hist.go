package dictsrv

import (
	"math"
	"math/bits"
)

// subBits sets the histogram's resolution: each power-of-two range of
// nanoseconds is split into 2^subBits equal buckets, so a bucket's top is
// less than (1 + 2^-subBits) times its bottom. Values below 2^(subBits+1)
// get a bucket each.
const (
	subBits     = 3
	subBuckets  = 1 << subBits
	histBuckets = (64 - subBits) * subBuckets // covers every non-negative int64
)

// Hist is the service's one latency summary: a log-linear histogram of
// nanosecond durations. It holds per-batch commit stalls in Stats and
// per-op latencies in LoadReport. Quantile reads the nearest-rank value
// to within 1/8 above it; MaxNS is exact. The zero value is empty, and a
// Hist is not safe for concurrent use.
type Hist struct {
	Counts [histBuckets]int64
	N      int64
	MaxNS  int64
}

// bucketOf returns the bucket holding ns ≥ 0.
func bucketOf(ns int64) int {
	v := uint64(ns)
	if v < 2*subBuckets {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1 // v>>shift is in [subBuckets, 2·subBuckets)
	return shift*subBuckets + int(v>>shift)
}

// bucketTop returns the largest value bucket i holds.
func bucketTop(i int) int64 {
	if i < 2*subBuckets {
		return int64(i)
	}
	shift := i/subBuckets - 1
	return int64(uint64(i%subBuckets+subBuckets+1)<<shift - 1)
}

// Record adds one duration; negative durations count as 0.
func (h *Hist) Record(ns int64) {
	ns = max(ns, 0)
	h.Counts[bucketOf(ns)]++
	h.N++
	h.MaxNS = max(h.MaxNS, ns)
}

// Merge folds o in, as if every duration o recorded were recorded in h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.N += o.N
	h.MaxNS = max(h.MaxNS, o.MaxNS)
}

// Quantile returns the q-quantile (0 < q ≤ 1) under the nearest-rank
// definition, the ⌈q·N⌉-th smallest duration, overstated by less than
// 1/8: the top of the bucket holding that duration, clamped to MaxNS.
// Zero if nothing was recorded.
func (h *Hist) Quantile(q float64) int64 {
	if h.N == 0 {
		return 0
	}
	// q·N is one rounding from exact, so a product that should be an
	// integer may land just above it (0.07·100 = 7.000000000000001); the
	// relative guard keeps it from ceiling to the next rank.
	x := q * float64(h.N)
	rank := min(max(int64(math.Ceil(x-x*1e-12)), 1), h.N)
	var seen int64
	for i, c := range h.Counts {
		if seen += c; seen >= rank {
			return min(bucketTop(i), h.MaxNS)
		}
	}
	return h.MaxNS
}
