package dictsrv

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is one bucket per power of two of nanoseconds: bucket i
// holds durations in [2^(i-1), 2^i) ns (bucket 0 holds 0 ns). 64 buckets
// cover every representable int64 duration.
const histBuckets = 64

// Hist is a merged, read-only histogram of commit-path stalls in
// nanoseconds, power-of-two bucketed. It is what Stats hands back; the
// shards record into atomic counterparts (stallHist) so the histogram is
// exact at any time, not just at quiescence.
type Hist struct {
	Counts [histBuckets]int64
	N      int64
	MaxNS  int64
}

// Quantile returns an upper bound for the q-quantile stall (0 < q ≤ 1):
// the top of the bucket holding the nearest-rank sample, clamped to the
// observed maximum. Zero if nothing was recorded.
func (h *Hist) Quantile(q float64) int64 {
	if h.N == 0 {
		return 0
	}
	rank := int64(q*float64(h.N) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.N {
		rank = h.N
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			hi := h.MaxNS
			if i > 0 && i < 63 {
				// Bucket upper bound, exclusive; i = 63 would overflow
				// and bucket 0 holds only zeros.
				if b := int64(1) << uint(i); b < hi {
					hi = b
				}
			} else if i == 0 {
				hi = 0
			}
			return hi
		}
	}
	return h.MaxNS
}

// merge folds another histogram in (Stats aggregation across shards).
func (h *Hist) merge(o Hist) {
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.N += o.N
	if o.MaxNS > h.MaxNS {
		h.MaxNS = o.MaxNS
	}
}

// stallHist is the shard-side recorder: single writer (the tree holder),
// atomically readable at any time.
type stallHist struct {
	counts [histBuckets]atomic.Int64
	n      atomic.Int64
	max    atomic.Int64
}

func (h *stallHist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bits.Len64(uint64(ns))].Add(1)
	h.n.Add(1)
	if ns > h.max.Load() { // single writer: plain check-then-store
		h.max.Store(ns)
	}
}

func (h *stallHist) snapshot() Hist {
	var out Hist
	for i := range h.counts {
		out.Counts[i] = h.counts[i].Load()
	}
	out.N = h.n.Load()
	out.MaxNS = h.max.Load()
	return out
}
