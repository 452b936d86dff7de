package bounds

import (
	"math"

	"repro/internal/aem"
	"repro/internal/dict"
)

// Predicted upper-bound cost formulas for the algorithms implemented in
// this repository. Each returns the leading-term expression from the paper
// with explicit read/write splits where the paper states them, so the
// harness can compare measured Qr and Qw against predictions separately.

// PredictedIO is a predicted (reads, writes) pair; Cost applies Q = r + ωw.
type PredictedIO struct {
	Reads  float64
	Writes float64
}

// Cost returns the AEM cost of the prediction.
func (p PredictedIO) Cost(omega int) float64 {
	return p.Reads + float64(omega)*p.Writes
}

// MergeSortLevels returns the number of merge levels of the §3 mergesort:
// the recursion divides by d = ωm per level until subproblems reach the
// ωM base case, so levels = ⌈log_d(N/(ωM))⌉ (at least 0).
func MergeSortLevels(p Params) float64 {
	d := p.omega() * p.mBlocks()
	base := p.omega() * float64(p.Cfg.M)
	if float64(p.N) <= base {
		return 0
	}
	return math.Ceil(logBase(float64(p.N)/base, d))
}

// MergeSortPredicted returns the predicted I/O counts of the AEM mergesort
// of Section 3: O(ω·n·log_{ωm} n) reads and O(n·log_{ωm} n) writes. The
// prediction uses (levels + 1) passes — each merge level plus the base
// case — each costing ωn reads and n writes, which is the paper's bound
// with its constants made concrete.
func MergeSortPredicted(p Params) PredictedIO {
	n, w := p.nBlocks(), p.omega()
	passes := MergeSortLevels(p) + 1
	return PredictedIO{Reads: w * n * passes, Writes: n * passes}
}

// SmallSortPredicted returns the predicted I/O counts of the base-case sort
// of Blelloch et al. [7, Lemma 4.2] for N′ ≤ ωM items: O(ω·n′) reads and
// O(n′) writes via ω selection passes.
func SmallSortPredicted(p Params) PredictedIO {
	n := p.nBlocks()
	passes := math.Ceil(float64(p.N) / float64(p.Cfg.M))
	return PredictedIO{Reads: n * passes, Writes: n}
}

// EMMergeSortPredicted returns the predicted I/O counts of the classic
// symmetric-EM m-way mergesort run unchanged on an AEM machine: n reads
// and n writes per level over base m, so its AEM cost is (1+ω)·n·log_m n —
// the baseline the §3 algorithm improves on by moving the log to base ωm.
func EMMergeSortPredicted(p Params) PredictedIO {
	n, m := p.nBlocks(), p.mBlocks()
	if m < 2 {
		m = 2
	}
	passes := math.Ceil(logBase(float64(p.N)/float64(p.Cfg.M), m/2)) + 1
	if passes < 1 {
		passes = 1
	}
	return PredictedIO{Reads: n * passes, Writes: n * passes}
}

// PermuteDirectPredicted returns the predicted I/O counts of direct
// permuting (gather each output block from its ≤ B source blocks): at most
// N reads and n writes, i.e. cost O(N + ωn).
func PermuteDirectPredicted(p Params) PredictedIO {
	return PredictedIO{Reads: float64(p.N), Writes: p.nBlocks()}
}

// PermuteSortPredicted returns the predicted I/O counts of sort-based
// permuting: one mergesort of N tagged items.
func PermuteSortPredicted(p Params) PredictedIO {
	return MergeSortPredicted(p)
}

// PermuteBestPredicted returns the cost-minimizing choice between direct
// and sort-based permuting — the upper bound matching Theorem 4.5.
func PermuteBestPredicted(p Params) PredictedIO {
	d := PermuteDirectPredicted(p)
	s := PermuteSortPredicted(p)
	if d.Cost(p.Cfg.Omega) <= s.Cost(p.Cfg.Omega) {
		return d
	}
	return s
}

// SpMxVNaivePredicted returns the predicted I/O counts of the naive (direct)
// SpMxV program: O(H) scattered reads plus the output, O(H + ωn) cost.
func SpMxVNaivePredicted(p SpMxVParams) PredictedIO {
	return PredictedIO{Reads: float64(p.H()), Writes: p.nBlocks()}
}

// SpMxVSortPredicted returns the predicted I/O counts of the sorting-based
// SpMxV algorithm: O(ω·h·log_{ωm} N/max{δ,B} + ωn) cost, with the read and
// write split inherited from the mergesort it invokes.
func SpMxVSortPredicted(p SpMxVParams) PredictedIO {
	h, m, w := p.hBlocks(), p.mBlocks(), p.omega()
	den := math.Max(float64(p.Delta), float64(p.Cfg.B))
	levels := math.Max(1, math.Ceil(logBase(float64(p.N)/den, w*m)))
	n := p.nBlocks()
	return PredictedIO{
		Reads:  w*h*levels + h + n,
		Writes: h*levels + n,
	}
}

// SpMxVBestPredicted returns the cost-minimizing choice between naive and
// sorting-based SpMxV — the upper bound matching Theorem 5.1.
func SpMxVBestPredicted(p SpMxVParams) PredictedIO {
	a := SpMxVNaivePredicted(p)
	b := SpMxVSortPredicted(p)
	if a.Cost(p.Cfg.Omega) <= b.Cost(p.Cfg.Omega) {
		return a
	}
	return b
}

// DictParams describes an online dictionary workload for the cost
// predictors: N (in the embedded Params) is the total operation count,
// Updates the Insert/Delete subset, Keyspace the distinct-key domain, and
// QueryBursts the query bursts of the stream in order. Batched queries
// share buffer scans, skewed batches share leaf paths, and a burst's cost
// depends on how many updates the tree holds when it runs, so the burst
// structure is part of the predicted cost, exactly as the input length is
// for sorting — all of it program knowledge in the §2 sense, derived from
// the stream alone.
type DictParams struct {
	Params
	Updates     int
	Keyspace    int
	QueryBursts []QueryBurst
}

// QueryBurst is one run of consecutive queries in a dictionary stream:
// the keys it touches (a range scan contributes its two endpoints) and
// the number of updates that precede it in the stream.
type QueryBurst struct {
	Keys  []int64
	After int
}

// DictParamsFor derives the workload description from an actual operation
// stream, segmenting it exactly as Dict.Apply does: update bursts are
// counted, query bursts contribute their touched keys and the update
// count so far.
func DictParamsFor(cfg aem.Config, ops []dict.Op, keyspace int) DictParams {
	p := DictParams{
		Params:   Params{N: len(ops), Cfg: cfg},
		Keyspace: keyspace,
	}
	isUpdate := func(op dict.Op) bool { return op.Kind == dict.Insert || op.Kind == dict.Delete }
	for i := 0; i < len(ops); {
		j := i
		if isUpdate(ops[i]) {
			for j < len(ops) && isUpdate(ops[j]) {
				j++
			}
			p.Updates += j - i
		} else {
			var keys []int64
			for j < len(ops) && !isUpdate(ops[j]) {
				keys = append(keys, ops[j].Key)
				if ops[j].Kind == dict.RangeScan {
					keys = append(keys, ops[j].Hi-1)
				}
				j++
			}
			p.QueryBursts = append(p.QueryBursts, QueryBurst{Keys: keys, After: p.Updates})
		}
		i = j
	}
	return p
}

// dictGeometry returns the buffer tree's steady-state shape for the
// workload: number of leaf runs and node levels. Before the first cascade
// (fewer than ω·M updates) everything is one root buffer over a single
// empty leaf.
func (p DictParams) dictGeometry() (leaves, height float64) {
	w, M := p.omega(), float64(p.Cfg.M)
	if float64(p.Updates) < w*M {
		return 1, 1
	}
	live := math.Min(float64(p.Keyspace), float64(p.Updates))
	leaves = math.Max(1, math.Ceil(live/(M/2)))
	height = 1 + math.Ceil(logBase(leaves, float64(dict.Fanout(p.Cfg, false))))
	return leaves, height
}

// DictBufferTreePredicted returns the predicted I/O counts of the
// ω-adaptive buffer tree on the workload. Writes: every update is
// appended once (1/B amortized) and each of the F = ⌊U/ωM⌋·ωM updates
// flushed by a root cascade is rewritten once per level plus once in a
// leaf-run merge, (H+2)/B amortized. Reads mirror the flush writes.
//
// Query bursts are priced by the updates u that precede them. Before the
// first root cascade (u < ω·M) the tree is one root chain of u updates
// over an empty leaf, so a burst scans u/B blocks, plus one for rounding;
// pricing these at the steady-state shape would charge leaf runs and
// buffers that do not exist yet, and a stream whose first cascade comes
// late (EXP-D2's shortest) spends most of its query reads there. Every
// later burst scans the root buffer (ω·M/2 items on average — the
// ω-adaptive term that converts expensive writes into cheap reads) plus
// one root-to-leaf path of buffers and one leaf run per distinct path.
func DictBufferTreePredicted(p DictParams) PredictedIO {
	B, M, w := float64(p.Cfg.B), float64(p.Cfg.M), p.omega()
	U := float64(p.Updates)
	rootCap := w * M
	flushed := math.Floor(U/rootCap) * rootCap
	leaves, height := p.dictGeometry()

	writes := U/B + flushed*(height+2)/B
	reads := flushed * (height + 2) / B

	leafRun := M / 2 // average live leaf run ≈ leafCap items
	nodeBuf := M / 4 // average non-root buffer fill
	for _, q := range p.QueryBursts {
		if u := float64(q.After); u < rootCap {
			reads += u/B + 1
			continue
		}
		paths := distinctCells(q.Keys, int64(leaves), int64(p.Keyspace))
		reads += rootCap/2/B + 1 + paths*((leafRun+nodeBuf)/B+3)
	}
	return PredictedIO{Reads: reads, Writes: writes}
}

// distinctCells estimates how many leaf paths a query batch opens: the
// number of distinct equal-width key cells the batch's keys fall into,
// modelling a balanced tree over the keyspace. Skewed batches (hot keys)
// collapse onto few cells — which is exactly why their measured read cost
// is low.
func distinctCells(keys []int64, leaves, keyspace int64) float64 {
	if leaves < 1 {
		leaves = 1
	}
	seen := make(map[int64]struct{}, len(keys))
	for _, k := range keys {
		switch {
		case k < 0:
			k = 0
		case k >= keyspace:
			k = keyspace - 1
		}
		seen[k*leaves/keyspace] = struct{}{}
	}
	return float64(len(seen))
}

// DictAmortizedStallPredicted returns the predicted I/O bill of the worst
// single commit-path stall in amortized (run-to-completion) mode: one full
// root cascade — the flushed ω·M items rewritten once per internal level,
// every touched leaf run rewritten once — plus the rebuild the cascade can
// trigger (forceFlush + streaming every run into fresh leaves). This is
// the whole amortized budget of one Θ(ωM) epoch landing in a single pause;
// dividing by ωM recovers the familiar per-op amortized bound.
func DictAmortizedStallPredicted(p DictParams) PredictedIO {
	B, M, w := float64(p.Cfg.B), float64(p.Cfg.M), p.omega()
	rootCap := w * M
	leaves, height := p.dictGeometry()
	levels := math.Max(height-1, 1)

	// Cascade: each internal level streams the flushed items once (read +
	// write), and the leaf applies read + rewrite every touched run.
	reads := rootCap*(levels+1)/B + leaves*(M/2)/B
	writes := reads

	// Rebuild: runs are up to 2× bloated with tombstones when the rebuild
	// condition trips; it reads them all and writes the live entries back.
	live := math.Min(float64(p.Keyspace), float64(p.Updates))
	reads += 2 * live / B
	writes += live / B
	return PredictedIO{Reads: reads, Writes: writes}
}

// DictDeamortizedStallPredicted returns the predicted I/O bill of the
// worst single commit-path stall in deamortized mode: one node-flush. The
// contenders are the root backstop (the root buffer partitioned at its
// 2·ωM occupancy ceiling) and a heavy leaf apply (a typical worst dump of
// rootCap/d + M/2 buffered items, externally sorted when it exceeds the
// in-memory chunk, then merged into the run); the prediction is whichever
// costs more. The dump never exceeds ωM, so its external sort is the
// mergesort's base case (see SmallSortPredicted): ⌈dump/M⌉ read passes
// but a single write of the sorted dump. Everything else the old cascade did in the same pause —
// the other levels, the other leaves, the rebuild — happens across other
// batches or at idle.
func DictDeamortizedStallPredicted(p DictParams) PredictedIO {
	B, M, w := float64(p.Cfg.B), float64(p.Cfg.M), p.omega()
	rootCap := w * M
	d := float64(dict.Fanout(p.Cfg, true))

	backstop := PredictedIO{Reads: 2*rootCap/B + 1, Writes: 2*rootCap/B + 1}

	dump := rootCap/d + M/2
	leaf := PredictedIO{Reads: (dump + M) / B, Writes: (dump + M) / B}
	if dump > M/2 { // external sort of the oversized buffer
		leaf.Reads += dump / B * math.Ceil(dump/M)
		leaf.Writes += dump / B
	}
	if leaf.Cost(p.Cfg.Omega) > backstop.Cost(p.Cfg.Omega) {
		return leaf
	}
	return backstop
}

// DictBTreePredicted returns the predicted I/O counts of the unbatched
// B-tree baseline: every operation reads a root-to-leaf path of
// ~log_{B/2} of the live key count blocks, and every update rewrites its
// leaf block — the ω-oblivious 1 write per update the buffer tree exists
// to avoid. Splits add ~2 writes per created leaf.
func DictBTreePredicted(p DictParams) PredictedIO {
	B := float64(p.Cfg.B)
	live := math.Min(float64(p.Keyspace), float64(p.Updates))
	leaves := math.Max(1, math.Ceil(live/(B/2)))
	height := 1 + math.Ceil(logBase(leaves, B/2))
	return PredictedIO{
		Reads:  float64(p.N) * height,
		Writes: float64(p.Updates) + 2*leaves,
	}
}
