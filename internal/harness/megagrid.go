package harness

import (
	"repro/internal/aem"
	"repro/internal/bounds"
)

// This file is the counting-only mega-grid: the §4 lower-bound territory
// swept at depths the per-op simulator could not reach. Every point
// replays the §3 mergesort's full pass structure — hundreds of millions
// of simulated I/Os at the deep end — on a pooled counting machine whose
// scan phases advance through the bulk ScanReads/ScanWrites primitives,
// so a point's cost is a handful of arithmetic steps plus the length
// tables, not a loop over 10⁸ blocks. The grid compares the replayed
// upper-bound schedule against Theorem 4.5's closed-form lower bound,
// and doubles as a regression surface: the CI gate holds each point's
// heap objects and bytes, and its wall time where a point takes ≥ 1 ms.

// mgM and mgB fix the machine shape of the mega-grid: m = M/B = 256
// blocks of internal memory, a production-ish block size.
const (
	mgM = 1 << 14
	mgB = 64
)

func mgParams(p Point) bounds.Params {
	return bounds.Params{
		N:   p.Int("N"),
		Cfg: aem.Config{M: mgM, B: mgB, Omega: p.Int("omega")},
	}
}

// replayMergeSchedule replays the I/O schedule of the §3 AEM mergesort on
// ma via the bulk primitives: (levels+1) passes, each re-reading the pass
// input ω times (the ω-adaptive merge's selection re-reads, the source of
// the paper's ω·n·log_{ωm} n read term) and streaming one n-block output.
// The replayed schedule is data-oblivious by construction, which is
// exactly why the counting engine can serve it; its accounting equals
// bounds.MergeSortPredicted by design, and the aem conformance suite pins
// the bulk primitives I/O-identical to the per-op loop they batch.
func replayMergeSchedule(ma *aem.Machine, nItems int) {
	cfg := ma.Config()
	nBlocks := cfg.BlocksOf(nItems)
	lastLen := nItems - (nBlocks-1)*cfg.B
	in := ma.Alloc(nBlocks)
	out := ma.Alloc(nBlocks)
	passes := int(bounds.MergeSortLevels(bounds.Params{N: nItems, Cfg: cfg})) + 1
	for pass := 0; pass < passes; pass++ {
		for r := 0; r < cfg.Omega; r++ {
			ma.ScanReads(in, nBlocks)
		}
		ma.ScanWrites(out, nBlocks, lastLen)
		in, out = out, in
	}
}

func specMG1() *Spec {
	return &Spec{
		ID:    "EXP-MG1",
		Index: "mega-grid: counting-only mergesort replay at 10⁶–10⁹ simulated I/Os per point (throughput surface)",
		Title: "counting-only mega-grid (mergesort replay vs Theorem 4.5)",
		Claim: "replayed cost ≡ predicted mergesort cost; cost/LB stays a small factor above the closed-form permuting bound",
		Axes: []Axis{
			{Name: "omega", Values: Ints(1, 4, 16, 64, 256)},
			{Name: "N", Values: Ints(1<<24, 1<<25, 1<<26)},
		},
		Columns: append(Cols("omega", "N", "reads", "writes", "sim I/Os"),
			Column{Name: "cost/pred", Pred: func(p Point) float64 {
				pr := bounds.MergeSortPredicted(mgParams(p))
				return pr.Cost(p.Int("omega"))
			}},
			Column{Name: "cost/LB", Pred: func(p Point) float64 {
				return bounds.PermutingLowerBoundClosed(mgParams(p))
			}},
		),
		Point: func(p Point) Row {
			cfg := aem.Config{M: mgM, B: mgB, Omega: p.Int("omega")}
			ma, release := PooledMachine(cfg, "counting")
			defer release()
			replayMergeSchedule(ma, p.Int("N"))
			st := ma.Stats()
			cost := ma.Cost()
			return Row{p.Int("omega"), p.Int("N"), st.Reads, st.Writes,
				st.Reads + st.Writes, cost, cost}
		},
		Notes: []string{
			"cost/pred ≡ 1 pins the replay to bounds.MergeSortPredicted; cost/LB is the measured gap to the closed-form Theorem 4.5 bound",
			"feasible only through bulk accounting + pooled counting machines: the deep points simulate ~10⁹ I/Os each",
		},
	}
}
