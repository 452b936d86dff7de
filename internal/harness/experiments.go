package harness

import (
	"fmt"
	"slices"

	"repro/internal/aem"
	"repro/internal/bounds"
	"repro/internal/dict"
	"repro/internal/flash"
	"repro/internal/permute"
	"repro/internal/pq"
	"repro/internal/program"
	"repro/internal/sorting"
	"repro/internal/spmxv"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Seed is the deterministic seed all experiments derive their inputs from.
const Seed = 20170724 // SPAA 2017 started July 24

// All returns every experiment spec in the README.md ("Experiments")
// index order.
func All() []*Spec {
	return []*Spec{
		specM1(), specS1(), specS2(), specB1(), specP1(), specP2(),
		specR1(), specR2(), specF1(), specF2(), specX1(), specA1(),
		specX2(), specD1(), specD2(), specQ1(), specQ2(),
	}
}

// runPQStream drives a queue over an op stream.
func runPQStream(q interface {
	Push(aem.Item)
	DeleteMin() (aem.Item, bool)
}, ops []workload.PQOp) {
	for _, op := range ops {
		if op.Kind == workload.PQPush {
			q.Push(op.Item)
		} else {
			q.DeleteMin()
		}
	}
}

func specQ1() *Spec {
	const n = 24000
	cfgOf := func(p Point) aem.Config {
		return aem.Config{M: 256, B: 16, Omega: p.Int("omega")}
	}
	params := MemoPoint(func(p Point) bounds.PQParams {
		sc := p.Value("scenario").(workload.PQScenario)
		ops := workload.PQOps(workload.NewRNG(Seed+16), sc, n)
		return bounds.PQParamsFor(cfgOf(p), ops)
	})
	return &Spec{
		ID:    "EXP-Q1",
		Index: "priority queue: ω-adaptive vs sequence heap cost vs ω",
		Title: "priority queue: ω-adaptive buffered vs sequence heap across ω",
		Claim: "adaptive folds and writes/op fall with ω (to a scenario-set floor); sequence heap ~linear in ω; the gap widens",
		Axes: []Axis{
			{Name: "scenario", Values: Vals(workload.MixedPQ, workload.MonotonePQ)},
			{Name: "omega", Values: Ints(1, 4, 8, 16, 32, 64)},
		},
		Columns: append(Cols("scenario", "omega", "folds", "ad w/op", "ad cost/op", "seq cost/op", "seq/ad"),
			Column{Name: "ad r m/p", Pred: func(p Point) float64 { return bounds.PQAdaptivePredicted(params(p)).Reads }},
			Column{Name: "ad w m/p", Pred: func(p Point) float64 { return bounds.PQAdaptivePredicted(params(p)).Writes }},
			Column{Name: "seq r m/p", Pred: func(p Point) float64 { return bounds.PQSequenceHeapPredicted(params(p)).Reads }},
			Column{Name: "seq w m/p", Pred: func(p Point) float64 { return bounds.PQSequenceHeapPredicted(params(p)).Writes }},
		),
		Point: func(p Point) Row {
			sc := p.Value("scenario").(workload.PQScenario)
			ops := workload.PQOps(workload.NewRNG(Seed+16), sc, n)
			cfg := cfgOf(p)
			maA := aem.New(cfg)
			qa := pq.NewAdaptive(maA)
			runPQStream(qa, ops)
			maS := aem.New(cfg)
			runPQStream(pq.New(maS), ops)

			stA, stS := maA.Stats(), maS.Stats()
			return Row{sc.String(), cfg.Omega, qa.Folds(),
				float64(stA.Writes) / float64(n),
				float64(maA.Cost()) / float64(n),
				float64(maS.Cost()) / float64(n),
				float64(maS.Cost()) / float64(maA.Cost()),
				stA.Reads, stA.Writes, stS.Reads, stS.Writes}
		},
		Notes: []string{
			"folds and ad w/op fall as ω grows — the Θ(ωM) buffer defers restructuring and the ω-scan rent budget replaces folds with read-only selection passes — down to the floor set by the scenario's below-watermark churn: monotone falls all the way (79 → 4 folds), mixed plateaus once every remaining fold is a stash overflow",
			"the sequence heap's reads/writes are ω-independent, so its cost is ~affine in ω at ~constant writes/op — the gap to the adaptive queue widens with ω in every scenario",
			"m/p columns are measured/predicted Qr and Qw from the bounds policy walk; the acceptance band is [0.5, 2]",
		},
	}
}

func specQ2() *Spec {
	cfg := aem.Config{M: 256, B: 16, Omega: 8}
	params := MemoPoint(func(p Point) bounds.PQParams {
		ops := workload.PQOps(workload.NewRNG(Seed+17), workload.MixedPQ, p.Int("ops"))
		return bounds.PQParamsFor(cfg, ops)
	})
	return &Spec{
		ID:    "EXP-Q2",
		Index: "priority queue: cost per op vs stream length",
		Title: "priority queue: amortized cost per op vs stream length",
		Claim: "adaptive cost/op stays under the sequence heap across sizes at fixed ω",
		Axes: []Axis{
			{Name: "ops", Values: Ints(6000, 12000, 24000, 48000)},
		},
		Columns: append(Cols("ops", "ad r/op", "ad w/op", "ad cost/op", "seq cost/op", "seq/ad"),
			Column{Name: "ad cost m/p", Pred: func(p Point) float64 { return bounds.PQAdaptivePredicted(params(p)).Cost(cfg.Omega) }},
			Column{Name: "seq cost m/p", Pred: func(p Point) float64 { return bounds.PQSequenceHeapPredicted(params(p)).Cost(cfg.Omega) }},
		),
		Point: func(p Point) Row {
			n := p.Int("ops")
			ops := workload.PQOps(workload.NewRNG(Seed+17), workload.MixedPQ, n)
			maA := aem.New(cfg)
			runPQStream(pq.NewAdaptive(maA), ops)
			maS := aem.New(cfg)
			runPQStream(pq.New(maS), ops)

			stA := maA.Stats()
			return Row{n,
				float64(stA.Reads) / float64(n),
				float64(stA.Writes) / float64(n),
				float64(maA.Cost()) / float64(n),
				float64(maS.Cost()) / float64(n),
				float64(maS.Cost()) / float64(maA.Cost()),
				maA.Cost(), maS.Cost()}
		},
		Notes: []string{
			"cost/op is near-flat in the stream length for both queues (the merge hierarchy stays shallow at simulator scale); the adaptive queue's advantage is the ω-weighted write volume it never pays",
			"ω = 8: the adaptive queue stays under the sequence heap at every size",
		},
	}
}

func specD1() *Spec {
	const n, keyspace = 24000, 8192
	cfgOf := func(p Point) aem.Config {
		return aem.Config{M: 256, B: 16, Omega: p.Int("omega")}
	}
	params := MemoPoint(func(p Point) bounds.DictParams {
		sc := p.Value("scenario").(workload.Scenario)
		ops := workload.DictOps(workload.NewRNG(Seed+14), sc, n, keyspace)
		return bounds.DictParamsFor(cfgOf(p), ops, keyspace)
	})
	return &Spec{
		ID:    "EXP-D1",
		Index: "dictionary: buffered vs unbatched cost vs ω",
		Title: "dictionary: buffered vs unbatched cost across ω",
		Claim: "buffer tree cost/op sublinear in ω (writes/op falls); B-tree ~linear at ~1 write/update",
		Axes: []Axis{
			{Name: "scenario", Values: Vals(workload.UniformOps, workload.ZipfOps)},
			{Name: "omega", Values: Ints(1, 4, 8, 16, 32, 64)},
		},
		Columns: append(Cols("scenario", "omega", "bt w/op", "bt cost/op", "btree cost/op", "btree/bt"),
			Column{Name: "bt r m/p", Pred: func(p Point) float64 { return bounds.DictBufferTreePredicted(params(p)).Reads }},
			Column{Name: "bt w m/p", Pred: func(p Point) float64 { return bounds.DictBufferTreePredicted(params(p)).Writes }},
			Column{Name: "base r m/p", Pred: func(p Point) float64 { return bounds.DictBTreePredicted(params(p)).Reads }},
			Column{Name: "base w m/p", Pred: func(p Point) float64 { return bounds.DictBTreePredicted(params(p)).Writes }},
		),
		Point: func(p Point) Row {
			sc := p.Value("scenario").(workload.Scenario)
			ops := workload.DictOps(workload.NewRNG(Seed+14), sc, n, keyspace)
			cfg := cfgOf(p)
			maB := aem.New(cfg)
			dict.NewBufferTree(maB).Apply(ops)
			maT := aem.New(cfg)
			dict.NewBTree(maT).Apply(ops)

			stB, stT := maB.Stats(), maT.Stats()
			return Row{sc.String(), cfg.Omega,
				float64(stB.Writes) / float64(n),
				float64(maB.Cost()) / float64(n),
				float64(maT.Cost()) / float64(n),
				float64(maT.Cost()) / float64(maB.Cost()),
				stB.Reads, stB.Writes, stT.Reads, stT.Writes}
		},
		Notes: []string{
			"bt w/op falls as ω grows — the ω·M root buffer batches more before restructuring: writes are deferred and absorbed (overwritten keys never descend)",
			"the B-tree's writes/op is constant, so its cost is ~affine in ω; the buffered/unbatched gap widens with ω, the paper's message in data-structure form",
			"m/p columns are measured/predicted Qr and Qw; the acceptance band is [0.5, 2]",
		},
	}
}

func specD2() *Spec {
	cfg := aem.Config{M: 256, B: 16, Omega: 8}
	params := MemoPoint(func(p Point) bounds.DictParams {
		n := p.Int("ops")
		keyspace := n / 3
		ops := workload.DictOps(workload.NewRNG(Seed+15), workload.UniformOps, n, int64(keyspace))
		return bounds.DictParamsFor(cfg, ops, keyspace)
	})
	return &Spec{
		ID:    "EXP-D2",
		Index: "dictionary: cost per op vs stream length",
		Title: "dictionary: amortized cost per op vs stream length",
		Claim: "cost/op grows ~log N (tree height) for the buffer tree, stays below the B-tree",
		Axes: []Axis{
			{Name: "ops", Values: Ints(6000, 12000, 24000, 48000)},
		},
		Columns: append(Cols("ops", "keys", "bt r/op", "bt w/op", "bt cost/op", "btree cost/op", "btree/bt"),
			Column{Name: "bt r m/p", Pred: func(p Point) float64 { return bounds.DictBufferTreePredicted(params(p)).Reads }},
			Column{Name: "bt w m/p", Pred: func(p Point) float64 { return bounds.DictBufferTreePredicted(params(p)).Writes }},
		),
		Point: func(p Point) Row {
			n := p.Int("ops")
			keyspace := n / 3
			ops := workload.DictOps(workload.NewRNG(Seed+15), workload.UniformOps, n, int64(keyspace))
			maB := aem.New(cfg)
			dict.NewBufferTree(maB).Apply(ops)
			maT := aem.New(cfg)
			dict.NewBTree(maT).Apply(ops)

			stB := maB.Stats()
			return Row{n, keyspace,
				float64(stB.Reads) / float64(n),
				float64(stB.Writes) / float64(n),
				float64(maB.Cost()) / float64(n),
				float64(maT.Cost()) / float64(n),
				float64(maT.Cost()) / float64(maB.Cost()),
				stB.Reads, stB.Writes}
		},
		Notes: []string{
			"the growing working set (keys = ops/3) deepens the tree; cost/op grows with the height, not the stream length",
			"ω = 8: the buffer tree stays under the baseline at every size",
		},
	}
}

func specM1() *Spec {
	cfgOf := func(p Point) aem.Config {
		return aem.Config{M: 128, B: 8, Omega: p.Int("omega")}
	}
	norm := func(p Point) (nb, mb float64) {
		cfg := cfgOf(p)
		return float64(cfg.BlocksOf(p.Int("N"))), float64(cfg.BlocksInMemory())
	}
	return &Spec{
		ID:    "EXP-M1",
		Index: "ωm-way merge cost (Theorem 3.2)",
		Title: "ωm-way merge: measured I/O vs Theorem 3.2",
		Claim: "reads = O(ω(n+m)), writes = O(n+m)",
		Axes: []Axis{
			{Name: "N", Values: Ints(1<<10, 1<<12, 1<<14)},
			{Name: "omega", Values: Ints(1, 4, 16, 64)},
		},
		Columns: append(Cols("N", "omega", "reads", "writes"),
			Column{Name: "reads/(w(n+m))", Pred: func(p Point) float64 {
				nb, mb := norm(p)
				return float64(p.Int("omega")) * (nb + mb)
			}},
			Column{Name: "writes/(n+m)", Pred: func(p Point) float64 {
				nb, mb := norm(p)
				return nb + mb
			}},
		),
		Point: func(p Point) Row {
			n, cfg := p.Int("N"), cfgOf(p)
			ma := aem.New(cfg)
			runs := sortedRuns(ma, n, cfg.MergeFanout())
			sorting.MergeRuns(ma, runs, sorting.MergeOptions{})
			st := ma.Stats()
			return Row{n, cfg.Omega, st.Reads, st.Writes, st.Reads, st.Writes}
		},
		Notes: []string{
			"the two normalized columns are the Theorem 3.2 constants; flat ⇒ reproduced",
			"constants ≈4–6 for reads come from the two-block initialization of §3.1 (the paper pays the same)",
		},
	}
}

func specS1() *Spec {
	cfg := aem.Config{M: 128, B: 8, Omega: 8}
	pred := func(p Point) float64 {
		return bounds.MergeSortPredicted(bounds.Params{N: p.Int("N"), Cfg: cfg}).Cost(cfg.Omega)
	}
	return &Spec{
		ID:    "EXP-S1",
		Index: "AEM mergesort scaling (Section 3)",
		Title: "AEM mergesort: measured vs predicted cost",
		Claim: "cost = O(ω·n·log_{ωm} n); reads/writes ≈ ω",
		Axes: []Axis{
			{Name: "N", Values: Ints(1<<10, 1<<12, 1<<14, 1<<16)},
		},
		Columns: append(append(Cols("N", "reads", "writes", "cost"),
			Column{Name: "predicted", Pred: pred},
			Column{Name: "meas/pred", Pred: pred}),
			Cols("reads/writes", "base r/w", "merge r/w", "pointer r/w")...),
		Point: func(p Point) Row {
			n := p.Int("N")
			ma := aem.New(cfg)
			in := workload.Keys(workload.NewRNG(Seed), workload.Random, n)
			sorting.MergeSort(ma, aem.Load(ma, in))
			st := ma.Stats()
			ph := ma.Phases()
			fmtPhase := func(name string) string {
				ps := ph.Phase(name)
				return fmt.Sprintf("%d/%d", ps.Reads, ps.Writes)
			}
			return Row{n, st.Reads, st.Writes, ma.Cost(), nil, ma.Cost(),
				float64(st.Reads) / float64(st.Writes),
				fmtPhase("base"), fmtPhase("merge"), fmtPhase("pointers")}
		},
		Notes: []string{
			"meas/pred flat across N reproduces the Section 3 bound's shape",
			"phase columns (reads/writes) show where the I/O goes: pointer maintenance stays O(n) writes as §3.1 argues",
		},
	}
}

func specS2() *Spec {
	const n = 1 << 14
	return &Spec{
		ID:    "EXP-S2",
		Index: "sorting algorithms vs ω (Section 3 motivation)",
		Title: "sorting algorithms across ω",
		Claim: "AEM mergesort runs for every ω; the [7]-style merge dies for ω ≳ B; cost ratio to EM mergesort falls with ω",
		Axes: []Axis{
			{Name: "omega", Values: Ints(1, 2, 4, 8, 16, 32, 64, 128)},
		},
		Columns: Cols("omega", "aem cost", "em cost", "samplesort", "heapsort", "aem/em", "aem writes", "em writes", "[7]-style"),
		Point: func(p Point) Row {
			in := workload.Keys(workload.NewRNG(Seed+1), workload.Random, n)
			cfg := aem.Config{M: 128, B: 8, Omega: p.Int("omega")}
			ma := aem.New(cfg)
			sorting.MergeSort(ma, aem.Load(ma, in))
			ma2 := aem.New(cfg)
			sorting.EMMergeSort(ma2, aem.Load(ma2, in))
			maS := aem.New(cfg)
			sorting.EMSampleSort(maS, aem.Load(maS, in), Seed)
			maH := aem.New(cfg)
			pq.HeapSort(maH, aem.Load(maH, in))

			legacy := "ok"
			func() {
				defer func() {
					if recover() != nil {
						legacy = "fails (ωm > M)"
					}
				}()
				ma3 := aem.New(cfg)
				sorting.MergeSortInMemoryPointers(ma3, aem.Load(ma3, in))
			}()

			return Row{cfg.Omega, ma.Cost(), ma2.Cost(), maS.Cost(), maH.Cost(),
				float64(ma.Cost()) / float64(ma2.Cost()),
				ma.Stats().Writes, ma2.Stats().Writes, legacy}
		},
		Notes: []string{
			"the asymptotic log_m/log_ωm advantage needs deeper recursions than simulator scale; the falling ratio and the write column carry the paper's point",
			"the [7]-style merge failing at large ω is the assumption §3 removes",
		},
	}
}

func specB1() *Spec {
	return &Spec{
		ID:    "EXP-B1",
		Index: "small-sort base case ([7, Lemma 4.2])",
		Title: "small-sort base case",
		Claim: "N′ ≤ ωM sorts in O(ω·n′) reads and exactly n′ writes",
		Axes: []Axis{
			{Name: "omega", Values: Ints(1, 4, 16)},
			{Name: "mult", Dyn: func(outer Point) []interface{} {
				w := outer.Int("omega")
				return Ints(1, w/2, w)
			}},
		},
		Skip:    func(p Point) bool { return p.Int("mult") < 1 },
		Columns: Cols("N'", "omega", "N'/M", "reads", "writes", "reads/n'", "writes/n'"),
		Point: func(p Point) Row {
			w, mult := p.Int("omega"), p.Int("mult")
			cfg := aem.Config{M: 64, B: 8, Omega: w}
			n := mult * cfg.M
			ma := aem.New(cfg)
			in := workload.Keys(workload.NewRNG(Seed+2), workload.Random, n)
			sorting.SmallSort(ma, aem.Load(ma, in))
			st := ma.Stats()
			nb := float64(cfg.BlocksOf(n))
			return Row{n, w, mult, st.Reads, st.Writes,
				float64(st.Reads) / nb, float64(st.Writes) / nb}
		},
		Notes: []string{"reads/n' grows ~2·N'/M (selection passes) and writes/n' is exactly 1"},
	}
}

// p1Case is one machine/size corner of the Theorem 4.5 sweep.
type p1Case struct {
	n   int
	cfg aem.Config
}

func specP1() *Spec {
	caseOf := func(p Point) p1Case { return p.Value("case").(p1Case) }
	closedLB := func(p Point) float64 {
		c := caseOf(p)
		return bounds.PermutingLowerBoundClosed(bounds.Params{N: c.n, Cfg: c.cfg})
	}
	// Writing the n output blocks costs ωn no matter what; combined with
	// Theorem 4.5 this floors every permuting program that must
	// materialize its output.
	wnFloor := func(p Point) float64 {
		c := caseOf(p)
		return float64(c.cfg.Omega) * float64(c.cfg.BlocksOf(c.n))
	}
	return &Spec{
		ID:    "EXP-P1",
		Index: "permuting upper vs lower bound (Theorem 4.5)",
		Title: "permuting: measured vs Theorem 4.5",
		Claim: "best-of(direct,sort) tracks min{N, ω·n·log_{ωm} n} within a constant",
		Axes: []Axis{
			{Name: "case", Values: Vals(
				p1Case{1 << 12, aem.Config{M: 128, B: 8, Omega: 1}},
				p1Case{1 << 12, aem.Config{M: 128, B: 8, Omega: 8}},
				p1Case{1 << 12, aem.Config{M: 128, B: 8, Omega: 64}},
				p1Case{1 << 14, aem.Config{M: 128, B: 8, Omega: 8}},
				p1Case{1 << 12, aem.Config{M: 32, B: 2, Omega: 256}}, // N-term regime
				p1Case{1 << 14, aem.Config{M: 256, B: 32, Omega: 2}}, // sort-term regime
			)},
		},
		Columns: append(Cols("N", "B", "omega", "direct", "sort", "best", "strategy"),
			Column{Name: "closed LB", Pred: closedLB},
			Column{Name: "counting LB", Pred: func(p Point) float64 {
				c := caseOf(p)
				return bounds.CountingLowerBound(bounds.Params{N: c.n,
					Cfg: aem.Config{M: 2 * c.cfg.M, B: c.cfg.B, Omega: c.cfg.Omega}})
			}},
			Column{Name: "wn floor", Pred: wnFloor},
			Column{Name: "best/maxLB", Pred: func(p Point) float64 {
				maxLB := closedLB(p)
				if wn := wnFloor(p); wn > maxLB {
					maxLB = wn
				}
				return maxLB
			}},
		),
		Point: func(p Point) Row {
			c := caseOf(p)
			items, perm := workload.Permutation(workload.NewRNG(Seed+3), c.n)

			maD := aem.New(c.cfg)
			permute.Direct(maD, aem.Load(maD, items), perm)
			maS := aem.New(c.cfg)
			permute.SortBased(maS, aem.Load(maS, items))
			maB := aem.New(c.cfg)
			_, strat := permute.Best(maB, aem.Load(maB, items), perm)

			return Row{c.n, c.cfg.B, c.cfg.Omega, maD.Cost(), maS.Cost(), maB.Cost(),
				strat.String(), nil, nil, nil, maB.Cost()}
		},
		Notes: []string{
			"counting LB evaluated with 2M per Corollary 4.2 so it validly floors the measured algorithms",
			"strategy flips to direct exactly in the parameter corner where the bound's min{} picks N",
			"for ω ≫ B the binding floor is the trivial output-write cost ωn, not Theorem 4.5's min{}",
		},
	}
}

func specP2() *Spec {
	paramsOf := func(p Point) bounds.Params {
		return bounds.Params{N: p.Int("N"),
			Cfg: aem.Config{M: 1 << 10, B: p.Int("B"), Omega: p.Int("omega")}}
	}
	return &Spec{
		ID:    "EXP-P2",
		Index: "counting argument internals (§4.2)",
		Title: "counting argument internals",
		Claim: "R from inequality (1) ≈ closed form / (ωm)",
		Axes: []Axis{
			{Name: "N", Values: Ints(1<<16, 1<<20)},
			{Name: "omega", Values: Ints(1, 8, 64)},
			{Name: "B", Values: Ints(16, 64)},
		},
		Columns: append(Cols("N", "M", "B", "omega", "rounds R"),
			Column{Name: "counting LB", Pred: func(p Point) float64 { return bounds.CountingLowerBound(paramsOf(p)) }},
			Column{Name: "closed LB", Pred: func(p Point) float64 { return bounds.PermutingLowerBoundClosed(paramsOf(p)) }},
			Column{Name: "counting/closed", Pred: func(p Point) float64 { return bounds.PermutingLowerBoundClosed(paramsOf(p)) }},
		),
		Point: func(p Point) Row {
			pr := paramsOf(p)
			return Row{p.Int("N"), pr.Cfg.M, p.Int("B"), p.Int("omega"),
				bounds.CountingRounds(pr), nil, nil, bounds.CountingLowerBound(pr)}
		},
	}
}

// r1Case selects one program construction for the Lemma 4.1 table.
type r1Case struct {
	kind string
	n    int
	cfg  aem.Config
	seed uint64 // random-program cases only
}

func specR1() *Spec {
	return &Spec{
		ID:    "EXP-R1",
		Index: "Lemma 4.1 round-based conversion",
		Title: "Lemma 4.1: round-based conversion overhead",
		Claim: "cost(P′) ≤ 3·cost(P) + O(ωm), placement preserved, rounds valid",
		Axes: []Axis{
			{Name: "case", Values: Vals(
				r1Case{kind: "permutation", n: 256, cfg: aem.Config{M: 32, B: 4, Omega: 2}},
				r1Case{kind: "permutation", n: 256, cfg: aem.Config{M: 32, B: 4, Omega: 8}},
				r1Case{kind: "permutation", n: 1024, cfg: aem.Config{M: 32, B: 4, Omega: 2}},
				r1Case{kind: "permutation", n: 1024, cfg: aem.Config{M: 32, B: 4, Omega: 8}},
				r1Case{kind: "random", n: 128, cfg: aem.Config{M: 32, B: 4, Omega: 4}, seed: Seed + 5},
				r1Case{kind: "random", n: 128, cfg: aem.Config{M: 32, B: 4, Omega: 4}, seed: Seed + 6},
			)},
		},
		Columns: Cols("kind", "N", "omega", "cost P", "cost P'", "factor", "rounds", "placement"),
		Point: func(pt Point) Row {
			c := pt.Value("case").(r1Case)
			var prog *program.Program
			switch c.kind {
			case "permutation":
				_, perm := workload.Permutation(workload.NewRNG(Seed+4), c.n)
				p, err := program.FromPermutation(c.cfg, perm)
				if err != nil {
					panic(err)
				}
				prog = p
			case "random":
				prog = program.Random(workload.NewRNG(c.seed), c.cfg, c.n, 400)
			}
			orig, err := program.Run(prog, program.RunOptions{})
			if err != nil {
				panic(fmt.Sprintf("harness: invalid base program: %v", err))
			}
			rb, err := program.ConvertToRoundBased(prog)
			if err != nil {
				panic(fmt.Sprintf("harness: conversion: %v", err))
			}
			conv, err := program.Run(rb, program.RunOptions{})
			if err != nil {
				panic(fmt.Sprintf("harness: converted program: %v", err))
			}
			ok := "preserved"
			if !orig.Placement.Equal(conv.Placement) {
				ok = "BROKEN"
			}
			w := prog.Cfg.Omega
			return Row{c.kind, prog.N, w, orig.Cost(w), conv.Cost(w),
				float64(conv.Cost(w)) / float64(orig.Cost(w)), len(rb.RoundMarks), ok}
		},
	}
}

// r2Case is one recorded-algorithm trace of the Lemma 4.1 table.
type r2Case struct {
	name string
	n    int
	run  func(*aem.Machine, int)
}

func specR2() *Spec {
	cfg := aem.Config{M: 64, B: 8, Omega: 8}
	cases := Vals(
		r2Case{"aem mergesort", 4096, func(ma *aem.Machine, n int) {
			in := workload.Keys(workload.NewRNG(Seed+10), workload.Random, n)
			sorting.MergeSort(ma, aem.Load(ma, in))
		}},
		r2Case{"em mergesort", 4096, func(ma *aem.Machine, n int) {
			in := workload.Keys(workload.NewRNG(Seed+11), workload.Random, n)
			sorting.EMMergeSort(ma, aem.Load(ma, in))
		}},
		r2Case{"em samplesort", 4096, func(ma *aem.Machine, n int) {
			in := workload.Keys(workload.NewRNG(Seed+12), workload.Random, n)
			sorting.EMSampleSort(ma, aem.Load(ma, in), Seed)
		}},
		r2Case{"spmxv sort-based", 512, func(ma *aem.Machine, n int) {
			conf := workload.NewConformation(workload.NewRNG(Seed+13), n, 4)
			vals := make([]int64, conf.H())
			x := make([]int64, n)
			m := spmxv.NewMatrix(ma, conf, vals)
			spmxv.SortBased(ma, m, spmxv.LoadDense(ma, x))
		}},
	)
	return &Spec{
		ID:    "EXP-R2",
		Index: "Lemma 4.1 on real algorithm traces",
		Title: "Lemma 4.1 applied to recorded algorithm traces",
		Claim: "conversion factor O(1) on real executions; budget 3×Q + O(ωm)",
		Axes: []Axis{
			{Name: "case", Values: cases},
		},
		Columns: Cols("algorithm", "N", "omega", "trace ops", "Q", "Q'", "factor", "rounds", "saved reads"),
		Point: func(p Point) Row {
			c := p.Value("case").(r2Case)
			ma := aem.New(cfg)
			ma.StartTrace()
			c.run(ma, c.n)
			ops := ma.StopTrace()
			conv := trace.Convert(ops, cfg)
			return Row{c.name, c.n, cfg.Omega, len(ops), conv.Original, conv.Converted,
				conv.Factor(), conv.Rounds, conv.SavedReads}
		},
		Notes: []string{
			"each recorded trace is exactly the paper's §2 notion of the program an algorithm induces on one input",
			"the ≈2.3 factor is the snapshot cost: each round re-parks up to m blocks of memory, roughly doubling the round's ωm budget — the constant the lemma's charging argument absorbs",
		},
	}
}

// f1Case is one machine/size corner of the Lemma 4.3 sweep.
type f1Case struct {
	cfg aem.Config
	n   int
}

func specF1() *Spec {
	return &Spec{
		ID:    "EXP-F1",
		Index: "Lemma 4.3 flash simulation",
		Title: "Lemma 4.3: flash simulation volume",
		Claim: "volume ≤ 2N + 2QB/ω; placement preserved",
		Axes: []Axis{
			{Name: "case", Values: Vals(
				f1Case{aem.Config{M: 16, B: 4, Omega: 2}, 256},
				f1Case{aem.Config{M: 32, B: 8, Omega: 2}, 512},
				f1Case{aem.Config{M: 32, B: 8, Omega: 4}, 512},
				f1Case{aem.Config{M: 32, B: 8, Omega: 8}, 512},
				f1Case{aem.Config{M: 64, B: 16, Omega: 4}, 1024},
			)},
		},
		Columns: Cols("N", "B", "omega", "Q (AEM)", "volume", "bound", "volume/bound", "placement"),
		Point: func(p Point) Row {
			c := p.Value("case").(f1Case)
			_, perm := workload.Permutation(workload.NewRNG(Seed+7), c.n)
			prog, err := program.FromPermutation(c.cfg, perm)
			if err != nil {
				panic(err)
			}
			rb, err := program.ConvertToRoundBased(prog)
			if err != nil {
				panic(err)
			}
			want, err := program.Run(rb, program.RunOptions{})
			if err != nil {
				panic(err)
			}
			fp, err := flash.SimulateAEM(rb)
			if err != nil {
				panic(err)
			}
			res, err := flash.Run(fp)
			if err != nil {
				panic(err)
			}
			ok := "preserved"
			for a, addr := range want.Placement {
				if res.Placement[a] != addr {
					ok = "BROKEN"
					break
				}
			}
			bound := flash.VolumeBound(rb)
			return Row{c.n, c.cfg.B, c.cfg.Omega, rb.Cost(), fp.Volume(), bound,
				float64(fp.Volume()) / float64(bound), ok}
		},
	}
}

func specF2() *Spec {
	const n = 1 << 20
	paramsOf := func(p Point) bounds.Params {
		return bounds.Params{N: n,
			Cfg: aem.Config{M: 1 << 10, B: p.Int("B"), Omega: p.Int("omega")}}
	}
	return &Spec{
		ID:    "EXP-F2",
		Index: "reduction vs counting lower bound (Corollary 4.4)",
		Title: "reduction vs counting lower bound",
		Claim: "reduction bound applies only for ω ≤ B; counting bound covers every ω",
		Axes: []Axis{
			{Name: "B", Values: Ints(16, 64)},
			{Name: "omega", Values: Ints(1, 4, 16, 64, 256)},
		},
		Columns: append(Cols("N", "B", "omega", "reduction LB"),
			Column{Name: "counting LB", Pred: func(p Point) float64 { return bounds.CountingLowerBound(paramsOf(p)) }},
			Column{Name: "closed LB", Pred: func(p Point) float64 { return bounds.PermutingLowerBoundClosed(paramsOf(p)) }},
		),
		Point: func(p Point) Row {
			b, w := p.Int("B"), p.Int("omega")
			redStr := fmtVal(bounds.ReductionLowerBound(paramsOf(p)))
			if w > b {
				redStr = "n/a (ω>B)"
			}
			return Row{n, b, w, redStr, nil, nil}
		},
		Notes: []string{"this is the paper's remark that the counting bound is slightly stronger for some parameter ranges"},
	}
}

func specX1() *Spec {
	const n = 1 << 11
	lb := func(p Point) float64 {
		return bounds.SpMxVLowerBoundClosed(bounds.SpMxVParams{
			Params: bounds.Params{N: n, Cfg: p.Value("machine").(aem.Config)},
			Delta:  p.Int("delta")})
	}
	return &Spec{
		ID:    "EXP-X1",
		Index: "SpMxV cost vs δ (Theorem 5.1)",
		Title: "SpMxV: measured cost vs δ",
		Claim: "naive and sorting-based bracket Theorem 5.1's bound; best follows the min{}",
		Axes: []Axis{
			{Name: "machine", Values: Vals(
				aem.Config{M: 128, B: 8, Omega: 4},  // write-averse machine: naive regime
				aem.Config{M: 512, B: 32, Omega: 1}, // symmetric, big blocks: sorting regime
			)},
			{Name: "delta", Values: Ints(1, 2, 4, 8, 16, 32)},
		},
		Columns: append(Cols("machine", "delta", "H", "naive", "sort", "best strat"),
			Column{Name: "closed LB", Pred: lb},
			Column{Name: "best/LB", Pred: lb},
		),
		Point: func(p Point) Row {
			cfg, delta := p.Value("machine").(aem.Config), p.Int("delta")
			rng := workload.NewRNG(Seed + 8)
			conf := workload.NewConformation(rng, n, delta)
			values := make([]int64, conf.H())
			for i := range values {
				values[i] = int64(rng.Intn(100))
			}
			x := make([]int64, n)
			for i := range x {
				x[i] = int64(rng.Intn(100))
			}

			maN := aem.New(cfg)
			mN := spmxv.NewMatrix(maN, conf, values)
			spmxv.Naive(maN, mN, spmxv.LoadDense(maN, x))

			maS := aem.New(cfg)
			mS := spmxv.NewMatrix(maS, conf, values)
			spmxv.SortBased(maS, mS, spmxv.LoadDense(maS, x))

			best := maN.Cost()
			strat := "naive"
			if maS.Cost() < best {
				best = maS.Cost()
				strat = "sort"
			}
			return Row{fmt.Sprintf("B=%d w=%d", cfg.B, cfg.Omega), delta, conf.H(),
				maN.Cost(), maS.Cost(), strat, nil, best}
		},
		Notes: []string{"the two machines sit on opposite sides of Theorem 5.1's min{}: big blocks with symmetric cost favor sorting, write-averse machines favor the direct program"},
	}
}

func specX2() *Spec {
	const n, delta = 1 << 11, 4
	return &Spec{
		ID:    "EXP-X2",
		Index: "SpMxV cost vs ω (Section 5)",
		Title: "SpMxV: measured cost vs ω",
		Claim: "sorting-based scales ~ω; naive reads stay flat so large ω favors naive",
		Axes: []Axis{
			{Name: "omega", Values: Ints(1, 4, 16, 64, 256)},
		},
		Columns: Cols("omega", "naive", "sort", "naive/sort", "predicted best"),
		Point: func(p Point) Row {
			w := p.Int("omega")
			rng := workload.NewRNG(Seed + 9)
			conf := workload.NewConformation(rng, n, delta)
			values := make([]int64, conf.H())
			for i := range values {
				values[i] = int64(rng.Intn(100))
			}
			x := make([]int64, n)
			for i := range x {
				x[i] = int64(rng.Intn(100))
			}
			cfg := aem.Config{M: 128, B: 8, Omega: w}
			maN := aem.New(cfg)
			mN := spmxv.NewMatrix(maN, conf, values)
			spmxv.Naive(maN, mN, spmxv.LoadDense(maN, x))
			maS := aem.New(cfg)
			mS := spmxv.NewMatrix(maS, conf, values)
			spmxv.SortBased(maS, mS, spmxv.LoadDense(maS, x))

			sp := bounds.SpMxVParams{Params: bounds.Params{N: n, Cfg: cfg}, Delta: delta}
			pred := "sort"
			if bounds.SpMxVNaivePredicted(sp).Cost(w) <= bounds.SpMxVSortPredicted(sp).Cost(w) {
				pred = "naive"
			}
			return Row{w, maN.Cost(), maS.Cost(),
				float64(maN.Cost()) / float64(maS.Cost()), pred}
		},
	}
}

func specA1() *Spec {
	cfg := aem.Config{M: 128, B: 8, Omega: 8}
	const n = 1 << 13
	const costCol = 4 // index of the raw cost column, for the derived ratio
	return &Spec{
		ID:    "EXP-A1",
		Index: "ablation: round-buffer size in the §3 merge",
		Title: "ablation: round-buffer size vs merge cost",
		Claim: "cost grows as the round buffer shrinks (rounds × ωm init reads dominate)",
		Axes: []Axis{
			{Name: "cap", Values: Ints(0, 32, 16, 8)}, // 0 = auto (≈44 at this config)
		},
		Columns: Cols("buffer cap", "rounds", "reads", "writes", "cost"),
		Derived: []DerivedColumn{
			// Each cost against the first (uncapped) row's: the summary
			// column relating the ablated runs to the design point.
			{Name: "cost vs full", From: func(rows []Row, i int) interface{} {
				return toFloat(rows[i][costCol]) / toFloat(rows[0][costCol])
			}},
		},
		Point: func(p Point) Row {
			capBuf := p.Int("cap")
			ma := aem.New(cfg)
			runs := sortedRuns(ma, n, cfg.MergeFanout())
			sorting.MergeRuns(ma, runs, sorting.MergeOptions{MaxBuffer: capBuf})
			st := ma.Stats()
			label, roundsCol := "auto", "-"
			if capBuf > 0 {
				label = fmtVal(capBuf)
				roundsCol = fmtVal((n + capBuf - 1) / capBuf)
			}
			return Row{label, roundsCol, st.Reads, st.Writes, ma.Cost()}
		},
		Notes: []string{
			"the paper's round structure outputs ~M items per round precisely to amortize the per-round ωm-read initialization; the ablation quantifies that choice",
		},
	}
}

// sortedRuns builds k sorted runs totalling n random items on the machine.
func sortedRuns(ma *aem.Machine, n, k int) []*aem.Vector {
	all := workload.Keys(workload.NewRNG(Seed), workload.Random, n)
	per := (n + k - 1) / k
	var runs []*aem.Vector
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		chunk := make([]aem.Item, hi-lo)
		copy(chunk, all[lo:hi])
		slices.SortFunc(chunk, aem.Compare)
		runs = append(runs, aem.Load(ma, chunk))
	}
	return runs
}
