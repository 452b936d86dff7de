package harness

import (
	"testing"

	"repro/internal/aem"
	"repro/internal/bounds"
)

// TestMG1EveryPointSimulatesMillions is the mega-grid's depth acceptance:
// every grid point must simulate at least 10⁶ I/Os, and the replayed
// schedule must equal bounds.MergeSortPredicted exactly (the cost/pred
// column renders 1.00 at every point).
func TestMG1EveryPointSimulatesMillions(t *testing.T) {
	s := specMG1()
	pts := s.Points()
	if len(pts) == 0 {
		t.Fatal("mega-grid enumerates no points")
	}
	for _, p := range pts {
		row := s.Point(p)
		simIOs := row[4].(int64)
		if simIOs < 1_000_000 {
			t.Errorf("point ω=%d N=%d simulates %d I/Os, want ≥ 10⁶", p.Int("omega"), p.Int("N"), simIOs)
		}
		pr := bounds.MergeSortPredicted(mgParams(p))
		if got, want := float64(row[2].(int64)), pr.Reads; got != want {
			t.Errorf("point ω=%d N=%d replayed %.0f reads, predicted %.0f", p.Int("omega"), p.Int("N"), got, want)
		}
		if got, want := float64(row[3].(int64)), pr.Writes; got != want {
			t.Errorf("point ω=%d N=%d replayed %.0f writes, predicted %.0f", p.Int("omega"), p.Int("N"), got, want)
		}
	}
}

// TestMG1TableRatiosPinExactly renders the deepest-ω slice and demands the
// cost/pred column read exactly 1.00 — the replay is the prediction made
// executable, so any drift is a bug in one of them.
func TestMG1TableRatiosPinExactly(t *testing.T) {
	s := specMG1()
	s.Axes = []Axis{
		{Name: "omega", Values: Ints(256)},
		{Name: "N", Values: Ints(1 << 24)},
	}
	for _, cell := range column(t, mustTable(t, s), "cost/pred") {
		if cell != "1.00" {
			t.Errorf("cost/pred = %s, want exactly 1.00", cell)
		}
	}
}

// TestMG1IsAuxiliary pins the registry placement: the mega-grid must be
// selectable by id but absent from All(), so the recorded goldens of the
// default run are untouched by its existence.
func TestMG1IsAuxiliary(t *testing.T) {
	if _, ok := ByID("EXP-MG1"); !ok {
		t.Fatal("EXP-MG1 not selectable by id")
	}
	for _, s := range All() {
		if s.ID == "EXP-MG1" {
			t.Fatal("EXP-MG1 leaked into the default registry; goldens would change")
		}
	}
	found := false
	for _, s := range Aux() {
		if s.ID == "EXP-MG1" {
			found = true
		}
	}
	if !found {
		t.Fatal("EXP-MG1 missing from Aux()")
	}
}

// TestReplayMatchesPerOpSchedule replays a small schedule twice — once
// through the bulk primitives on the counting engine, once as the
// equivalent per-op loop on the slice engine — and demands identical
// accounting: the mega-grid's arithmetic fast path must measure exactly
// what a block-by-block simulation would.
func TestReplayMatchesPerOpSchedule(t *testing.T) {
	cfg := aem.Config{M: 64, B: 8, Omega: 3}
	const nItems = 200 // 25 blocks, deliberately not a power of two

	fast := aem.NewWithStorage(cfg, aem.NewCountingStorage())
	replayMergeSchedule(fast, nItems)

	slow := aem.New(cfg)
	nBlocks := cfg.BlocksOf(nItems)
	lastLen := nItems - (nBlocks-1)*cfg.B
	in := slow.Alloc(nBlocks)
	out := slow.Alloc(nBlocks)
	passes := int(bounds.MergeSortLevels(bounds.Params{N: nItems, Cfg: cfg})) + 1
	buf := make([]aem.Item, 0, cfg.B)
	blk := make([]aem.Item, cfg.B)
	for pass := 0; pass < passes; pass++ {
		for r := 0; r < cfg.Omega; r++ {
			for i := 0; i < nBlocks; i++ {
				slow.ReadInto(in+aem.Addr(i), buf)
			}
		}
		for i := 0; i < nBlocks-1; i++ {
			slow.Write(out+aem.Addr(i), blk)
		}
		slow.Write(out+aem.Addr(nBlocks-1), blk[:lastLen])
		in, out = out, in
	}

	if fast.Stats() != slow.Stats() {
		t.Errorf("bulk replay stats %+v, per-op loop %+v", fast.Stats(), slow.Stats())
	}
	if fast.Cost() != slow.Cost() {
		t.Errorf("bulk replay cost %d, per-op loop %d", fast.Cost(), slow.Cost())
	}
}
