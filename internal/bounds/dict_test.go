package bounds

import (
	"math"
	"testing"

	"repro/internal/aem"
	"repro/internal/dict"
)

// TestDeamortizedStallUsesDeamortizedFanout: the deamortized leaf dump is
// rootCap/d with the fan-out of a deamortized tree, which leaves room for
// the resident stage and is narrower than the amortized one. At ω = 1,
// M = 1024, B = 32 the heavy leaf apply outweighs the root backstop, so
// the prediction is the leaf bill and d shows in it.
func TestDeamortizedStallUsesDeamortizedFanout(t *testing.T) {
	cfg := aem.Config{M: 1024, B: 32, Omega: 1}
	tree := dict.NewBufferTree(aem.New(cfg))
	amortized := tree.Fanout()
	tree.Deamortize()
	d := tree.Fanout()
	if d != 29 || amortized != 30 {
		t.Fatalf("fan-outs %d deamortized, %d amortized; want 29 and 30", d, amortized)
	}
	M, B := float64(cfg.M), float64(cfg.B)
	dump := M/float64(d) + M/2 // rootCap = ωM
	want := PredictedIO{
		Reads:  (dump+M)/B + dump/B*math.Ceil(dump/M),
		Writes: (dump+M)/B + dump/B,
	}
	got := DictDeamortizedStallPredicted(DictParams{Params: Params{N: 1, Cfg: cfg}})
	if got != want {
		t.Errorf("predicted stall %+v, want the leaf bill %+v at d = %d", got, want, d)
	}
}

// TestDictPredictionsPositive sanity-checks the formulas across corners:
// predictions must be positive and finite, and more update traffic must
// never predict less write I/O.
func TestDictPredictionsPositive(t *testing.T) {
	base := DictParams{
		Params:      Params{N: 10000, Cfg: aem.Config{M: 256, B: 16, Omega: 8}},
		Updates:     6000,
		Keyspace:    4096,
		QueryBursts: []QueryBurst{{Keys: []int64{1, 2, 3}, After: 100}, {Keys: []int64{500, 501}, After: 6000}},
	}
	small := DictBufferTreePredicted(base)
	if small.Reads <= 0 || small.Writes <= 0 {
		t.Fatalf("degenerate prediction %+v", small)
	}
	more := base
	more.Updates *= 4
	big := DictBufferTreePredicted(more)
	if big.Writes < small.Writes {
		t.Errorf("quadrupling updates decreased predicted writes: %.0f → %.0f", small.Writes, big.Writes)
	}
	bt := DictBTreePredicted(base)
	if bt.Writes < float64(base.Updates) {
		t.Errorf("B-tree predicted writes %.0f below one per update", bt.Writes)
	}
}

// TestDictStallPredictions pins the deamortization story the EXP-L3
// column tells: one node-flush (deamortized worst stall) is predicted to
// cost a fraction of a full cascade + rebuild (amortized worst stall) at
// every ω, and the amortized stall grows with ω — the deferral knob
// concentrates ever more work into the pause.
func TestDictStallPredictions(t *testing.T) {
	params := func(omega int) DictParams {
		return DictParams{
			Params:   Params{N: 100000, Cfg: aem.Config{M: 128, B: 16, Omega: omega}},
			Updates:  70000,
			Keyspace: 4096,
		}
	}
	prevAmort := 0.0
	for _, omega := range []int{1, 4, 16, 64} {
		p := params(omega)
		amort := DictAmortizedStallPredicted(p).Cost(omega)
		deam := DictDeamortizedStallPredicted(p).Cost(omega)
		if amort <= 0 || deam <= 0 {
			t.Fatalf("ω=%d: degenerate stall predictions amort=%.0f deam=%.0f", omega, amort, deam)
		}
		if 2*deam > amort {
			t.Errorf("ω=%d: deamortized stall %.0f not well below amortized %.0f", omega, deam, amort)
		}
		if amort <= prevAmort {
			t.Errorf("ω=%d: amortized stall %.0f did not grow from %.0f", omega, amort, prevAmort)
		}
		prevAmort = amort
	}
}
