// Package spmxv implements sparse matrix × dense vector multiplication in
// the AEM model as studied in Section 5 of the paper: an N×N matrix with
// exactly δ non-zeros per column (H = δN in total), stored in column-major
// order, multiplied over the integer semiring (no subtraction is ever
// used, honouring the semi-ring restriction of the lower bound).
//
// Two algorithms bracket the upper-bound side of Theorem 5.1:
//
//   - Naive visits the entries row by row (scattered in the column-major
//     layout) and accumulates each output directly: O(H + ω·n) cost;
//   - SortBased computes elementary products in layout order and sorts
//     them by row with merge-with-reduction, following the paper's
//     meta-column scheme: O(ω·h·log_{ωm} N/max{δ,B} + ω·n) cost.
//
// Best picks the predicted cheaper of the two, matching the lower bound's
// min{H, ω·h·log…} structure.
package spmxv

import (
	"fmt"
	"slices"

	"repro/internal/aem"
	"repro/internal/bounds"
	"repro/internal/sorting"
	"repro/internal/workload"
)

// Matrix is a sparse matrix resident on an AEM machine: the conformation
// (program knowledge, costs no I/O to consult) plus the entry values in
// column-major order on disk. Entry items carry Key = row index and
// Aux = value; the column is implied by the position, exactly as in the
// paper's layout where each column's entries are sorted by row.
type Matrix struct {
	Conf    *workload.Conformation
	Entries *aem.Vector
}

// NewMatrix lays the matrix out on the machine's disk (free, as input).
// values holds the non-zero values in column-major entry order and must
// have length conf.H().
func NewMatrix(ma *aem.Machine, conf *workload.Conformation, values []int64) *Matrix {
	if len(values) != conf.H() {
		panic(fmt.Sprintf("spmxv: %d values for %d entries", len(values), conf.H()))
	}
	items := make([]aem.Item, conf.H())
	pos := 0
	for col := 0; col < conf.N; col++ {
		for _, row := range conf.Rows[col] {
			items[pos] = aem.Item{Key: int64(row), Aux: values[pos]}
			pos++
		}
	}
	return &Matrix{Conf: conf, Entries: aem.Load(ma, items)}
}

// LoadDense lays a dense vector out on disk (free, as input): item j
// carries Key = j, Aux = x[j].
func LoadDense(ma *aem.Machine, x []int64) *aem.Vector {
	items := make([]aem.Item, len(x))
	for j, v := range x {
		items[j] = aem.Item{Key: int64(j), Aux: v}
	}
	return aem.Load(ma, items)
}

// DenseReference computes y = A·x directly in ordinary memory, for
// verification.
func DenseReference(conf *workload.Conformation, values, x []int64) []int64 {
	y := make([]int64, conf.N)
	pos := 0
	for col := 0; col < conf.N; col++ {
		for _, row := range conf.Rows[col] {
			y[row] += values[pos] * x[col]
			pos++
		}
	}
	return y
}

// Naive computes y = A·x with the direct row-by-row program: for each
// output row it reads the blocks holding that row's entries (scattered
// across the column-major layout) and the corresponding x blocks,
// accumulating the row sum in a register. A one-block cache for each of
// the two streams keeps the cost at O(H + ω·n) (it is what makes banded
// conformations nearly free, matching the paper's "direct or naive
// algorithm" whose cost the lower bound's H term reflects).
//
// The returned vector holds Item{Key: i, Aux: y_i} for every row i.
// Requires M ≥ 4B.
func Naive(ma *aem.Machine, m *Matrix, x *aem.Vector) *aem.Vector {
	cfg := ma.Config()
	conf := m.Conf
	if x.Len() != conf.N {
		panic(fmt.Sprintf("spmxv: x has %d entries for N=%d", x.Len(), conf.N))
	}

	// Program knowledge: the positions of each row's entries in the
	// column-major layout. Column c's entries occupy positions
	// c·δ … c·δ+δ−1, sorted by row.
	rowCols := make([][]int32, conf.N)
	for col := 0; col < conf.N; col++ {
		for _, row := range conf.Rows[col] {
			rowCols[row] = append(rowCols[row], int32(col))
		}
	}
	posOf := func(row, col int) int {
		base := col * conf.Delta
		for k, r := range conf.Rows[col] {
			if int(r) == row {
				return base + k
			}
		}
		panic("spmxv: entry not in conformation")
	}

	ma.Reserve(3 * cfg.B) // two entry frames (a row's entries straddle a block boundary) + x frame
	defer ma.Release(3 * cfg.B)

	y := aem.NewVector(ma, conf.N)
	w := y.NewWriter()
	defer w.Close()

	// Two-frame LRU for the entry stream plus one x frame, each backed by
	// its own reused buffer: an eviction hands the victim's buffer to the
	// incoming block, so the steady state allocates nothing per I/O.
	eFrames := [2][]aem.Item{make([]aem.Item, 0, cfg.B), make([]aem.Item, 0, cfg.B)}
	var eBlk [2][]aem.Item
	eLo := [2]int{-1, -1}
	xFrame := make([]aem.Item, 0, cfg.B)
	var xBlk []aem.Item
	xLo := -1
	for row := 0; row < conf.N; row++ {
		var sum int64
		for _, c := range rowCols[row] {
			pos := posOf(row, int(c))
			f := -1
			for i := 0; i < 2; i++ {
				if eLo[i] >= 0 && pos >= eLo[i] && pos < eLo[i]+len(eBlk[i]) {
					f = i
					break
				}
			}
			if f < 0 {
				eFrames[0], eFrames[1] = eFrames[1], eFrames[0]
				eBlk[1], eLo[1] = eBlk[0], eLo[0]
				eBlk[0], eLo[0] = m.Entries.ReadBlockInto(pos, eFrames[0])
				f = 0
			}
			a := eBlk[f][pos-eLo[f]].Aux
			if xLo < 0 || int(c) < xLo || int(c) >= xLo+len(xBlk) {
				xBlk, xLo = x.ReadBlockInto(int(c), xFrame)
			}
			sum += a * xBlk[int(c)-xLo].Aux
		}
		w.Append(aem.Item{Key: int64(row), Aux: sum})
	}
	return y
}

// SortBased computes y = A·x with the paper's sorting-based algorithm:
//
//  1. Scan the entries in layout order alongside x (which the column-major
//     order visits sequentially), replacing each entry a_ij with the
//     elementary product a_ij·x_j keyed by row.
//  2. Sort the products by row with merge-with-reduction. Following §5's
//     meta-column scheme: when δ ≥ B each column is already a sorted run
//     (written to its own block-aligned scratch vector during the scan) and
//     the runs of each meta-column (N/δ consecutive columns) are merged
//     first; when δ < B a block-sort pass makes every block a sorted run of
//     length B — in both cases base runs have length max{δ,B}, which is
//     where the log_{ωm} N/max{δ,B} factor comes from.
//  3. Expand the reduced (row, sum) pairs into the dense output.
//
// Total cost O(ω·h·log_{ωm} N/max{δ,B} + ω·n). Requires M ≥ 8B.
func SortBased(ma *aem.Machine, m *Matrix, x *aem.Vector) *aem.Vector {
	cfg := ma.Config()
	conf := m.Conf
	if x.Len() != conf.N {
		panic(fmt.Sprintf("spmxv: x has %d entries for N=%d", x.Len(), conf.N))
	}

	var runs []*aem.Vector
	if conf.Delta >= cfg.B {
		runs = productsPerColumn(ma, m, x)
	} else {
		runs = productsBlockRuns(ma, m, x)
	}

	// Meta columns: groups of runs covering ~N entries each (N/runLen
	// base runs of length runLen = max{δ,B}), merged with reduction; then
	// the δ(-ish) meta results are merged the same way.
	runLen := max(conf.Delta, cfg.B)
	perMeta := (conf.N + runLen - 1) / runLen
	if perMeta < 1 {
		perMeta = 1
	}
	var metas []*aem.Vector
	for lo := 0; lo < len(runs); lo += perMeta {
		hi := lo + perMeta
		if hi > len(runs) {
			hi = len(runs)
		}
		metas = append(metas, sorting.MergeAll(ma, runs[lo:hi], sorting.MergeOptions{Reduce: true}))
	}
	reduced := sorting.MergeAll(ma, metas, sorting.MergeOptions{Reduce: true})

	// Expand to the dense output: rows absent from the reduced pairs get
	// an explicit zero.
	y := aem.NewVector(ma, conf.N)
	w := y.NewWriter()
	sc := reduced.NewScanner()
	next, ok := sc.Next()
	for row := 0; row < conf.N; row++ {
		var sum int64
		for ok && next.Key == int64(row) {
			sum += next.Aux
			next, ok = sc.Next()
		}
		w.Append(aem.Item{Key: int64(row), Aux: sum})
	}
	sc.Close()
	w.Close()
	return y
}

// productsPerColumn (δ ≥ B case) scans entries and x together, writing
// each column's products to its own scratch vector — each a sorted run of
// length δ.
func productsPerColumn(ma *aem.Machine, m *Matrix, x *aem.Vector) []*aem.Vector {
	conf := m.Conf
	runs := make([]*aem.Vector, conf.N)
	esc := m.Entries.NewScanner()
	xsc := x.NewScanner()
	defer esc.Close()
	defer xsc.Close()
	for col := 0; col < conf.N; col++ {
		xit, ok := xsc.Next()
		if !ok {
			panic("spmxv: x exhausted early")
		}
		runs[col] = aem.NewVector(ma, conf.Delta)
		w := runs[col].NewWriter()
		for k := 0; k < conf.Delta; k++ {
			e, ok := esc.Next()
			if !ok {
				panic("spmxv: entries exhausted early")
			}
			w.Append(aem.Item{Key: e.Key, Aux: e.Aux * xit.Aux})
		}
		w.Close()
	}
	return runs
}

// productsBlockRuns (δ < B case) scans entries and x together into a
// products vector, then sorts each block in memory (one read and one write
// per block), making every block a sorted run of length B.
func productsBlockRuns(ma *aem.Machine, m *Matrix, x *aem.Vector) []*aem.Vector {
	cfg := ma.Config()
	conf := m.Conf
	h := conf.H()

	prod := aem.NewVector(ma, h)
	esc := m.Entries.NewScanner()
	xsc := x.NewScanner()
	w := prod.NewWriter()
	for col := 0; col < conf.N; col++ {
		xit, ok := xsc.Next()
		if !ok {
			panic("spmxv: x exhausted early")
		}
		for k := 0; k < conf.Delta; k++ {
			e, ok := esc.Next()
			if !ok {
				panic("spmxv: entries exhausted early")
			}
			w.Append(aem.Item{Key: e.Key, Aux: e.Aux * xit.Aux})
		}
	}
	w.Close()
	xsc.Close()
	esc.Close()

	// Block-sort pass: each block becomes a sorted run.
	sorted := aem.NewVector(ma, h)
	ma.Reserve(cfg.B)
	defer ma.Release(cfg.B)
	frame := make([]aem.Item, 0, cfg.B)
	runs := make([]*aem.Vector, 0, cfg.BlocksOf(h))
	for lo := 0; lo < h; lo += cfg.B {
		hi := lo + cfg.B
		if hi > h {
			hi = h
		}
		blk, _ := prod.ReadBlockInto(lo, frame)
		slices.SortFunc(blk, aem.Compare)
		ma.Write(sorted.BlockAddr(lo), blk)
		runs = append(runs, sorted.Slice(lo, hi))
	}
	return runs
}

// Strategy names the algorithm Best selected.
type Strategy int

const (
	// StrategyNaive is the direct row-by-row program (H-term regime).
	StrategyNaive Strategy = iota
	// StrategySort is the sorting-based algorithm.
	StrategySort
)

// String names the strategy.
func (s Strategy) String() string {
	if s == StrategyNaive {
		return "naive"
	}
	return "sort"
}

// Best multiplies with whichever algorithm the closed-form predictions say
// is cheaper, returning the choice — the upper bound matching the min{} in
// Theorem 5.1.
func Best(ma *aem.Machine, m *Matrix, x *aem.Vector) (*aem.Vector, Strategy) {
	p := bounds.SpMxVParams{
		Params: bounds.Params{N: m.Conf.N, Cfg: ma.Config()},
		Delta:  m.Conf.Delta,
	}
	naive := bounds.SpMxVNaivePredicted(p).Cost(ma.Config().Omega)
	sortC := bounds.SpMxVSortPredicted(p).Cost(ma.Config().Omega)
	if naive <= sortC {
		return Naive(ma, m, x), StrategyNaive
	}
	return SortBased(ma, m, x), StrategySort
}

// VerifyProduct checks y (as produced by Naive/SortBased) against the
// dense reference, using free reads; for tests and the harness.
func VerifyProduct(conf *workload.Conformation, values, x []int64, y *aem.Vector) error {
	want := DenseReference(conf, values, x)
	got := y.Materialize()
	if len(got) != conf.N {
		return fmt.Errorf("spmxv: y has %d entries, want %d", len(got), conf.N)
	}
	for i := range want {
		if got[i].Key != int64(i) {
			return fmt.Errorf("spmxv: position %d holds row %d", i, got[i].Key)
		}
		if got[i].Aux != want[i] {
			return fmt.Errorf("spmxv: y[%d] = %d, want %d", i, got[i].Aux, want[i])
		}
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
