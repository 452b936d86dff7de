package harness

import (
	"testing"

	"repro/internal/aem"
)

// BenchmarkMachineAcquisition measures what a grid point pays to obtain
// its machine: a fresh construction (allocating the block table and
// bookkeeping from scratch) versus a pool hit (Recycle on a machine the
// previous point just released). The workload — allocate a
// production-ish range so the block table actually grows — is identical;
// only the acquisition differs.
func BenchmarkMachineAcquisition(b *testing.B) {
	cfg := aem.Config{M: 1 << 10, B: 64, Omega: 8}
	const blocks = 1 << 12
	for _, backend := range []string{"slice", "counting"} {
		b.Run(backend+"/fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ma := backendMachine(cfg, backend)
				ma.Alloc(blocks)
			}
		})
		b.Run(backend+"/pooled", func(b *testing.B) {
			// Prime the pool so every iteration is a hit.
			ma, release := PooledMachine(cfg, backend)
			ma.Alloc(blocks)
			release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ma, release := PooledMachine(cfg, backend)
				ma.Alloc(blocks)
				release()
			}
		})
	}
}

// BenchmarkMegaGridPoint is the macro number behind the throughput gate:
// one EXP-MG1 grid point end to end — pooled counting machine, bulk-scan
// mergesort replay — at the shallowest and deepest corners of the grid.
// The deep corner simulates ~5×10⁸ I/Os per iteration.
func BenchmarkMegaGridPoint(b *testing.B) {
	s := specMG1()
	pts := s.Points()
	for _, tc := range []struct {
		name string
		p    Point
	}{
		{"shallow", pts[0]},
		{"deep", pts[len(pts)-1]},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Point(tc.p)
			}
		})
	}
}
