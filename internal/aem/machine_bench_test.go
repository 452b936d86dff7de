package aem

import (
	"testing"
)

// benchConfig is sized so the working set is a few thousand blocks —
// enough to defeat trivial caching, small enough for stable numbers.
func benchConfig() Config { return Config{M: 1 << 10, B: 64, Omega: 8} }

// BenchmarkMachineReadWrite measures the simulator's hot path — one costed
// read plus one costed write per iteration — with allocs/op reported.
// Nothing allocates here: the read fills the caller's buffer, and every
// write lands on a block the slice engine has already carved, so it
// copies in place.
func BenchmarkMachineReadWrite(b *testing.B) {
	cfg := benchConfig()
	const blocks = 1 << 12
	ma := New(cfg)
	base := ma.Alloc(blocks)
	blk := make([]Item, cfg.B)
	for i := range blk {
		blk[i] = Item{Key: int64(i), Aux: int64(i)}
	}
	for i := 0; i < blocks; i++ {
		ma.Poke(base+Addr(i), blk)
	}
	buf := make([]Item, 0, cfg.B)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := ma.ReadInto(base+Addr(i&(blocks-1)), buf)
		ma.Write(base+Addr((i+1)&(blocks-1)), got)
	}
	b.ReportMetric(float64(2*cfg.B*16), "bytes-moved/op")
}

// BenchmarkScanner measures the streaming read path (the substrate of
// every algorithm's scans).
func BenchmarkScanner(b *testing.B) {
	cfg := benchConfig()
	const n = 1 << 16
	ma := New(cfg)
	v := Load(ma, make([]Item, n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := v.NewScanner()
		for {
			if _, ok := sc.Next(); !ok {
				break
			}
		}
		sc.Close()
	}
}

// BenchmarkTraceRecording measures a traced read: the per-op cost of
// appending to the machine's in-memory trace.
func BenchmarkTraceRecording(b *testing.B) {
	cfg := benchConfig()
	ma := NewWithStorage(cfg, NewSliceStorage())
	base := ma.Alloc(64)
	blk := make([]Item, cfg.B)
	for i := 0; i < 64; i++ {
		ma.Poke(base+Addr(i), blk)
	}
	ma.StartTrace()
	buf := make([]Item, 0, cfg.B)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ma.ReadInto(base+Addr(i&63), buf)
	}
}
