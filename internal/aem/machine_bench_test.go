package aem

import (
	"testing"
)

// benchConfig is sized so the working set is a few thousand blocks —
// enough to defeat trivial caching, small enough for stable numbers.
func benchConfig() Config { return Config{M: 1 << 10, B: 64, Omega: 8} }

func benchEngines() []struct {
	name string
	make func() Storage
} {
	return []struct {
		name string
		make func() Storage
	}{
		{"slice", func() Storage { return NewSliceStorage() }},
		{"counting", func() Storage { return NewCountingStorage() }},
	}
}

// BenchmarkMachineReadWrite measures the simulator's hot path — one costed
// read plus one costed write per iteration — on every storage engine, with
// allocs/op reported. No engine allocates here: the read fills the
// caller's buffer, and every write lands on a block the slice engine has
// already carved, so it copies in place.
func BenchmarkMachineReadWrite(b *testing.B) {
	cfg := benchConfig()
	const blocks = 1 << 12
	for _, eng := range benchEngines() {
		b.Run(eng.name, func(b *testing.B) {
			ma := NewWithStorage(cfg, eng.make())
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
		})
	}
}

// BenchmarkScanner measures the streaming read path (the substrate of
// every algorithm's scans) per engine.
func BenchmarkScanner(b *testing.B) {
	cfg := benchConfig()
	const n = 1 << 16
	for _, eng := range benchEngines() {
		b.Run(eng.name, func(b *testing.B) {
			ma := NewWithStorage(cfg, eng.make())
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
		})
	}
}

// BenchmarkScanReads compares the bulk read-accounting primitive against
// the per-op loop it batches, per engine. One iteration sweeps the same
// 4096-block range either block-by-block (ReadInto) or in one ScanReads
// call; the "ios/op" metric makes the per-I/O cost comparable. On the
// counting engine the bulk path is the mega-grid's hot loop: a whole
// pass's accounting collapses to a handful of integer adds.
func BenchmarkScanReads(b *testing.B) {
	cfg := benchConfig()
	const blocks = 1 << 12
	for _, eng := range benchEngines() {
		for _, mode := range []string{"per-op", "bulk"} {
			b.Run(eng.name+"/"+mode, func(b *testing.B) {
				ma := NewWithStorage(cfg, eng.make())
				base := ma.Alloc(blocks)
				buf := make([]Item, 0, cfg.B)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "bulk" {
						ma.ScanReads(base, blocks)
					} else {
						for j := 0; j < blocks; j++ {
							buf = ma.ReadInto(base+Addr(j), buf)
						}
					}
				}
				b.ReportMetric(float64(blocks), "ios/op")
			})
		}
	}
}

// BenchmarkScanWrites is the write-side counterpart: one iteration emits a
// 4096-block zero-filled output range either block-by-block (Write) or in
// one ScanWrites call. Data engines still pay the zero-fill either way —
// the bulk win there is the batched accounting — while the counting
// engine's bulk path reduces the sweep to length-table stores.
func BenchmarkScanWrites(b *testing.B) {
	cfg := benchConfig()
	const blocks = 1 << 12
	for _, eng := range benchEngines() {
		for _, mode := range []string{"per-op", "bulk"} {
			b.Run(eng.name+"/"+mode, func(b *testing.B) {
				ma := NewWithStorage(cfg, eng.make())
				base := ma.Alloc(blocks)
				zero := make([]Item, cfg.B)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "bulk" {
						ma.ScanWrites(base, blocks, cfg.B)
					} else {
						for j := 0; j < blocks; j++ {
							ma.Write(base+Addr(j), zero)
						}
					}
				}
				b.ReportMetric(float64(blocks), "ios/op")
			})
		}
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
