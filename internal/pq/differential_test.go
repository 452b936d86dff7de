// Differential layer for the priority queues: generated push/deletemin
// streams run through both queues against container/heap, on both
// storage engines and on the model's corner machines (B = 1 is the ARAM of
// Blelloch et al., ω = 1 the symmetric EM model). On the slice engine the
// queues must agree with the reference item for item; the counting
// engine holds no data (reads return zeros), so there the queues must
// still terminate, preserve Len bookkeeping and leak no metered memory —
// which is what it exists to check.
package pq

import (
	"container/heap"
	"fmt"
	"testing"

	"repro/internal/aem"
	"repro/internal/workload"
)

var differentialConfigs = []aem.Config{
	{M: 256, B: 16, Omega: 8},
	{M: 64, B: 4, Omega: 16}, // M = 16B floor
	{M: 32, B: 1, Omega: 8},  // B = 1: the (M,ω)-ARAM
	{M: 128, B: 8, Omega: 1}, // ω = 1: symmetric EM
}

func runDifferential(t *testing.T, q minQueue, ma *aem.Machine, ops []workload.PQOp) {
	t.Helper()
	ref := &refHeap{}
	for i, op := range ops {
		if op.Kind == workload.PQPush {
			q.Push(op.Item)
			heap.Push(ref, op.Item)
		} else {
			got, ok := q.DeleteMin()
			want := heap.Pop(ref).(aem.Item)
			if !ok || got != want {
				t.Fatalf("op %d: DeleteMin = %v, %t, want %v", i, got, ok, want)
			}
		}
	}
	for ref.Len() > 0 {
		got, ok := q.DeleteMin()
		want := heap.Pop(ref).(aem.Item)
		if !ok || got != want {
			t.Fatalf("drain: got %v, %t, want %v", got, ok, want)
		}
	}
	q.Close()
}

func TestDifferentialStreamsAllEngines(t *testing.T) {
	const n = 20000
	queues := map[string]func(*aem.Machine) minQueue{
		"sequence": func(ma *aem.Machine) minQueue { return New(ma) },
		"adaptive": func(ma *aem.Machine) minQueue { return NewAdaptive(ma) },
	}
	for _, cfg := range differentialConfigs {
		for _, sc := range workload.PQScenarios() {
			ops := workload.PQOps(workload.NewRNG(101+uint64(sc)), sc, n)
			for qname, mk := range queues {
				// Slice engine: exact differential vs container/heap.
				t.Run(fmt.Sprintf("%s/%s/M%dB%dw%d/slice", qname, sc, cfg.M, cfg.B, cfg.Omega), func(t *testing.T) {
					ma := aem.New(cfg)
					runDifferential(t, mk(ma), ma, ops)
					if ma.MemInUse() != 0 {
						t.Fatalf("leaked %d memory slots", ma.MemInUse())
					}
				})
				// Counting engine: no data, so no differential — the queue
				// must terminate, keep Len exact and leak nothing. The
				// stream is kept short of the compaction threshold: a level
				// merge runs MergeRuns, whose §3.1 run pointers themselves
				// live in external memory and are zeroed by the data-free
				// engine — the boundary aem/storage.go draws for every
				// value-dependent algorithm.
				// Half the run budget in ops keeps every config clear of a
				// compaction: runs form at worst one per capIB staged
				// pushes plus one per refill.
				maxRuns := cfg.M / (2 * cfg.B)
				limit := maxRuns * (cfg.M / 8) / 2
				if limit > len(ops) {
					limit = len(ops)
				}
				countingOps := ops[:limit]
				t.Run(fmt.Sprintf("%s/%s/M%dB%dw%d/counting", qname, sc, cfg.M, cfg.B, cfg.Omega), func(t *testing.T) {
					ma := aem.NewWithStorage(cfg, aem.NewCountingStorage())
					q := mk(ma)
					size := 0
					for i, op := range countingOps {
						if op.Kind == workload.PQPush {
							q.Push(op.Item)
							size++
						} else {
							if _, ok := q.DeleteMin(); !ok {
								t.Fatalf("op %d: DeleteMin empty with %d queued", i, size)
							}
							size--
						}
						if q.Len() != size {
							t.Fatalf("op %d: Len = %d, want %d", i, q.Len(), size)
						}
					}
					for size > 0 {
						if _, ok := q.DeleteMin(); !ok {
							t.Fatalf("drain: empty with %d queued", size)
						}
						size--
					}
					q.Close()
					if ma.MemInUse() != 0 {
						t.Fatalf("leaked %d memory slots", ma.MemInUse())
					}
				})
			}
		}
	}
}
