// Differential layer for the priority queues: generated push/deletemin
// streams run through both queues against container/heap on the model's
// corner machines (B = 1 is the ARAM of Blelloch et al., ω = 1 the
// symmetric EM model). The queues must agree with the reference item for
// item and leak no metered memory, also on a stream whose every pushed
// item is the same: duplicate items exercise the count caps and
// tie-breaks that distinct keys never reach.
package pq

import (
	"container/heap"
	"fmt"
	"slices"
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

// TestDifferentialStreamsAllEngines runs every stream through both queues
// on every configuration and every storage engine. Each case's last name
// element is the engine; the slice engine is the one aem has.
func TestDifferentialStreamsAllEngines(t *testing.T) {
	const n = 20000
	queues := map[string]func(*aem.Machine) minQueue{
		"sequence": func(ma *aem.Machine) minQueue { return New(ma) },
		"adaptive": func(ma *aem.Machine) minQueue { return NewAdaptive(ma) },
	}
	streams := map[string][]workload.PQOp{}
	for _, sc := range workload.PQScenarios() {
		streams[sc.String()] = workload.PQOps(workload.NewRNG(101+uint64(sc)), sc, n)
	}
	// dups is the mixed stream with every pushed item zeroed.
	dups := slices.Clone(streams[workload.MixedPQ.String()])
	for i := range dups {
		dups[i].Item = aem.Item{}
	}
	streams["dups"] = dups
	for _, cfg := range differentialConfigs {
		for sname, ops := range streams {
			for qname, mk := range queues {
				t.Run(fmt.Sprintf("%s/%s/M%dB%dw%d/slice", qname, sname, cfg.M, cfg.B, cfg.Omega), func(t *testing.T) {
					ma := aem.New(cfg)
					runDifferential(t, mk(ma), ma, ops)
					if ma.MemInUse() != 0 {
						t.Fatalf("leaked %d memory slots", ma.MemInUse())
					}
				})
			}
		}
	}
}
