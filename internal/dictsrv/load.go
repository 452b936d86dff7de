package dictsrv

import (
	"sync"
	"time"

	"repro/internal/dict"
)

// LoadReport is what one concurrent load run measured: per-class op
// counts, total wall time, and the latency histogram of every operation.
type LoadReport struct {
	Goroutines int
	Ops        int64 // total operations driven
	Updates    int64 // Insert + Delete
	Lookups    int64
	Scans      int64
	Hits       int64 // lookups that found their key
	WallNS     int64
	Latency    Hist // every op's latency, across all goroutines
}

// OpsPerSec returns the run's aggregate throughput.
func (r LoadReport) OpsPerSec() float64 {
	if r.WallNS <= 0 {
		return 0
	}
	return float64(r.Ops) / (float64(r.WallNS) / 1e9)
}

// RunLoad drives len(streams) goroutines against the service, one stream
// each, issuing every op and recording its wall-clock latency. It is the
// one load path shared by `aem dictload` and the EXP-L1/EXP-L2 harness
// points, so the CLI and the spec tables measure the same thing.
func RunLoad(svc *Service, streams [][]dict.Op) LoadReport {
	var rep LoadReport
	rep.Goroutines = len(streams)

	type tally struct {
		updates, lookups, scans, hits int64
		lat                           Hist
	}
	tallies := make([]tally, len(streams))

	start := time.Now()
	var wg sync.WaitGroup
	for g, ops := range streams {
		wg.Add(1)
		go func(g int, ops []dict.Op) {
			defer wg.Done()
			t := &tallies[g]
			for _, op := range ops {
				switch op.Kind {
				case dict.Insert:
					ack := svc.Put(op.Key, op.Value)
					t.updates++
					t.lat.Record(ack.LatencyNS)
				case dict.Delete:
					ack := svc.Delete(op.Key)
					t.updates++
					t.lat.Record(ack.LatencyNS)
				case dict.Lookup:
					res := svc.Get(op.Key)
					t.lookups++
					if res.OK {
						t.hits++
					}
					t.lat.Record(res.LatencyNS)
				case dict.RangeScan:
					res := svc.Scan(op.Key, op.Hi)
					t.scans++
					t.lat.Record(res.LatencyNS)
				}
			}
		}(g, ops)
	}
	wg.Wait()
	rep.WallNS = time.Since(start).Nanoseconds()

	for i := range tallies {
		t := &tallies[i]
		rep.Updates += t.updates
		rep.Lookups += t.lookups
		rep.Scans += t.scans
		rep.Hits += t.hits
		rep.Latency.Merge(&t.lat)
	}
	rep.Ops = rep.Updates + rep.Lookups + rep.Scans
	return rep
}
