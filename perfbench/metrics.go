package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDecl names one reported metric and its unit. The two lists below
// must match BENCHMARK.json at the repository root (metrics_test.go
// holds them to it).
type metricDecl struct{ name, unit string }

// endToEnd are what a user of the simulator or the service sees. Every
// workload reports every one of them, so they are defined per workload:
// an op is a dictionary operation, or one item sorted on sort-aem. Only
// setup_s is a time: the host moves CPU time per op by far more than the
// bound a regression gate can use, so throughput is a per-layer metric.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"q_per_op", "count"},
	{"alloc_kib_per_op", "KiB"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MiB"},
}

// perLayer come from the traced run. A layer a workload does not run
// reports 0.
var perLayer = []metricDecl{
	// Client view: throughput, and latency per op class as the service
	// measures it.
	{"ops_per_cpu_s", "1/cpu_s"},
	{"put_p50_us", "us"},
	{"put_p99_us", "us"},
	{"get_p50_us", "us"},
	{"get_p99_us", "us"},
	{"scan_p50_us", "us"},
	{"scan_p99_us", "us"},
	{"error_rate", "ratio"},

	{"dictsrv.put_overhead_us", "us"},
	{"dictsrv.get_overhead_us", "us"},
	{"dictsrv.commit_stall_p99_us", "us"},
	{"dictsrv.commit_stall_max_us", "us"},
	{"dictsrv.debt_high_water", "count"},
	{"dictsrv.flush_sections", "count"},
	{"dictsrv.flush_max_us", "us"},

	{"dict.apply_busy_s", "s"},
	{"dict.apply_p50_us", "us"},
	{"dict.flushstep_busy_s", "s"},
	{"dict.node_flushes", "count"},
	{"dict.snapshot_busy_s", "s"},
	{"dict.snapshot_p50_us", "us"},
	{"dict.snapshot_alloc_kb", "KiB"},
	{"dict.get_p50_us", "us"},
	{"dict.get_blocks_per_call", "count"},
	{"dict.range_p50_us", "us"},
	{"dict.range_blocks_per_call", "count"},
	{"dict.height", "count"},

	{"aem.reads_per_op", "count"},
	{"aem.writes_per_op", "count"},
	{"aem.snap_reads_per_op", "count"},
	{"aem.storage_read_calls", "count"},
	{"aem.storage_read_busy_s", "s"},
	{"aem.storage_write_busy_s", "s"},
	{"aem.sim_ios_per_cpu_s", "1/cpu_s"},

	{"sorting.base_q", "count"},
	{"sorting.merge_q", "count"},
	{"sorting.pointers_q", "count"},
	{"sorting.self_s", "s"},

	{"trace.overhead_frac", "ratio"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metric values by name.
type report struct{ vals map[string]float64 }

func newReport() *report { return &report{vals: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.vals[name] = v }

// zero reports 0 for metrics of layers the workload does not run.
func (r *report) zero(names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
}

// metrics renders exactly the declared metrics. It fails if one was never
// set, or if a metric was set that neither list declares.
func (r *report) metrics(decls []metricDecl) (map[string]metricOut, error) {
	known := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	var unknown []string
	for name := range r.vals {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("undeclared metrics: %s", strings.Join(unknown, ", "))
	}
	out := make(map[string]metricOut, len(decls))
	for _, d := range decls {
		v, ok := r.vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}
