// Command aem is the repository's multitool: every workload driver and
// the experiment harness behind one binary.
//
//	aem bench    run the experiment registry on the local worker pool
//	             (tables, CSV, JSON records; -timing runs points serially
//	             and records wall clock and allocations per point)
//	aem gate     check timed bench runs (allocations and wall clock per
//	             point) and a dictload amortized/deamortized pair (worst
//	             stall Q) against one committed baseline
//	aem dict     dictionary op streams: buffer tree vs B-tree vs bounds
//	aem dictload concurrent load against the sharded dictionary service:
//	             throughput, p50/p99/max latency, worst flush stall
//	aem sort     sorting workloads vs the paper's bounds
//	aem spmxv    sparse matrix × dense vector, both Section 5 algorithms
//	aem trace    record and analyze an algorithm's I/O trace
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.Main(os.Args[1:]))
}
