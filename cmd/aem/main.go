// Command aem is the repository's multitool: every workload driver and
// the experiment harness behind one binary.
//
//	aem bench    run the experiment registry (tables, CSV, JSON records),
//	             locally or as one shard of a distributed run (-shard i/m)
//	aem merge    reassemble shard or fleet point records into the
//	             unsharded tables; -residual writes the resume spec of an
//	             interrupted run
//	aem serve    coordinate an elastic fleet: lease grid points to
//	             workers over HTTP, ingest their streamed records
//	aem work     run grid points for a coordinator (-connect URL), or
//	             finish an interrupted run (-residual file)
//	aem gate     compare a timed run's points/sec against a baseline
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
