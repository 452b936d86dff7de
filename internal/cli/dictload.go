package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/aem"
	"repro/internal/dictsrv"
	"repro/internal/harness"
	"repro/internal/workload"
)

// dictloadCmd drives a concurrent op load against the sharded dictionary
// service (internal/dictsrv) and reports throughput, per-op latency
// percentiles, the worst flush stall, and the amortized Q accounting —
// the serving-side view of the paper's write-buffering tradeoff, where
// the Θ(ωM) root-buffer deferral shows up as tail latency.
//
//	aem dictload -ops 2000000 -gor 8 -shards 4 -omega 16
//	aem dictload -scenario drift -engine file -json
//	aem dictload -deamortize -json        (bounded-stall commit mode)
//
// Scenarios: uniform | zipf | sortedburst | deleteheavy | drift (default:
// drift — the migrating-hot-set shape that keeps invalidating buffered
// locality) | flashcrowd. Engines: any data-retaining engine (see `aem
// engines`). With -deamortize each commit batch pays flushes in bounded
// installments (debt queue + FlushStep) instead of run-to-completion
// cascades; `aem gate` judges an amortized and a deamortized record
// together. A flush section is one call the shard's tree holder made that
// flushed: a commit batch that ran a node-flush (timed as its stall), a
// Flush barrier, an idle retirer step, or an idle rebuild. Latency
// percentiles are nearest-rank, read from a histogram that overstates
// them by less than 1/8; max is exact.
func dictloadCmd(prog string, args []string) int {
	fs := flag.NewFlagSet(prog, flag.ExitOnError)
	var (
		nOps     = fs.Int("ops", 1_000_000, "total operations across all goroutines")
		gor      = fs.Int("gor", 8, "concurrent load goroutines")
		shards   = fs.Int("shards", 4, "keyspace partitions (one machine + tree each), at most -ops")
		keyspace = fs.Int64("keyspace", 65536, "distinct-key domain size")
		machine  = machineFlags(fs, 1024, 32, 16)
		scenario = fs.String("scenario", "drift", "workload: uniform | zipf | sortedburst | deleteheavy | drift | flashcrowd")
		engine   = fs.String("engine", "slice", "storage engine: "+strings.Join(aem.EngineNames(), " | "))
		seed     = fs.Uint64("seed", 1, "workload seed")
		deam     = fs.Bool("deamortize", false, "bounded-stall commits: pay flushes in installments instead of cascades")
		jsonOut  = fs.Bool("json", false, "emit one JSON report instead of the human summary")
	)
	fs.Parse(args)

	cfg, err := machine()
	if err != nil {
		fail(prog, "%v", err)
		return 2
	}
	sc, found := workload.ScenarioByName(*scenario)
	if !found {
		fail(prog, "unknown scenario %q", *scenario)
		return 2
	}
	if *gor < 1 {
		fail(prog, "-gor must be ≥ 1, got %d", *gor)
		return 2
	}
	if *nOps < 1 {
		fail(prog, "-ops must be ≥ 1, got %d", *nOps)
		return 2
	}
	if *keyspace < 2 {
		fail(prog, "-keyspace must be ≥ 2, got %d", *keyspace)
		return 2
	}
	// Every shard is built before the load starts, so a shard count
	// beyond the op count only spends memory on shards no op can reach.
	if *shards > *nOps {
		fail(prog, "-shards must be ≤ -ops (%d), got %d", *nOps, *shards)
		return 2
	}

	svc, err := dictsrv.New(dictsrv.Config{
		Shards:     *shards,
		Machine:    cfg,
		Engine:     *engine,
		KeyLo:      0,
		KeyHi:      *keyspace,
		Deamortize: *deam,
	})
	if err != nil {
		fail(prog, "%v", err)
		return 2
	}
	defer svc.Close()

	streams := workload.DictStreams(*seed, sc, *gor, *nOps, *keyspace)
	rep := dictsrv.RunLoad(svc, streams)
	svc.Flush()
	st := svc.Stats()
	lat := &rep.Latency
	p50, p99, p999 := lat.Quantile(0.5), lat.Quantile(0.99), lat.Quantile(0.999)

	if *jsonOut {
		out := dictloadRecord{
			Type: "dictload", Scenario: sc.String(), Engine: *engine,
			Shards: *shards, Goroutines: rep.Goroutines, Deamortize: *deam,
			Ops: rep.Ops, WallNS: rep.WallNS, OpsPerSec: rep.OpsPerSec(),
			P50NS: p50, P99NS: p99, P999NS: p999, MaxNS: lat.MaxNS,
			MaxStallNS: st.MaxStallNS, MaxStallQ: st.MaxStallQ, P999StallNS: st.Stalls.Quantile(0.999),
			MaxFlushNS: st.MaxFlushNS, DebtHighWater: st.DebtHighWater,
			Flushes: st.Flushes,
			Reads:   st.Reads, Writes: st.Writes, SnapReads: st.SnapReads,
			Cost: st.Cost, CostPerOp: float64(st.Cost) / float64(rep.Ops),
			Blocks: st.Blocks, ReusedBlocks: st.ReusedBlocks,
		}
		if err := json.NewEncoder(os.Stdout).Encode(&out); err != nil {
			fail(prog, "%v", err)
			return 1
		}
		return 0
	}

	mode := "amortized"
	if *deam {
		mode = "deamortized"
	}
	fmt.Printf("service      %d shard(s) of (M=%d, B=%d, ω=%d)-AEM on the %s engine, keyspace %d, %s commits\n",
		*shards, cfg.M, cfg.B, cfg.Omega, *engine, *keyspace, mode)
	fmt.Printf("load         %d ops from %d goroutine(s), %s workload (seed %d): %d updates / %d lookups (%d hits) / %d scans\n",
		rep.Ops, rep.Goroutines, sc, *seed, rep.Updates, rep.Lookups, rep.Hits, rep.Scans)
	fmt.Printf("throughput   %.0f ops/sec (%s wall)\n", rep.OpsPerSec(), harness.FmtNS(rep.WallNS))
	fmt.Printf("latency      p50 %s   p99 %s   p99.9 %s   max %s\n",
		harness.FmtNS(p50), harness.FmtNS(p99), harness.FmtNS(p999), harness.FmtNS(lat.MaxNS))
	fmt.Printf("stalls       worst commit stall %s (Q %d)   p99.9 %s   debt high-water %d   (%d flush section(s), worst %s)\n",
		harness.FmtNS(st.MaxStallNS), st.MaxStallQ, harness.FmtNS(st.Stalls.Quantile(0.999)),
		st.DebtHighWater, st.Flushes, harness.FmtNS(st.MaxFlushNS))
	fmt.Printf("accounting   %d reads + %d snapshot reads + ω·%d writes = Q %d (%.2f per op); %d blocks stored, %d writes reused a block\n",
		st.Reads, st.SnapReads, st.Writes, st.Cost, float64(st.Cost)/float64(rep.Ops), st.Blocks, st.ReusedBlocks)
	return 0
}

// dictloadRecord is the JSON report of `aem dictload -json`, which `aem
// gate` reads as a stall leg. One type in one place so the producer and
// the gate cannot drift.
type dictloadRecord struct {
	Type          string  `json:"type"` // "dictload"
	Scenario      string  `json:"scenario"`
	Engine        string  `json:"engine"`
	Shards        int     `json:"shards"`
	Goroutines    int     `json:"goroutines"`
	Deamortize    bool    `json:"deamortize"`
	Ops           int64   `json:"ops"`
	WallNS        int64   `json:"wall_ns"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	P50NS         int64   `json:"p50_ns"`
	P99NS         int64   `json:"p99_ns"`
	P999NS        int64   `json:"p999_ns"`
	MaxNS         int64   `json:"max_ns"`
	MaxStallNS    int64   `json:"max_stall_ns"`
	MaxStallQ     int64   `json:"max_stall_q"`
	P999StallNS   int64   `json:"p999_stall_ns"`
	MaxFlushNS    int64   `json:"max_flush_ns"`
	DebtHighWater int64   `json:"debt_high_water"`
	Flushes       int64   `json:"flushes"`
	Reads         int64   `json:"reads"`
	Writes        int64   `json:"writes"`
	SnapReads     int64   `json:"snap_reads"`
	Cost          int64   `json:"cost"`
	CostPerOp     float64 `json:"cost_per_op"`
	Blocks        int64   `json:"blocks"`
	ReusedBlocks  int64   `json:"reused_blocks"`
}
