package dictsrv

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aem"
	"repro/internal/dict"
	"repro/internal/workload"
)

func testConfig(shards int) Config {
	return Config{
		Shards:  shards,
		Machine: aem.Config{M: 128, B: 16, Omega: 8},
		KeyLo:   0, KeyHi: 4096,
	}
}

// TestServiceBasic pins the single-session contract: a committed write is
// visible to the writer's own subsequent reads (publish-before-ack), and
// deletes take effect.
func TestServiceBasic(t *testing.T) {
	svc, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	for k := int64(0); k < 512; k++ {
		ack := svc.Put(k, k*3)
		if ack.Commit <= 0 {
			t.Fatalf("Put(%d) got commit %d", k, ack.Commit)
		}
		got := svc.Get(k)
		if !got.OK || got.Value != k*3 {
			t.Fatalf("read-your-writes violated: Get(%d) = (%d,%v) after Put", k, got.Value, got.OK)
		}
		if got.Watermark < ack.Commit && got.Shard == ack.Shard {
			t.Fatalf("Get(%d) watermark %d below own commit %d", k, got.Watermark, ack.Commit)
		}
	}
	svc.Delete(100)
	if got := svc.Get(100); got.OK {
		t.Fatal("Get(100) found a deleted key")
	}

	res := svc.Scan(0, 512)
	if len(res.Hits) != 511 {
		t.Fatalf("Scan(0,512) = %d hits, want 511", len(res.Hits))
	}
	prev := int64(-1)
	for _, h := range res.Hits {
		if h.Key <= prev {
			t.Fatalf("scan out of order at key %d", h.Key)
		}
		if h.Key == 100 {
			t.Fatal("scan returned the deleted key")
		}
		prev = h.Key
	}
	if len(res.Segments) != 1 {
		t.Fatalf("Scan(0,512) covers one shard (span 1024) but got %d segments", len(res.Segments))
	}
	full := svc.Scan(0, 4096)
	if len(full.Segments) != 4 {
		t.Fatalf("full-keyspace scan got %d segments, want 4", len(full.Segments))
	}
	if len(full.Hits) != len(res.Hits) {
		t.Fatalf("full scan found %d hits, shard-0 scan %d", len(full.Hits), len(res.Hits))
	}

	st := svc.Stats()
	if st.Committed != 513 {
		t.Fatalf("Stats.Committed = %d, want 513", st.Committed)
	}
	if st.Writes == 0 || st.SnapReads == 0 {
		t.Fatalf("Stats accounting empty: %+v", st)
	}
	if st.Cost != st.Reads+int64(8)*st.Writes+st.SnapReads {
		t.Fatalf("Stats.Cost=%d inconsistent with reads=%d writes=%d snapReads=%d ω=8",
			st.Cost, st.Reads, st.Writes, st.SnapReads)
	}
}

// TestServiceConfigErrors pins constructor validation.
func TestServiceConfigErrors(t *testing.T) {
	bad := []Config{
		{Shards: 0, Machine: aem.Config{M: 128, B: 16, Omega: 1}, KeyHi: 10},
		{Shards: 1, Machine: aem.Config{M: 128, B: 16, Omega: 1}, KeyLo: 5, KeyHi: 5},
		{Shards: 20, Machine: aem.Config{M: 128, B: 16, Omega: 1}, KeyHi: 10},
		{Shards: 1, Machine: aem.Config{M: 0, B: 16, Omega: 1}, KeyHi: 10},
		{Shards: 1, Machine: aem.Config{M: 128, B: 16, Omega: 1}, KeyHi: 10, Engine: "nope"},
		{Shards: 1, Machine: aem.Config{M: 128, B: 16, Omega: 1}, KeyHi: 10, Engine: "counting"},
		{Shards: 1, Machine: aem.Config{M: 128, B: 16, Omega: 1}, KeyHi: 10, MaxBatch: -3},
	}
	for i, cfg := range bad {
		if svc, err := New(cfg); err == nil {
			svc.Close()
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

// opRecord is one completed operation in a concurrent history.
type opRecord struct {
	op        dict.Op
	shard     int
	commit    int64 // writes: position in the shard's commit order
	watermark int64 // reads: shard watermark the answer was served at
	ok        bool
	value     int64
}

// TestLinearizability is the differential layer for concurrent histories:
// G goroutines run mixed streams, recording for every write its (shard,
// commit) and for every read its (shard, watermark) plus answer. The
// checker then replays each shard's writes in commit order into a model
// map and verifies every read's answer equals the model state after
// exactly `watermark` ops — i.e. reads observe a prefix of the commit
// order and writes are densely, uniquely ordered. Runs under -race in CI
// (the repo race job runs all tests), which also holds the
// snapshot-vs-tree-holder memory claims.
func TestLinearizability(t *testing.T) {
	for _, deam := range []bool{false, true} {
		name := "amortized"
		if deam {
			name = "deamortized"
		}
		t.Run(name, func(t *testing.T) { runLinearizability(t, deam) })
	}
}

func runLinearizability(t *testing.T, deamortize bool) {
	const (
		goroutines = 8
		perG       = 2500
		keyspace   = 1024
		shards     = 4
	)
	cfg := testConfig(shards)
	cfg.KeyHi = keyspace
	cfg.MaxBatch = 64 // small batches → many snapshot publishes → more schedules
	cfg.Deamortize = deamortize
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	streams := workload.DictStreams(42, workload.DriftOps, goroutines, goroutines*perG, keyspace)
	hist := make([][]opRecord, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			recs := make([]opRecord, 0, len(streams[g]))
			for _, op := range streams[g] {
				switch op.Kind {
				case dict.Insert:
					ack := svc.Put(op.Key, op.Value)
					recs = append(recs, opRecord{op: op, shard: ack.Shard, commit: ack.Commit})
				case dict.Delete:
					ack := svc.Delete(op.Key)
					recs = append(recs, opRecord{op: op, shard: ack.Shard, commit: ack.Commit})
				case dict.Lookup:
					res := svc.Get(op.Key)
					recs = append(recs, opRecord{op: op, shard: res.Shard,
						watermark: res.Watermark, ok: res.OK, value: res.Value})
				case dict.RangeScan:
					// Scans span shards with independent watermarks; the
					// per-shard read contract is already pinned by lookups,
					// so the concurrent history checks point reads only.
				}
			}
			hist[g] = recs
		}(g)
	}
	wg.Wait()
	svc.Close()

	checkHistories(t, svc, hist, shards)
}

// checkHistories replays recorded concurrent histories against per-shard
// model maps.
func checkHistories(t *testing.T, svc *Service, hist [][]opRecord, shards int) {
	t.Helper()

	// Collect each shard's writes, indexed by commit position.
	writes := make([]map[int64]dict.Op, shards)
	for i := range writes {
		writes[i] = make(map[int64]dict.Op)
	}
	var reads []opRecord
	for _, recs := range hist {
		// Per-session monotonicity: commits and watermarks on one shard
		// never move backwards within a session, and a session's read
		// watermark covers its own prior writes.
		lastSeen := make([]int64, shards)
		for _, r := range recs {
			if r.op.Kind == dict.Insert || r.op.Kind == dict.Delete {
				if r.commit <= 0 {
					t.Fatalf("write got non-positive commit %d", r.commit)
				}
				if _, dup := writes[r.shard][r.commit]; dup {
					t.Fatalf("shard %d commit %d assigned twice", r.shard, r.commit)
				}
				writes[r.shard][r.commit] = r.op
				if r.commit < lastSeen[r.shard] {
					t.Fatalf("session went backwards on shard %d: commit %d after %d",
						r.shard, r.commit, lastSeen[r.shard])
				}
				lastSeen[r.shard] = r.commit
			} else if r.op.Kind == dict.Lookup {
				if r.watermark < lastSeen[r.shard] {
					t.Fatalf("read-your-writes violated on shard %d: watermark %d below own commit %d",
						r.shard, r.watermark, lastSeen[r.shard])
				}
				if r.watermark > lastSeen[r.shard] {
					lastSeen[r.shard] = r.watermark
				}
				reads = append(reads, r)
			}
		}
	}

	// Density: shard commits must be exactly 1..n.
	for s := 0; s < shards; s++ {
		n := int64(len(writes[s]))
		for c := int64(1); c <= n; c++ {
			if _, ok := writes[s][c]; !ok {
				t.Fatalf("shard %d: commit order has a hole at %d (of %d)", s, c, n)
			}
		}
	}

	// Replay each shard's commit order, answering every read at its
	// watermark prefix. Sort reads by watermark and sweep.
	for s := 0; s < shards; s++ {
		var shardReads []opRecord
		for _, r := range reads {
			if r.shard == s {
				shardReads = append(shardReads, r)
			}
		}
		// Insertion-sort substitute: reads are answered during one linear
		// replay, so order them by watermark first.
		sortByWatermark(shardReads)
		model := make(map[int64]int64)
		next := 0
		n := int64(len(writes[s]))
		for c := int64(0); c <= n; c++ {
			if c > 0 {
				op := writes[s][c]
				switch op.Kind {
				case dict.Insert:
					model[op.Key] = op.Value
				case dict.Delete:
					delete(model, op.Key)
				}
			}
			for next < len(shardReads) && shardReads[next].watermark == c {
				r := shardReads[next]
				want, wantOK := model[r.op.Key]
				if r.ok != wantOK || (r.ok && r.value != want) {
					t.Fatalf("shard %d @ watermark %d: Get(%d) = (%d,%v), model (%d,%v)",
						s, c, r.op.Key, r.value, r.ok, want, wantOK)
				}
				next++
			}
		}
		if next != len(shardReads) {
			t.Fatalf("shard %d: %d reads carry watermarks beyond the commit count %d",
				s, len(shardReads)-next, n)
		}
	}
}

func sortByWatermark(recs []opRecord) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].watermark < recs[j-1].watermark; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

// TestLookupDuringFlushHammer is the -race hammer for the tentpole's
// concurrency claim: readers descend published snapshots while the
// tree holder cascades and rebuilds underneath them. A tiny machine at high
// ω maximizes flush frequency; any unsynchronized engine access or
// snapshot instability trips the race detector or miscompares.
func TestLookupDuringFlushHammer(t *testing.T) {
	for _, deam := range []bool{false, true} {
		name := "amortized"
		if deam {
			name = "deamortized"
		}
		t.Run(name, func(t *testing.T) { runLookupDuringFlushHammer(t, deam) })
	}
}

func runLookupDuringFlushHammer(t *testing.T, deamortize bool) {
	cfg := Config{
		Shards:  2,
		Machine: aem.Config{M: 64, B: 8, Omega: 16},
		KeyLo:   0, KeyHi: 512,
		MaxBatch:   32,
		Deamortize: deamortize,
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const writers, readers = 4, 4
	iters := 4000
	if testing.Short() {
		iters = 800
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := workload.NewRNG(uint64(1000 + w))
			for i := 0; i < iters; i++ {
				k := int64(r.Intn(512))
				if r.Intn(10) == 0 {
					svc.Delete(k)
				} else {
					svc.Put(k, int64(i))
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			r := workload.NewRNG(uint64(2000 + rd))
			for i := 0; i < iters; i++ {
				if r.Intn(20) == 0 {
					lo := int64(r.Intn(480))
					svc.Scan(lo, lo+32)
				} else {
					svc.Get(int64(r.Intn(512)))
				}
			}
		}(rd)
	}
	wg.Wait()

	// Every op is acked, but a deamortized retirer may still be retiring
	// idle debt or compacting: Close joins the retirers, and only then are
	// the machine counters quiescent.
	svc.Close()
	st := svc.Stats()
	if st.Flushes == 0 {
		t.Fatal("hammer never flushed; shrink the machine or raise iters")
	}
	if st.MaxFlushNS <= 0 {
		t.Fatal("flushes happened but no stall was recorded")
	}
}

// TestFileDirectConcurrentReads runs snapshot readers against a
// file-direct shard while its writer commits. Both sides move blocks
// through the engine's positional transfer path at the same time, so a
// transfer buffer shared between them corrupts reads, overflows the
// tree's block vectors, or trips the race detector. Every key is
// preloaded and never deleted, and every value written for key k is
// congruent to k, so each Get must find its key with a value of that key.
func TestFileDirectConcurrentReads(t *testing.T) {
	t.Setenv(aem.FileDirEnv, t.TempDir())
	cfg := testConfig(1)
	cfg.Engine = "file-direct"
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const keys, readers = 256, 4
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	for k := int64(0); k < keys; k++ {
		svc.Put(k, k)
	}
	stop := make(chan struct{})
	errs := make(chan string, readers)
	var wg sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			r := workload.NewRNG(uint64(3000 + rd))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := int64(r.Intn(keys))
				if g := svc.Get(k); !g.OK || g.Value%keys != k {
					errs <- fmt.Sprintf("Get(%d) = (%d, %v) at watermark %d", k, g.Value, g.OK, g.Watermark)
					return
				}
			}
		}(rd)
	}
	for i := int64(1); i <= int64(rounds); i++ {
		for k := int64(0); k < keys; k++ {
			svc.Put(k, k+keys*i)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestGetSteadyStateAllocs pins the zero-allocation claim of the serving
// read path: once scratch is pooled and the snapshot is warm, Get must
// not allocate.
func TestGetSteadyStateAllocs(t *testing.T) {
	for _, deam := range []bool{false, true} {
		name := "amortized"
		if deam {
			name = "deamortized"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(2)
			cfg.Deamortize = deam
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			for k := int64(0); k < 2048; k++ {
				svc.Put(k, k)
			}
			// Warm the scratch pools on both shards.
			for k := int64(0); k < 64; k++ {
				svc.Get(k * 64)
			}
			var k int64
			avg := testing.AllocsPerRun(200, func() {
				svc.Get(k % 4096)
				k += 37
			})
			if avg != 0 {
				t.Fatalf("steady-state Get allocates %.1f per op, want 0", avg)
			}
		})
	}
}

// TestPutSteadyStateAllocs pins the write round trip: once the request
// pool is warm, a single-writer staged Put allocates at most one object,
// the snapState its publish fills. The writer leads its own commit, so
// no request waits on a channel; requests are reused, and the capture of
// a batch that changed no chain allocates nothing. The stream stays below
// the root threshold, so a deamortized batch leaves no debt and pays its
// FlushStep(1) check inside the same bound.
func TestPutSteadyStateAllocs(t *testing.T) {
	for _, deam := range []bool{false, true} {
		name := "amortized"
		if deam {
			name = "deamortized"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(1)
			cfg.Deamortize = deam
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			for k := int64(0); k < 64; k++ {
				svc.Put(k, k)
			}
			var k int64
			avg := testing.AllocsPerRun(200, func() {
				svc.Put(k%4096, k)
				k += 37
			})
			if avg > 1 {
				t.Fatalf("steady-state Put allocates %.1f per op, want ≤ 1", avg)
			}
			if st := svc.Stats(); st.Debt != 0 || st.Flushes != 0 {
				t.Fatalf("the stream reached a flush (debt %d, %d flush sections); it must stay below the root threshold", st.Debt, st.Flushes)
			}
		})
	}
}

// TestBoundedStallRegression is the deamortization contract at the
// service level: with Deamortize on, no non-barrier commit batch performs
// more than 2 node-flushes — the budgeted FlushStep(1) plus at most one
// 2×rootCap root backstop, each an individually bounded stall — while the
// amortized service pays whole cascades per batch. The stall histogram
// and debt gauges must be populated. (Answer correctness under
// concurrency is TestLinearizability's job, in both modes.)
func TestBoundedStallRegression(t *testing.T) {
	run := func(deam bool) Stats {
		cfg := testConfig(2)
		cfg.Machine = aem.Config{M: 128, B: 16, Omega: 16}
		cfg.KeyHi = 1024
		cfg.MaxBatch = 32
		cfg.Deamortize = deam
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		streams := workload.DictStreams(9, workload.DriftOps, 4, 40000, 1024)
		RunLoad(svc, streams)
		st := svc.Stats() // before the barrier: commit-path telemetry only
		svc.Flush()
		svc.Close()
		return st
	}
	amortized := run(false)
	deamortized := run(true)

	if deamortized.BatchFlushes > 2 {
		t.Fatalf("deamortized batch performed %d node-flushes, want ≤ 2 (budget + backstop)",
			deamortized.BatchFlushes)
	}
	if amortized.BatchFlushes <= 2 {
		t.Fatalf("amortized batches peaked at %d node-flushes — the workload never cascaded, weaken nothing, grow the stream",
			amortized.BatchFlushes)
	}
	if deamortized.Stalls.N == 0 || deamortized.MaxStallNS <= 0 {
		t.Fatalf("stall histogram empty: %+v", deamortized.Stalls)
	}
	for _, st := range []Stats{amortized, deamortized} {
		if st.MaxStallNS != st.Stalls.MaxNS {
			t.Fatalf("MaxStallNS %d != Stalls.MaxNS %d", st.MaxStallNS, st.Stalls.MaxNS)
		}
	}
	if q := deamortized.Stalls.Quantile(0.999); q <= 0 || q > deamortized.MaxStallNS {
		t.Fatalf("p99.9 stall %d outside (0, max=%d]", q, deamortized.MaxStallNS)
	}
	if deamortized.DebtHighWater == 0 {
		t.Fatal("deamortized run accumulated no debt; the incremental path was not exercised")
	}
	if !deamortized.Deamortized || amortized.Deamortized {
		t.Fatal("Stats.Deamortized mislabeled")
	}
}

// TestRunLoadReport pins the load driver's accounting.
func TestRunLoadReport(t *testing.T) {
	svc, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	streams := workload.DictStreams(7, workload.DriftOps, 3, 3000, 4096)
	rep := RunLoad(svc, streams)
	if rep.Goroutines != 3 || rep.Ops != 3000 {
		t.Fatalf("report counted %d goroutines / %d ops, want 3 / 3000", rep.Goroutines, rep.Ops)
	}
	if rep.Updates+rep.Lookups+rep.Scans != rep.Ops {
		t.Fatalf("op classes don't sum: %+v", rep)
	}
	if int64(len(rep.LatencyNS)) != rep.Ops {
		t.Fatalf("captured %d latencies for %d ops", len(rep.LatencyNS), rep.Ops)
	}
	if rep.WallNS <= 0 || rep.OpsPerSec() <= 0 {
		t.Fatalf("degenerate wall time: %+v", rep)
	}
	if got := svc.Committed(); got != rep.Updates {
		t.Fatalf("service committed %d, report says %d updates", got, rep.Updates)
	}
}

// TestPanickingCommitFailsShard pins the failure contract: a commit that
// panics — here an out-of-range value tripping the tree's value check
// inside Apply — fails its shard instead of hanging it. The test holds
// shard 0's tree while four writes queue behind it, the second of them
// the bad value, then passes the tree on as a finishing holder does. With
// MaxBatch 2 the queue head leads a batch of itself and the bad write, so
// the panic unwinds on a leader with one batch member to wake and two
// writers still queued. All four writes, and every later write to that
// shard, must panic with the shard's failure, while the other shard keeps
// serving and Close returns.
func TestPanickingCommitFailsShard(t *testing.T) {
	for _, deam := range []bool{false, true} {
		name := "amortized"
		if deam {
			name = "deamortized"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(2) // shard 0 serves [0, 2048), shard 1 [2048, 4096)
			cfg.Deamortize = deam
			cfg.MaxBatch = 2
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k := int64(0); k < 4096; k += 3 {
				svc.Put(k, k)
			}

			sh := svc.shards[0]
			holdTree(t, sh)
			values := []int64{1, -1, 2, 3}
			failures := make(chan any, len(values))
			for i, v := range values {
				go func(k, v int64) { failures <- panicOf(func() { svc.Put(k, v) }) }(int64(10+i), v)
				waitQueued(t, sh, i+1)
			}
			sh.release(false)
			within(t, "writers on the failed shard", func() {
				for range values {
					if p := <-failures; !failedShard0(p) {
						t.Errorf("a write on the failed shard panicked with %v, want the shard 0 failure", p)
					}
				}
			})
			within(t, "a write to the failed shard", func() {
				if p := panicOf(func() { svc.Put(8, 8) }); !failedShard0(p) {
					t.Errorf("Put to the failed shard panicked with %v, want the shard 0 failure", p)
				}
			})
			within(t, "the healthy shard", func() {
				ack := svc.Put(3000, 42)
				if ack.Shard != 1 {
					t.Errorf("key 3000 routed to shard %d", ack.Shard)
				}
				if g := svc.Get(3000); !g.OK || g.Value != 42 {
					t.Errorf("Get(3000) = (%d, %v) after Put(3000, 42)", g.Value, g.OK)
				}
				if g := svc.Get(3); !g.OK || g.Value != 3 {
					t.Errorf("Get(3) = (%d, %v): the failed shard's last snapshot stopped serving", g.Value, g.OK)
				}
			})
			within(t, "Close", svc.Close)
		})
	}
}

// holdTree takes sh's tree as a holder would, once it is idle (a
// deamortized retirer may still be retiring the preload's debt).
func holdTree(t *testing.T, sh *shard) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		sh.mu.Lock()
		if !sh.busy {
			sh.busy = true
			sh.mu.Unlock()
			return
		}
		sh.mu.Unlock()
	}
	t.Fatal("the tree never went idle")
}

// waitQueued waits until n requests are queued on sh.
func waitQueued(t *testing.T, sh *shard, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		sh.mu.Lock()
		queued := len(sh.queue)
		sh.mu.Unlock()
		if queued == n {
			return
		}
	}
	t.Fatalf("%d requests never queued", n)
}

// panicOf runs f and returns what it panicked with, or nil.
func panicOf(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// failedShard0 reports whether p is shard 0's failure from the value check.
func failedShard0(p any) bool {
	err, ok := p.(error)
	return ok && strings.HasPrefix(err.Error(), "dictsrv: shard 0 failed: dict: value -1 outside")
}

// within fails the test if f does not return within ten seconds.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s hung", what)
	}
}

// BenchmarkPut measures the single-writer write round trip — a pooled
// request, the writer's own commit (Apply, plus one FlushStep when
// deamortized) and the publish — in both commit modes.
func BenchmarkPut(b *testing.B) {
	for _, deam := range []bool{false, true} {
		name := "amortized"
		if deam {
			name = "deamortized"
		}
		b.Run(name, func(b *testing.B) {
			cfg := Config{
				Shards:  4,
				Machine: aem.Config{M: 1024, B: 32, Omega: 8},
				KeyLo:   0, KeyHi: 65536,
				Deamortize: deam,
			}
			svc, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			b.ReportAllocs()
			b.ResetTimer()
			var k int64
			for i := 0; i < b.N; i++ {
				svc.Put(k, int64(i))
				k = (k + 9973) % 65536
			}
		})
	}
}

// BenchmarkGet measures the serving read path (pooled scratch, snapshot
// descent) against a pre-loaded service.
func BenchmarkGet(b *testing.B) {
	cfg := Config{
		Shards:  4,
		Machine: aem.Config{M: 1024, B: 32, Omega: 8},
		KeyLo:   0, KeyHi: 65536,
	}
	svc, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	r := workload.NewRNG(1)
	for i := 0; i < 40000; i++ {
		svc.Put(int64(r.Intn(65536)), int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var k int64
	for i := 0; i < b.N; i++ {
		svc.Get(k)
		k = (k + 9973) % 65536
	}
}
