package dictsrv

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
	// The other three shards hold no key, so a scan of the whole keyspace
	// answers exactly what the shard-0 scan did.
	if full := svc.Scan(0, 4096); !slices.Equal(full.Hits, res.Hits) {
		t.Fatalf("full scan found %d hits, shard-0 scan %d", len(full.Hits), len(res.Hits))
	}

	if got := svc.Committed(); got != 513 {
		t.Fatalf("Committed() = %d, want 513", got)
	}
	st := svc.Stats()
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
		{Shards: 1, Machine: aem.Config{M: 64, B: 16, Omega: 1}, KeyHi: 10}, // M < 8B
		{Shards: 1, Machine: aem.Config{M: 128, B: 16, Omega: 1}, KeyHi: 10, Engine: "nope"},
		{Shards: 1, Machine: aem.Config{M: 128, B: 16, Omega: 1}, KeyHi: 10, Engine: "counting"},
		{Shards: 1, Machine: aem.Config{M: 128, B: 16, Omega: 1}, KeyHi: 10, Engine: "file"},
	}
	for i, cfg := range bad {
		if svc, err := New(cfg); err == nil {
			svc.Close()
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestWideKeyspaces serves keyspaces whose width does not fit an int64
// (or whose bounds do, but not their difference) over 1, 2, 3 and 8
// shards: the shard intervals must tile [KeyLo, KeyHi), and a Put, Get and
// Scan at both edges and in the middle must answer correctly.
func TestWideKeyspaces(t *testing.T) {
	spaces := []struct{ lo, hi int64 }{
		{0, math.MaxInt64},
		{math.MinInt64, math.MaxInt64},
		{-1 << 62, 1 << 62},
		{-10, math.MaxInt64},
	}
	for _, ks := range spaces {
		for _, shards := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("%d..%d/shards=%d", ks.lo, ks.hi, shards), func(t *testing.T) {
				cfg := testConfig(shards)
				cfg.KeyLo, cfg.KeyHi = ks.lo, ks.hi
				svc, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				next := ks.lo
				for i := 0; i < shards; i++ {
					lo, hi := svc.shardRange(i)
					if lo != next || hi <= lo {
						t.Fatalf("shard %d covers [%d, %d), want a non-empty interval from %d", i, lo, hi, next)
					}
					if a, b := svc.shardFor(lo), svc.shardFor(hi-1); a != i || b != i {
						t.Fatalf("shard %d's edges %d and %d route to shards %d and %d", i, lo, hi-1, a, b)
					}
					next = hi
				}
				if next != ks.hi {
					t.Fatalf("the shards end at %d, want %d", next, ks.hi)
				}
				mid := int64(uint64(ks.lo) + (uint64(ks.hi)-uint64(ks.lo))/2)
				keys := []int64{ks.lo, mid, ks.hi - 1}
				for i, k := range keys {
					svc.Put(k, int64(i+1))
				}
				for i, k := range keys {
					if got := svc.Get(k); !got.OK || got.Value != int64(i+1) {
						t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, got.Value, got.OK, i+1)
					}
					if got := svc.Scan(k, k+1).Hits; len(got) != 1 || got[0] != (dict.Found{Key: k, Value: int64(i + 1)}) {
						t.Fatalf("Scan(%d, %d) = %v", k, k+1, got)
					}
				}
				got := svc.Scan(ks.lo, ks.hi).Hits
				want := []dict.Found{{Key: ks.lo, Value: 1}, {Key: mid, Value: 2}, {Key: ks.hi - 1, Value: 3}}
				if !slices.Equal(got, want) {
					t.Fatalf("Scan of the whole keyspace = %v, want %v", got, want)
				}
			})
		}
	}
}

// TestRetirerStartsOnDemand pins the deamortized retirer's lifecycle: New,
// Gets and Scans start no goroutine, writes that first leave one shard
// idle work start exactly one, its retirer, and Close joins it.
func TestRetirerStartsOnDemand(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := steadyGoroutines(t)
			cfg := testConfig(shards)
			cfg.Deamortize = true
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			expectGoroutines(t, "after New", base)
			reads := func() {
				for k := int64(0); k < 4096; k += 97 {
					svc.Get(k)
					svc.Scan(k, k+300)
				}
			}
			reads()
			expectGoroutines(t, "after Gets and Scans", base)

			// Write to shard 0 alone until a commit leaves it idle work.
			lo, hi := svc.shardRange(0)
			n := 0
			for ; !retirerStarted(svc.shards[0]); n++ {
				if n == 1<<16 {
					t.Fatalf("%d writes to shard 0 left it no idle work", n)
				}
				svc.Put(lo+int64(n)%(hi-lo), int64(n))
			}
			expectGoroutines(t, fmt.Sprintf("after %d writes started shard 0's retirer", n), base+1)
			for i := 0; i < 2*n; i++ {
				svc.Put(lo+int64(i)%(hi-lo), int64(i))
			}
			reads()
			expectGoroutines(t, "after more writes to shard 0 and reads", base+1)
			for _, other := range svc.shards[1:] {
				if retirerStarted(other) {
					t.Fatalf("shard %d, never written, started a retirer", other.idx)
				}
			}

			svc.Close()
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() != base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, want %d", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// retirerStarted reports whether sh has started its retirer.
func retirerStarted(sh *shard) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.wake != nil
}

// steadyGoroutines returns the goroutine count once it has held still for
// 50ms, so goroutines that earlier tests ended have exited.
func steadyGoroutines(t *testing.T) int {
	t.Helper()
	n, since := runtime.NumGoroutine(), time.Now()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		} else if time.Since(since) >= 50*time.Millisecond {
			return n
		}
	}
	t.Fatal("the goroutine count never settled")
	return 0
}

// expectGoroutines fails the test unless want goroutines run. A goroutine
// counts from its go statement on, so a start shows at once.
func expectGoroutines(t *testing.T, when string, want int) {
	t.Helper()
	if got := runtime.NumGoroutine(); got != want {
		t.Fatalf("%d goroutines %s, want %d", got, when, want)
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
	cfg.Deamortize = deamortize
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.maxBatch = 64 // small batches → many snapshot publishes → more schedules

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
		Deamortize: deamortize,
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.maxBatch = 32

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

// TestReadsDuringStorageGrowth runs snapshot readers against a shard
// while its writer commits. The readers copy blocks out of the slice
// engine while the writer writes blocks, grows the engine's block table
// under them and rewrites blocks its tree let go of, so a block that
// moved, a table replaced on growth or a write into a live block's memory
// corrupts reads, overflows the tree's block vectors, or trips the race
// detector. Every key is preloaded and never deleted, and every value
// written for key k is congruent to k, so each Get must find its key with
// a value of that key.
func TestReadsDuringStorageGrowth(t *testing.T) {
	cfg := testConfig(1)
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

// TestHeldViewIsolation holds published views while the tree holder
// moves on. Readers keep up to 16 views each, snapshot, watermark and pin
// from shard.view, and keep checking old ones while one writer stages,
// spills, pays FlushSteps (deamortized), cascades, compacts and, in the
// second half, runs barriers. Every answer must match the model at its
// view's own watermark. A view extended in place reads the live stage
// array the holder keeps appending to, so under -race this pins that the
// holder writes only past what it published and never refills a shared
// array. Each held view keeps its pin until it is replaced, and the shard
// must still reuse blocks while views are held: a reclaimed block that a
// held view could reach would answer with another key's data.
func TestHeldViewIsolation(t *testing.T) {
	for _, deam := range []bool{false, true} {
		name := "amortized"
		if deam {
			name = "deamortized"
		}
		t.Run(name, func(t *testing.T) { runHeldViewIsolation(t, deam) })
	}
}

func runHeldViewIsolation(t *testing.T, deamortize bool) {
	const (
		keys    = 256
		nOps    = 40000
		readers = 2
		held    = 16
	)
	cfg := Config{Shards: 1, Machine: aem.Config{M: 128, B: 16, Omega: 1}, KeyHi: keys, Deamortize: deamortize}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := svc.shards[0]

	// One writer on one shard: op i commits at position i+1. versions[k]
	// lists key k's writes in commit order, and valueAt reads the model
	// after the first w of them.
	type version struct {
		commit, value int64
		live          bool
	}
	r := workload.NewRNG(77)
	ops := make([]dict.Op, nOps)
	versions := make([][]version, keys)
	for i := range ops {
		k := int64(r.Intn(keys))
		op := dict.Op{Kind: dict.Insert, Key: k, Value: int64(i)}
		if r.Intn(10) < 3 {
			op.Kind = dict.Delete
		}
		ops[i] = op
		versions[k] = append(versions[k], version{int64(i + 1), op.Value, op.Kind == dict.Insert})
	}
	valueAt := func(k, w int64) (int64, bool) {
		vs := versions[k]
		i := sort.Search(len(vs), func(i int) bool { return vs[i].commit > w })
		if i == 0 || !vs[i-1].live {
			return 0, false
		}
		return vs[i-1].value, true
	}

	type heldView struct {
		snap      dict.TreeSnapshot
		watermark int64
		pin       uint64
	}
	var checks, grown atomic.Int64
	check := func(v *heldView, sc *dict.GetScratch, r *workload.RNG) error {
		k := int64(r.Intn(keys))
		got, ok, _ := v.snap.Get(shardReader{sh}, k, sc)
		if want, wantOK := valueAt(k, v.watermark); ok != wantOK || got != want {
			return fmt.Errorf("view at watermark %d: Get(%d) = (%d, %v), model (%d, %v)", v.watermark, k, got, ok, want, wantOK)
		}
		lo := int64(r.Intn(keys))
		hi := lo + 1 + int64(r.Intn(64))
		hits, _ := v.snap.Range(shardReader{sh}, lo, hi)
		for k := lo; k < min(hi, keys); k++ {
			want, wantOK := valueAt(k, v.watermark)
			if !wantOK {
				continue
			}
			if len(hits) == 0 || hits[0].Key != k || hits[0].Value != want {
				return fmt.Errorf("view at watermark %d: Range(%d, %d) lacks (%d, %d): %v", v.watermark, lo, hi, k, want, hits)
			}
			hits = hits[1:]
		}
		if len(hits) > 0 {
			return fmt.Errorf("view at watermark %d: Range(%d, %d) holds extra hits %v", v.watermark, lo, hi, hits)
		}
		checks.Add(1)
		return nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { // also when the writer fails the test
		select {
		case <-stop:
		default:
			close(stop)
		}
		wg.Wait()
		svc.Close()
	}()
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			r := workload.NewRNG(uint64(500 + rd))
			sc := dict.NewGetScratch(cfg.Machine.B)
			var views []heldView
			for done := false; !done; {
				select {
				case <-stop:
					done = true // one last pass over every held view
				default:
				}
				if sh.snap.Load().ext.Load() > 0 {
					grown.Add(1)
				}
				snap, wm, pin := sh.view()
				if len(views) < held {
					views = append(views, heldView{snap, wm, pin})
				} else {
					i := r.Intn(held)
					sh.unpin(views[i].pin)
					views[i] = heldView{snap, wm, pin}
				}
				for i := range views {
					if err := check(&views[i], sc, r); err != nil {
						t.Error(err)
						return
					}
				}
			}
			for _, v := range views {
				sh.unpin(v.pin)
			}
		}(rd)
	}

	rebuilt := false
	for i, op := range ops {
		if i >= nOps/2 && i%5000 == 0 {
			if !rebuilt {
				// Before the first barrier only a cascade (amortized) or an
				// idle Compact (deamortized) can have rebuilt the tree.
				holdTree(t, sh)
				rebuilt = sh.tree.Height() > 1
				sh.release(false, nil)
				if !rebuilt {
					t.Fatal("the tree was not rebuilt before the first barrier")
				}
			}
			svc.Flush()
		}
		if op.Kind == dict.Insert {
			svc.Put(op.Key, op.Value)
		} else {
			svc.Delete(op.Key)
		}
	}
	close(stop)
	wg.Wait()
	st := svc.Stats()
	reused := reusedBlocks(t, sh)
	t.Logf("%d checks; %d views read while extended in place; %d flush sections; %d writes reused a block",
		checks.Load(), grown.Load(), st.Flushes, reused)
	if checks.Load() == 0 || grown.Load() == 0 {
		t.Fatalf("readers made %d checks over %d in-place extended views, want both > 0", checks.Load(), grown.Load())
	}
	if reused == 0 {
		t.Fatal("no block was reused while views were held")
	}
	// Every view is unpinned now, so one more publish ends every grace
	// period.
	svc.Put(0, 0)
	holdTree(t, sh)
	defer sh.release(false, nil)
	if len(sh.limbo) != 0 {
		t.Fatalf("%d retired blocks still wait with no reader pinned", len(sh.limbo))
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

// TestScanAllocs pins what a scan allocates once the range working
// memory is warm: its answer, one exact-size array, and nothing else,
// whether it touches one shard or several. Each shard's hits are read
// into pooled memory and copied once, into the answer, and up to eight
// shards' leases are held on the stack. Every answer is checked key by
// key, across the shard boundaries it spans.
func TestScanAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shards  int
		lo, hi  int64
		touched int
	}{
		{"one shard", 4, 100, 400, 1},
		{"three shards", 4, 1000, 3000, 3},
		{"eight shards", 8, 10, 4090, 8},
	} {
		svc, err := New(testConfig(tc.shards))
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < 4096; k += 3 {
			svc.Put(k, k)
		}
		if first, last := svc.shardFor(tc.lo), svc.shardFor(tc.hi-1); last-first+1 != tc.touched {
			t.Fatalf("%s: [%d, %d) spans %d shards, want %d", tc.name, tc.lo, tc.hi, last-first+1, tc.touched)
		}
		svc.Scan(tc.lo, tc.hi) // warm the working memory
		var res ScanResult
		avg := testing.AllocsPerRun(50, func() { res = svc.Scan(tc.lo, tc.hi) })
		var want []dict.Found
		for k := (tc.lo + 2) / 3 * 3; k < tc.hi; k += 3 {
			want = append(want, dict.Found{Key: k, Value: k})
		}
		if !slices.Equal(res.Hits, want) {
			t.Fatalf("%s: scan answered %d hits, want %d keys in order", tc.name, len(res.Hits), len(want))
		}
		if avg != 1 {
			t.Errorf("%s: scan allocates %.1f objects, want 1 (its answer)", tc.name, avg)
		}
		svc.Close()
	}
}

// TestPutSteadyStateAllocs pins the write round trip of a single writer.
// It leads its own commit, so no request waits on a channel, and requests
// are reused from the shard's free list. A Put that does not spill the
// stage is published in place (dict.BufferTree.StagedSince) and allocates
// nothing. The Put that fills the stage spills it and captures a new
// snapshot, which allocates no object of its own: the root is captured
// by value into a snapState carved from the shard's state slab. The
// measured spills start from an empty root chain, after a flush barrier,
// on a shard whose slabs have grown through a few root flushes: what
// they allocate is now and then a new slab of addresses (the root chain's
// array regrows six times, each time carved from it), of states, of
// stages (readers share the full one) or of the slice engine's blocks.
// The stream stays below the root threshold, so a deamortized batch
// leaves no debt and its FlushStep(1) finds none.
//
// The count is exact: the heap profile, recording every allocation for
// the test's duration, attributes each object to the call stack that
// allocated it, and only objects allocated under stagedPuts or
// spillingPut count. The process-wide malloc counter would also count
// the Go runtime's own objects (a thread started when a stop-the-world
// ends, a GC worker's, a timer heap's growth), which appear in any
// window now and then when the test runs beside other processes.
func TestPutSteadyStateAllocs(t *testing.T) {
	const (
		stages      = 40
		spillAllocs = 2 // for all 40 spills; one object per spill would read ≥ 40
	)
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
			b := cfg.Machine.B
			var k int64
			put := func() {
				svc.Put(k%4096, k)
				k += 37
			}
			// Warm the free list and the slabs through four root flushes,
			// empty the tree's buffers, and settle its captures with one
			// more stage; whole stages, so the stage ends empty.
			for i := 0; i < 4*svc.shards[0].tree.RootCap(); i++ {
				put()
			}
			svc.Flush()
			for i := 0; i < b; i++ {
				put()
			}
			flushes := svc.Stats().Flushes
			defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
			runtime.MemProfileRate = 1
			before := allocsUnder(stagedPuts, spillingPut)
			for s := 0; s < stages; s++ {
				stagedPuts(put, b-1)
				spillingPut(put) // fills the stage, which spills
			}
			after := allocsUnder(stagedPuts, spillingPut)
			staged, spilled := after[0]-before[0], after[1]-before[1]
			t.Logf("%d staged Puts allocated %d objects; %d spilling Puts allocated %d",
				stages*(b-1), staged, stages, spilled)
			if staged != 0 {
				t.Errorf("%d Puts that did not spill allocated %d objects, want 0", stages*(b-1), staged)
			}
			if spilled > spillAllocs {
				t.Errorf("%d spilling Puts allocated %d objects, want ≤ %d", stages, spilled, spillAllocs)
			}
			if n := svc.Stats().Flushes - flushes; n != 0 {
				t.Fatalf("the measured stream reached a flush (%d flush sections); it must stay below the root threshold", n)
			}
		})
	}
}

// stagedPuts makes n Puts that stay in the stage.
//
//go:noinline
func stagedPuts(put func(), n int) {
	for i := 0; i < n; i++ {
		put()
	}
}

// spillingPut makes the Put that fills the stage.
//
//go:noinline
func spillingPut(put func()) { put() }

// allocsUnder returns how many objects the heap profile has recorded as
// allocated by calls under each of fns. It runs a collection first,
// which publishes every allocation made so far to the profile.
func allocsUnder(fns ...any) []int64 {
	names := make([]string, len(fns))
	for i, fn := range fns {
		names[i] = runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
	}
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	out := make([]int64, len(fns))
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if i := slices.Index(names, f.Function); i >= 0 {
				out[i] += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return out
}

// TestPublishedStatesAreCollectable pins what the state slab keeps
// alive. publish carves snapStates from per-shard slabs, so an old state
// is garbage only once its whole slab is. States never point to states,
// so once the holder has moved past a slab, and no reader holds one of
// its states, the slab must be collected. Each slab's first state carries
// a finalizer. After at least three slab turnovers with no held state,
// every slab but the current one is collected; a held state keeps its
// own slab, and only that one, alive until it is dropped.
func TestPublishedStatesAreCollectable(t *testing.T) {
	svc, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sh := svc.shards[0]

	// slabs[i] is set once slab i's first state has been finalized.
	var slabs []*atomic.Bool
	watch := func(st *snapState) {
		gone := new(atomic.Bool)
		slabs = append(slabs, gone)
		runtime.SetFinalizer(st, func(*snapState) { gone.Store(true) })
	}
	watch(sh.snap.Load()) // New's one-state slab
	var k int64
	// turnOver puts until n more slabs have been started. A publish
	// starts a slab exactly when the previous one had no state left.
	turnOver := func(n int) {
		for want := len(slabs) + n; len(slabs) < want; k++ {
			prev := sh.snap.Load()
			svc.Put(k*37%4096, k)
			if st := sh.snap.Load(); st != prev && st == &sh.states.Current()[0] {
				watch(st)
			}
		}
	}
	// collected waits for every slab but those in keep to be finalized,
	// and reports which slabs were.
	collected := func(keep ...int) []bool {
		got := make([]bool, len(slabs))
		for try := 0; try < 200; try++ {
			runtime.GC()
			done := true
			for i, gone := range slabs {
				got[i] = gone.Load()
				done = done && (got[i] || slices.Contains(keep, i))
			}
			if done {
				break
			}
			time.Sleep(time.Millisecond)
		}
		return got
	}
	check := func(what string, keep ...int) {
		t.Helper()
		for i, gone := range collected(keep...) {
			if want := !slices.Contains(keep, i); gone != want {
				t.Fatalf("%s: slab %d of %d collected=%v, want %v", what, i, len(slabs), gone, want)
			}
		}
	}

	turnOver(4)
	check("no held state", len(slabs)-1)

	held, heldSlab := sh.snap.Load(), len(slabs)-1
	turnOver(3)
	check("one held state", heldSlab, len(slabs)-1)
	runtime.KeepAlive(held)
	check("held state dropped", len(slabs)-1)
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
		cfg.Deamortize = deam
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc.maxBatch = 32
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
}

// TestFlushAccounting pins what Stats.Flushes counts: the tree holder's
// calls that flushed. A cascading write stream flushes and times its
// flushes, a Flush barrier is exactly one, and lookups are none. Each
// Stats call follows a barrier, which retires all debt, so a deamortized
// retirer may still take an idle turn but no longer touches the machine.
func TestFlushAccounting(t *testing.T) {
	for _, deam := range []bool{false, true} {
		name := "amortized"
		if deam {
			name = "deamortized"
		}
		t.Run(name, func(t *testing.T) {
			svc, err := New(Config{
				Shards:  1,
				Machine: aem.Config{M: 64, B: 8, Omega: 2},
				KeyLo:   0, KeyHi: 256,
				Deamortize: deam,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			r := workload.NewRNG(3)
			for i := int64(0); i < 4000; i++ {
				svc.Put(int64(r.Intn(256)), i)
			}
			svc.Flush()
			st := svc.Stats()
			if st.Flushes < 2 || st.MaxFlushNS <= 0 {
				t.Fatalf("a cascading stream and a barrier recorded %d flushes, worst %d ns", st.Flushes, st.MaxFlushNS)
			}
			base := st.Flushes
			// The barrier woke a deamortized retirer for an idle turn,
			// which folds its telemetry in while Stats reads: yield so
			// it runs between the read above and the next lock, where
			// -race sees an unlocked read.
			runtime.Gosched()
			svc.Flush()
			if got := svc.Stats().Flushes - base; got != 1 {
				t.Fatalf("one Flush added %d flushes, want 1", got)
			}
			for k := int64(0); k < 256; k++ {
				svc.Get(k)
				svc.Scan(k, k+16)
			}
			if got := svc.Stats().Flushes - base; got != 1 {
				t.Fatalf("lookups added %d flushes", got-1)
			}
		})
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
	if rep.Latency.N != rep.Ops {
		t.Fatalf("captured %d latencies for %d ops", rep.Latency.N, rep.Ops)
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
// maxBatch 2 the queue head leads a batch of itself and the bad write, so
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
			svc, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			svc.maxBatch = 2
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
			sh.release(false, nil)
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

// reusedBlocks reads the shard tree's reuse count while holding the tree,
// so a deamortized shard's retirer is not running.
func reusedBlocks(t *testing.T, sh *shard) int64 {
	holdTree(t, sh)
	defer sh.release(false, nil)
	return sh.tree.ReusedBlocks()
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

// BenchmarkPut measures the single-writer write round trip — a recycled
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

// BenchmarkParallelReads measures the serving read path with concurrent
// readers against a pre-loaded service: b.RunParallel runs one reader per
// P, so -cpu sets their number. get is a point lookup; scan reads 256
// keys, and about one scan in 64 crosses a shard boundary.
func BenchmarkParallelReads(b *testing.B) {
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
	for _, bc := range []struct {
		name string
		read func(k int64)
	}{
		{"get", func(k int64) { svc.Get(k) }},
		{"scan", func(k int64) { svc.Scan(k, k+256) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var seed atomic.Int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				k := seed.Add(7919) % 65536
				for pb.Next() {
					bc.read(k)
					k = (k + 9973) % 65536
				}
			})
		})
	}
}

// TestStorageBoundedByLiveTree pins what block reclamation buys: a shard's
// storage stays within a small multiple of the most blocks its tree ever
// held at once, instead of growing with every block ever written. Each
// stream runs through a one-shard service with one writer, so nothing
// holds a pin between commits and each publish's retired blocks are
// reused right after it. The grace period still leaves one commit's
// worth of blocks in limbo — a cascade rewrites the tree below it, and a
// rebuild writes a whole new tree before the old one goes — so the bound
// is a constant factor, not 1. Without reclamation the drift stream
// reads 16.5× and the preload 7.8×.
func TestStorageBoundedByLiveTree(t *testing.T) {
	const (
		keys  = 1 << 15
		nOps  = 40000
		bound = 3.0
	)
	r := workload.NewRNG(9)
	preload := make([]dict.Op, keys)
	for i, k := range r.Perm(keys) {
		preload[i] = dict.Op{Kind: dict.Insert, Key: int64(k), Value: int64(k)}
	}
	for _, tc := range []struct {
		name string
		ops  []dict.Op
	}{
		{"drift", workload.DictStreams(3, workload.DriftOps, 1, nOps, keys)[0]},
		{"preload", preload},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := New(Config{Shards: 1, Machine: aem.Config{M: 512, B: 16, Omega: 8}, KeyHi: keys})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			sh := svc.shards[0]
			peak := 0
			var live []aem.Addr
			for _, op := range tc.ops {
				switch op.Kind {
				case dict.Insert:
					svc.Put(op.Key, op.Value)
				case dict.Delete:
					svc.Delete(op.Key)
				default:
					continue
				}
				// The writer led its own commit, so the tree is idle.
				live = sh.tree.ReachableBlocks(live[:0])
				peak = max(peak, len(live))
			}
			svc.Flush()
			peak = max(peak, len(sh.tree.ReachableBlocks(live[:0])))
			st := svc.Stats()
			ratio := float64(st.Blocks) / float64(peak)
			t.Logf("%d blocks allocated, %d reused, peak %d reachable: %.2f×", st.Blocks, st.ReusedBlocks, peak, ratio)
			if ratio > bound {
				t.Fatalf("storage holds %d blocks, %.2f× the tree's peak of %d reachable, want ≤ %g×", st.Blocks, ratio, peak, bound)
			}
		})
	}
}

// TestPausedScanIsolation pauses a range scan that reads the shard's
// snapshot as Scan does, pinned, between two block reads of one chain,
// while the one writer keeps committing: staged
// writes, spills, cascades (amortized) or FlushSteps and idle Compacts
// (deamortized), and barriers that flush and rebuild. The pinned reader
// must not hold the writer up, and the blocks it has yet to read must
// keep their contents however many blocks the shard reuses meanwhile:
// released, its answer must match the model at its own watermark.
func TestPausedScanIsolation(t *testing.T) {
	for _, deam := range []bool{false, true} {
		name := "amortized"
		if deam {
			name = "deamortized"
		}
		t.Run(name, func(t *testing.T) { runPausedScanIsolation(t, deam) })
	}
}

func runPausedScanIsolation(t *testing.T, deamortize bool) {
	const (
		keys    = 512
		preload = 3000
		nOps    = 20000
	)
	cfg := Config{Shards: 1, Machine: aem.Config{M: 128, B: 16, Omega: 1}, KeyHi: keys, Deamortize: deamortize}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sh := svc.shards[0]

	// One writer: its writes commit at positions 1, 2, …, and versions[k]
	// lists key k's writes in commit order.
	type version struct {
		commit, value int64
		live          bool
	}
	r := workload.NewRNG(91)
	versions := make([][]version, keys)
	var commits int64
	write := func() {
		commits++
		k := int64(r.Intn(keys))
		if r.Intn(10) < 3 {
			svc.Delete(k)
			versions[k] = append(versions[k], version{commits, 0, false})
			return
		}
		v := int64(r.Intn(1 << 20))
		svc.Put(k, v)
		versions[k] = append(versions[k], version{commits, v, true})
	}
	// modelAt returns the live keys after the first w commits, ascending.
	modelAt := func(w int64) []dict.Found {
		var out []dict.Found
		for k, vs := range versions {
			i := sort.Search(len(vs), func(i int) bool { return vs[i].commit > w })
			if i > 0 && vs[i-1].live {
				out = append(out, dict.Found{Key: int64(k), Value: vs[i-1].value})
			}
		}
		return out
	}
	for i := 0; i < preload; i++ {
		write()
	}
	svc.Flush()

	// The scanner reads the shard's current snapshot as Scan does, pinned,
	// through a reader that pauses before its third block read.
	rd := &pausingReader{r: shardReader{sh}, at: 3, paused: make(chan struct{}), resume: make(chan struct{})}
	type answer struct {
		hits      []dict.Found
		watermark int64
	}
	done := make(chan answer)
	go func() {
		snap, wm, pin := sh.view()
		l, _ := snap.RangeLease(rd, 0, keys)
		sh.unpin(pin)
		done <- answer{slices.Clone(l.Hits()), wm}
		l.Release()
	}()
	<-rd.paused

	before := reusedBlocks(t, sh)
	for i := 0; i < nOps; i++ {
		write()
		if i%5000 == 4999 {
			svc.Flush()
		}
	}
	svc.Flush()
	reused := reusedBlocks(t, sh) - before
	close(rd.resume)
	res := <-done

	if want := modelAt(res.watermark); !slices.Equal(res.hits, want) {
		t.Fatalf("scan at watermark %d: %d hits differ from the model's %d keys", res.watermark, len(res.hits), len(want))
	}
	t.Logf("paused scan at watermark %d read %d blocks; %d writes reused a block meanwhile", res.watermark, rd.reads, reused)
	if reused == 0 {
		t.Fatal("no block was reused while the scan was paused")
	}
}

// pausingReader passes block reads through to r, except that it pauses
// before its at-th read, after closing paused, until resume is closed.
type pausingReader struct {
	r              dict.BlockReader
	at, reads      int
	paused, resume chan struct{}
}

func (p *pausingReader) ReadBlock(a aem.Addr, dst []aem.Item) []aem.Item {
	if p.reads++; p.reads == p.at {
		close(p.paused)
		<-p.resume
	}
	return p.r.ReadBlock(a, dst)
}

// TestPanickingReadUnpins makes a storage read panic under Get and under
// Scan, and recovers. Each reader must still unpin: a pin left behind
// would keep the shard's epoch from advancing, and no block retired after
// it would ever be reused. After the panics, writes that let blocks go
// and a barrier's publish must leave nothing waiting in limbo.
func TestPanickingReadUnpins(t *testing.T) {
	svc, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sh := svc.shards[0]
	for k := int64(0); k < 2048; k++ {
		svc.Put(k, k)
	}
	svc.Flush()

	store := sh.store
	sh.store = panickingStorage{store}
	for _, read := range []struct {
		name string
		call func()
	}{
		{"Get", func() { svc.Get(7) }},
		{"Scan", func() { svc.Scan(0, 4096) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s read no block", read.name)
				}
			}()
			read.call()
		}()
	}
	sh.store = store

	before := reusedBlocks(t, sh)
	for k := int64(0); k < 4096; k++ {
		svc.Put(k%2048, k+1)
	}
	svc.Flush()
	holdTree(t, sh)
	defer sh.release(false, nil)
	if len(sh.limbo) != 0 || sh.tree.ReusedBlocks() == before {
		t.Fatalf("after the panicking reads, %d retired blocks wait with no reader running and %d writes reused a block",
			len(sh.limbo), sh.tree.ReusedBlocks()-before)
	}
}

// panickingStorage panics on every block read, as an engine that cannot
// read its device would.
type panickingStorage struct{ aem.Storage }

func (panickingStorage) ReadInto(aem.Addr, []aem.Item) []aem.Item { panic("read error") }
