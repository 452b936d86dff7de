package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/aem"
	"repro/internal/dict"
	"repro/internal/dictsrv"
	"repro/internal/workload"
)

// machineCfg is the (M, B, ω) shape of every workload: each shard machine
// of the service, and the sort machine.
var machineCfg = aem.Config{M: 1024, B: 32, Omega: 16}

// shards is the service's keyspace partition count on every workload.
const shards = 2

// serveSpec shapes one dictionary-service workload.
type serveSpec struct {
	deamortize bool
	keyspace   int64

	// Round workloads replay one fixed single-client stream against a
	// fresh service per round, until the run's time is up.
	scenario workload.Scenario
	roundOps int
	// pinnedQ is the model cost of one round, by seed. Non-nil marks a
	// round whose I/O is deterministic (one client, no idle-time work):
	// every round must then do the same I/O, and the traced run's replay
	// must do exactly the service's.
	pinnedQ map[uint64]int64
}

func newService(spec serveSpec) (*dictsrv.Service, error) {
	return dictsrv.New(dictsrv.Config{
		Shards:     shards,
		Machine:    machineCfg,
		Engine:     "slice",
		KeyLo:      0,
		KeyHi:      spec.keyspace,
		Deamortize: spec.deamortize,
	})
}

// latencies holds service-measured latencies per op class, in ns.
type latencies struct{ put, get, scan []int64 }

// reserve makes room for n more samples of each class, so the measured
// loop allocates nothing for the benchmark's own bookkeeping.
func (l *latencies) reserve(n int) {
	grow := func(xs []int64) []int64 {
		if cap(xs)-len(xs) >= n {
			return xs
		}
		return append(make([]int64, 0, 2*len(xs)+n), xs...)
	}
	l.put, l.get, l.scan = grow(l.put), grow(l.get), grow(l.scan)
}

func (l *latencies) merge(o latencies) {
	l.put = append(l.put, o.put...)
	l.get = append(l.get, o.get...)
	l.scan = append(l.scan, o.scan...)
}

// client is one closed-loop caller: it issues an op, waits for the
// answer, checks it against its model and only then issues the next.
type client struct {
	svc    *dictsrv.Service
	m      *model
	lat    latencies
	ops    int64
	failed int64
}

// maxLogged caps how many failures a run prints to standard error.
const maxLogged = 5

var logged struct {
	sync.Mutex
	n int
}

func logFailure(err error) {
	logged.Lock()
	defer logged.Unlock()
	if logged.n < maxLogged {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", err)
	}
	logged.n++
}

func (c *client) fail(err error) {
	c.failed++
	logFailure(err)
}

// do issues one op. A wrong answer or a panic counts as a failed op.
func (c *client) do(op dict.Op) {
	c.ops++
	defer func() {
		if r := recover(); r != nil {
			c.fail(fmt.Errorf("%v %d: panic: %v", op.Kind, op.Key, r))
		}
	}()
	switch op.Kind {
	case dict.Insert:
		ack := c.svc.Put(op.Key, op.Value)
		c.m.apply(op)
		c.lat.put = append(c.lat.put, ack.LatencyNS)
	case dict.Delete:
		ack := c.svc.Delete(op.Key)
		c.m.apply(op)
		c.lat.put = append(c.lat.put, ack.LatencyNS)
	case dict.Lookup:
		res := c.svc.Get(op.Key)
		c.lat.get = append(c.lat.get, res.LatencyNS)
		if err := c.m.checkGet(op.Key, res.OK, res.Value); err != nil {
			c.fail(err)
		}
	case dict.RangeScan:
		res := c.svc.Scan(op.Key, op.Hi)
		c.lat.scan = append(c.lat.scan, res.LatencyNS)
		if err := c.m.checkScan(op.Key, op.Hi, res.Hits); err != nil {
			c.fail(err)
		}
	}
}

// serveRun is what the untraced phase of a service workload measured.
type serveRun struct {
	setupNS []int64
	lat     latencies
	ops     int64
	failed  int64
	cpuNS   int64           // process CPU time of the measured ops
	rates   []float64       // ops per CPU second, per round
	heap    heapAllocs      // heap allocated by the measured ops
	rssMiB  float64         // peak RSS through set-up and the first round
	stats   []dictsrv.Stats // per round (one entry for readmostly)
	cost    int64           // model cost of the measured ops
	reads   int64           // machine block reads of the measured ops
	writes  int64           // machine block writes of the measured ops
	snap    int64           // snapshot block reads of the measured ops
	stream  []dict.Op       // round stream, for the replay
	errs    []error         // oracle-level failures (pinned counts, determinism)
}

// extraSetups is how many services a round workload builds and closes
// before its rounds, so setup_s is a median of many constructions.
const extraSetups = 32

// runRounds measures a round workload: a fresh service per round, the
// same single-client stream each time, then a flush barrier, until
// seconds have passed.
func runRounds(spec serveSpec, seed uint64, seconds float64) (*serveRun, error) {
	run := &serveRun{stream: workload.DictStreams(seed, spec.scenario, 1, spec.roundOps, spec.keyspace)[0]}
	build := func() (*dictsrv.Service, error) {
		start := cpuNow()
		svc, err := newService(spec)
		if err != nil {
			return nil, err
		}
		run.setupNS = append(run.setupNS, (cpuNow() - start).Nanoseconds())
		return svc, nil
	}
	// One unmeasured construction first: the first service pays the
	// process's one-off costs (heap growth, goroutine stacks).
	warm, err := newService(spec)
	if err != nil {
		return nil, err
	}
	warm.Close()
	for i := 0; i < extraSetups; i++ {
		svc, err := build()
		if err != nil {
			return nil, err
		}
		svc.Close()
	}

	begin := time.Now()
	for round := 0; round == 0 || time.Since(begin).Seconds() < seconds; round++ {
		svc, err := build()
		if err != nil {
			return nil, err
		}
		c := &client{svc: svc, m: newModel(spec.keyspace)}
		c.lat.reserve(len(run.stream))
		heap0, start := heapNow(), cpuNow()
		for _, op := range run.stream {
			c.do(op)
		}
		cpu := (cpuNow() - start).Nanoseconds()
		run.heap.add(heap0, heapNow())
		run.cpuNS += cpu
		run.rates = append(run.rates, float64(c.ops)/(float64(cpu)/1e9))
		// Close the round with a flush barrier, as `aem dictload` does, so
		// a round's Q is the CI stall-baseline reference figure.
		svc.Flush()
		st := svc.Stats()
		svc.Close()
		if round == 0 {
			if run.rssMiB, err = peakRSSMiB(); err != nil {
				return nil, err
			}
		}
		// Collect the round's garbage now, so it is not charged to the
		// next round's CPU time.
		runtime.GC()
		run.lat.merge(c.lat)
		run.ops += c.ops
		run.failed += c.failed
		run.stats = append(run.stats, st)
		run.cost += st.Cost
		run.reads += st.Reads
		run.writes += st.Writes
		run.snap += st.SnapReads
	}

	first := run.stats[0]
	if q, ok := spec.pinnedQ[seed]; ok && first.Cost != q {
		run.errs = append(run.errs, fmt.Errorf("round Q = %d, pinned %d at seed %d", first.Cost, q, seed))
	}
	if spec.pinnedQ != nil {
		for i, st := range run.stats[1:] {
			if st.Reads != first.Reads || st.Writes != first.Writes || st.SnapReads != first.SnapReads {
				run.errs = append(run.errs, fmt.Errorf("round %d I/O (%d, %d, %d) differs from round 0 (%d, %d, %d)",
					i+1, st.Reads, st.Writes, st.SnapReads, first.Reads, first.Writes, first.SnapReads))
			}
		}
	}
	return run, nil
}

// readmostly's shape: 2^18 preloaded keys, span-256 scans, rounds of
// rmRoundOps ops from one client.
const (
	rmKeyspace = 1 << 18
	rmSpan     = 256
	rmSetups   = 3
	rmRoundOps = 50000
)

// rmOps generates readmostly's stream: 90% Get, 5% Scan and 5% Put, all
// on uniform keys.
type rmOps struct{ r *workload.RNG }

func newRMOps(seed uint64) *rmOps { return &rmOps{r: workload.NewRNG(seed)} }

func (g *rmOps) next() dict.Op {
	switch x := g.r.Intn(100); {
	case x < 90:
		return dict.Op{Kind: dict.Lookup, Key: int64(g.r.Intn(rmKeyspace))}
	case x < 95:
		lo := int64(g.r.Intn(rmKeyspace))
		return dict.Op{Kind: dict.RangeScan, Key: lo, Hi: lo + rmSpan}
	default:
		return dict.Op{Kind: dict.Insert, Key: int64(g.r.Intn(rmKeyspace)), Value: int64(g.r.Intn(1 << 20))}
	}
}

// rmPreload returns the preload: every key, shuffled, valued by itself.
func rmPreload(seed uint64) []dict.Op {
	perm := workload.NewRNG(seed ^ 0x5eed).Perm(rmKeyspace)
	ops := make([]dict.Op, len(perm))
	for i, k := range perm {
		ops[i] = dict.Op{Kind: dict.Insert, Key: int64(k), Value: int64(k)}
	}
	return ops
}

// rmModel is the oracle's state right after the preload.
func rmModel() *model {
	m := newModel(rmKeyspace)
	for k := range m.vals {
		m.vals[k] = int64(k)
	}
	return m
}

// runReadMostly measures readmostly: rmSetups preloaded services (the
// last one serves), then rounds of rmRoundOps ops from one closed-loop
// client, until seconds have passed. A flush barrier ends every round:
// it empties the root buffers the round's Puts filled, so each round
// reads a tree of the same shape instead of one whose buffers grow with
// the run's length.
func runReadMostly(seed uint64, seconds float64) (*serveRun, error) {
	spec := serveSpec{keyspace: rmKeyspace}
	run := &serveRun{}
	preload := rmPreload(seed)
	var svc *dictsrv.Service
	for i := 0; i < rmSetups; i++ {
		if svc != nil {
			svc.Close()
			runtime.GC()
		}
		start := cpuNow()
		var err error
		if svc, err = newService(spec); err != nil {
			return nil, err
		}
		for _, op := range preload {
			svc.Put(op.Key, op.Value)
		}
		svc.Flush()
		run.setupNS = append(run.setupNS, (cpuNow() - start).Nanoseconds())
	}
	defer svc.Close()

	before := svc.Stats()
	c, gen := &client{svc: svc, m: rmModel()}, newRMOps(seed)
	begin := time.Now()
	for round := 0; round == 0 || time.Since(begin).Seconds() < seconds; round++ {
		c.lat.reserve(rmRoundOps)
		heap0, start := heapNow(), cpuNow()
		for n := 0; n < rmRoundOps; n++ {
			c.do(gen.next())
		}
		cpu := (cpuNow() - start).Nanoseconds()
		run.heap.add(heap0, heapNow())
		run.cpuNS += cpu
		run.rates = append(run.rates, rmRoundOps/(float64(cpu)/1e9))
		svc.Flush()
		if round == 0 {
			// Later rounds keep growing the engine (blocks are never
			// freed), so the peak is taken at a fixed amount of work.
			var err error
			if run.rssMiB, err = peakRSSMiB(); err != nil {
				return nil, err
			}
		}
	}
	after := svc.Stats()
	run.lat, run.ops, run.failed = c.lat, c.ops, c.failed
	run.stats = []dictsrv.Stats{after}
	run.cost = after.Cost - before.Cost
	run.reads = after.Reads - before.Reads
	run.writes = after.Writes - before.Writes
	run.snap = after.SnapReads - before.SnapReads
	return run, nil
}

// reportServe sets the end-to-end metrics of a service run.
func reportServe(rep *report, run *serveRun) {
	ops := float64(run.ops)
	rep.set("setup_s", medianNS(run.setupNS)/1e9)
	rep.set("q_per_op", float64(run.cost)/ops)
	rep.set("alloc_kib_per_op", float64(run.heap.bytes)/1024/ops)
	rep.set("allocs_per_op", float64(run.heap.objects)/ops)
	rep.set("peak_rss_mb", run.rssMiB)
	rep.set("ops_per_cpu_s", medianF(run.rates))
}

// reportServeLayers sets the service-side per-layer metrics: per-class
// client latencies and the service's own stall and flush telemetry.
func reportServeLayers(rep *report, run *serveRun) error {
	for _, cl := range []struct {
		name string
		ns   []int64
	}{{"put", run.lat.put}, {"get", run.lat.get}, {"scan", run.lat.scan}} {
		s := sortedCopy(cl.ns)
		for _, p := range []float64{50, 99} {
			v, err := percentile(s, p)
			if err != nil {
				return fmt.Errorf("%s latency: %v", cl.name, err)
			}
			rep.set(fmt.Sprintf("%s_p%g_us", cl.name, p), float64(v)/1e3)
		}
	}
	rep.set("error_rate", float64(run.failed)/float64(run.ops))

	// Stall and flush telemetry of the first round (readmostly: the
	// service's whole life, preload included).
	st := run.stats[0]
	rep.set("dictsrv.commit_stall_p99_us", float64(st.Stalls.Quantile(0.99))/1e3)
	rep.set("dictsrv.commit_stall_max_us", float64(st.MaxStallNS)/1e3)
	rep.set("dictsrv.debt_high_water", float64(st.DebtHighWater))
	rep.set("dictsrv.flush_sections", float64(st.Flushes))
	rep.set("dictsrv.flush_max_us", float64(st.MaxFlushNS)/1e3)

	ops := float64(run.ops)
	rep.set("aem.reads_per_op", float64(run.reads)/ops)
	rep.set("aem.writes_per_op", float64(run.writes)/ops)
	rep.set("aem.snap_reads_per_op", float64(run.snap)/ops)
	rep.set("aem.sim_ios_per_cpu_s", float64(run.reads+run.writes+run.snap)/(float64(run.cpuNS)/1e9))
	return nil
}

// medianNS is the median of nanosecond samples, in ns.
func medianNS(xs []int64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return medianF(fs)
}
