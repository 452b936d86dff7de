package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/aem"
	"repro/internal/dict"
)

// The traced replay drives the service's single-writer commit sequence
// straight on dict.BufferTree, one tree per shard: Apply, FlushStep(1)
// when deamortized, then Snapshot, exactly as a committer does for a
// one-op batch. Reads go through TreeSnapshot.Get and Range with the
// replay's own BlockReader. With timing on, every call into the dict
// layer is timed, and a timedStorage under each machine times every call
// into the storage engine, so the service's latency splits into layers.

// timedStorage wraps a storage engine and times its data calls. It is
// used from one goroutine only.
type timedStorage struct {
	aem.Storage
	readCalls, writeCalls int64
	readNS, writeNS       int64
}

func (s *timedStorage) ReadInto(a aem.Addr, dst []aem.Item) []aem.Item {
	start := time.Now()
	out := s.Storage.ReadInto(a, dst)
	s.readNS += time.Since(start).Nanoseconds()
	s.readCalls++
	return out
}

func (s *timedStorage) Write(a aem.Addr, items []aem.Item) {
	start := time.Now()
	s.Storage.Write(a, items)
	s.writeNS += time.Since(start).Nanoseconds()
	s.writeCalls++
}

// blockReader is the replay's dict.BlockReader: blocks straight from the
// shard's storage, counted like the service counts its snapshot reads.
type blockReader struct {
	store aem.Storage
	reads int64
}

func (r *blockReader) ReadBlock(a aem.Addr, dst []aem.Item) []aem.Item {
	r.reads++
	return r.store.ReadInto(a, dst)
}

type replayShard struct {
	ma    *aem.Machine
	tree  *dict.BufferTree
	store *timedStorage // nil without timing
	rd    *blockReader
	snap  *dict.TreeSnapshot
}

// replay is one replayed service: shards routed exactly like dictsrv.
type replay struct {
	keyspace   int64
	deamortize bool
	timed      bool
	clk        clock
	shards     []*replayShard
	sc         *dict.GetScratch
	one        []dict.Op

	// Per-call dict-layer timings in ns, recorded only when timed.
	apply, snapshot, commit, get, scan []int64
	flushStepNS                        int64
	getReads, scanReads                int64
	snapAllocBytes                     uint64
	snapAllocSamples                   int
}

// snapAllocEvery samples the allocation of one Snapshot call in this
// many; ReadMemStats stops the world, so it cannot bracket every call.
const snapAllocEvery = 64

// newReplay builds the shards. With timing on, each dict-layer call's
// time is reported net of the storage timing it contained (clk).
func newReplay(keyspace int64, deamortize, timed bool, clk clock) *replay {
	rp := &replay{keyspace: keyspace, deamortize: deamortize, timed: timed, clk: clk,
		sc: dict.NewGetScratch(machineCfg.B), one: make([]dict.Op, 1)}
	for i := 0; i < shards; i++ {
		var store aem.Storage = aem.NewSliceStorage()
		sh := &replayShard{}
		if timed {
			sh.store = &timedStorage{Storage: store}
			store = sh.store
		}
		sh.ma = aem.NewWithStorage(machineCfg, store)
		sh.rd = &blockReader{store: store}
		sh.tree = dict.NewBufferTree(sh.ma)
		sh.tree.EnableTailStaging()
		if deamortize {
			sh.tree.Deamortize()
		}
		sh.snap = sh.tree.Snapshot()
		rp.shards = append(rp.shards, sh)
	}
	return rp
}

// span is the width of one shard's key range, as dictsrv partitions.
func (rp *replay) span() int64 {
	return (rp.keyspace + shards - 1) / shards
}

func (rp *replay) shardFor(key int64) int {
	if key < 0 {
		return 0
	}
	i := int(key / rp.span())
	if i >= shards {
		i = shards - 1
	}
	return i
}

// now reads the clock only when timing is on.
func (rp *replay) now() time.Time {
	if rp.timed {
		return time.Now()
	}
	return time.Time{}
}

// storageCalls counts the timed storage calls a shard has made so far.
func (sh *replayShard) storageCalls() int64 {
	if sh.store == nil {
		return 0
	}
	return sh.store.readCalls + sh.store.writeCalls
}

// net is the duration of a dict-layer call from t0 to t1 less the timing
// of the storage calls made inside it.
func (rp *replay) net(t0, t1 time.Time, calls int64) int64 {
	return t1.Sub(t0).Nanoseconds() - int64(float64(calls)*rp.clk.pairNS)
}

// update commits one write as a one-op batch.
func (rp *replay) update(op dict.Op) {
	sh := rp.shards[rp.shardFor(op.Key)]
	rp.one[0] = op
	c0 := sh.storageCalls()
	t0 := rp.now()
	sh.tree.Apply(rp.one)
	t1 := rp.now()
	c1 := sh.storageCalls()
	if rp.deamortize {
		sh.tree.FlushStep(1)
	}
	t2 := rp.now()
	c2 := sh.storageCalls()
	sample := rp.timed && len(rp.snapshot)%snapAllocEvery == 0
	var ms runtime.MemStats
	if sample {
		runtime.ReadMemStats(&ms)
	}
	before := ms.TotalAlloc
	c3 := sh.storageCalls()
	t3 := rp.now()
	sh.snap = sh.tree.Snapshot()
	t4 := rp.now()
	c4 := sh.storageCalls()
	if sample {
		runtime.ReadMemStats(&ms)
		rp.snapAllocBytes += ms.TotalAlloc - before
		rp.snapAllocSamples++
	}
	if rp.timed {
		apply, step, snap := rp.net(t0, t1, c1-c0), rp.net(t1, t2, c2-c1), rp.net(t3, t4, c4-c3)
		rp.apply = append(rp.apply, apply)
		rp.flushStepNS += step
		rp.snapshot = append(rp.snapshot, snap)
		rp.commit = append(rp.commit, apply+step+snap)
	}
}

// load applies a bulk of writes without publishing per write (readmostly
// setup), then forces every tree down to its runs.
func (rp *replay) load(ops []dict.Op) {
	per := make([][]dict.Op, shards)
	for _, op := range ops {
		i := rp.shardFor(op.Key)
		per[i] = append(per[i], op)
	}
	for i, sh := range rp.shards {
		sh.tree.Apply(per[i])
	}
}

// flush forces every tree down to its runs and republishes.
func (rp *replay) flush() {
	for _, sh := range rp.shards {
		sh.tree.Flush()
		sh.snap = sh.tree.Snapshot()
	}
}

func (rp *replay) lookup(key int64) (int64, bool) {
	sh := rp.shards[rp.shardFor(key)]
	before, c0 := sh.rd.reads, sh.storageCalls()
	t0 := rp.now()
	v, ok, _ := sh.snap.Get(sh.rd, key, rp.sc)
	if rp.timed {
		rp.get = append(rp.get, rp.net(t0, time.Now(), sh.storageCalls()-c0))
		rp.getReads += sh.rd.reads - before
	}
	return v, ok
}

// rangeScan answers [lo, hi) shard by shard, with the same per-shard
// bounds the service uses, so block reads match it call for call.
func (rp *replay) rangeScan(lo, hi int64) []dict.Found {
	if hi <= lo {
		return nil
	}
	var out []dict.Found
	first, last := rp.shardFor(lo), rp.shardFor(hi-1)
	for i := first; i <= last; i++ {
		sh := rp.shards[i]
		shLo, shHi := int64(i)*rp.span(), int64(i+1)*rp.span()
		if shHi > rp.keyspace || i == shards-1 {
			shHi = rp.keyspace
		}
		if shLo < lo || (i == 0 && lo < 0) {
			shLo = lo
		}
		if shHi > hi || (i == shards-1 && hi > rp.keyspace) {
			shHi = hi
		}
		before, c0 := sh.rd.reads, sh.storageCalls()
		t0 := rp.now()
		hits, _ := sh.snap.Range(sh.rd, shLo, shHi)
		if rp.timed {
			rp.scan = append(rp.scan, rp.net(t0, time.Now(), sh.storageCalls()-c0))
			rp.scanReads += sh.rd.reads - before
		}
		out = append(out, hits...)
	}
	return out
}

// do replays one op and checks its answer against m.
func (rp *replay) do(op dict.Op, m *model) error {
	switch op.Kind {
	case dict.Insert, dict.Delete:
		rp.update(op)
		m.apply(op)
	case dict.Lookup:
		v, ok := rp.lookup(op.Key)
		return m.checkGet(op.Key, ok, v)
	case dict.RangeScan:
		return m.checkScan(op.Key, op.Hi, rp.rangeScan(op.Key, op.Hi))
	}
	return nil
}

// io sums the replay's machine reads, writes and snapshot block reads.
func (rp *replay) io() (reads, writes, snap int64) {
	for _, sh := range rp.shards {
		st := sh.ma.Stats()
		reads += st.Reads
		writes += st.Writes
		snap += sh.rd.reads
	}
	return
}

// resetTiming forgets everything timed so far (readmostly: the preload).
func (rp *replay) resetTiming() {
	rp.apply, rp.snapshot, rp.commit, rp.get, rp.scan = nil, nil, nil, nil, nil
	rp.flushStepNS, rp.getReads, rp.scanReads = 0, 0, 0
	rp.snapAllocBytes, rp.snapAllocSamples = 0, 0
	for _, sh := range rp.shards {
		if sh.store != nil {
			*sh.store = timedStorage{Storage: sh.store.Storage}
		}
	}
}

// storageTotals sums the timed storage calls across shards.
func (rp *replay) storageTotals() timedStorage {
	var t timedStorage
	for _, sh := range rp.shards {
		t.readCalls += sh.store.readCalls
		t.writeCalls += sh.store.writeCalls
		t.readNS += sh.store.readNS
		t.writeNS += sh.store.writeNS
	}
	return t
}

// clock is what timing a call costs: pairNS is the time.Now and
// time.Since pair it adds to the caller, insideNS the part of it an empty
// timed interval reads.
type clock struct{ pairNS, insideNS float64 }

// calibrateClock keeps the fastest of many short batches, so a host
// pause during calibration cannot inflate the figures it subtracts.
func calibrateClock() clock {
	const batches, n = 100, 2000
	best := clock{pairNS: math.Inf(1), insideNS: math.Inf(1)}
	for b := 0; b < batches; b++ {
		var inside int64
		start := time.Now()
		for i := 0; i < n; i++ {
			inside += time.Since(time.Now()).Nanoseconds()
		}
		best.pairNS = math.Min(best.pairNS, float64(time.Since(start).Nanoseconds())/n)
		best.insideNS = math.Min(best.insideNS, float64(inside)/n)
	}
	return best
}

// busyS is the engine's own time, in seconds, in `calls` timed calls whose
// intervals read rawNS in total.
func (c clock) busyS(rawNS, calls int64) float64 {
	return (float64(rawNS) - float64(calls)*c.insideNS) / 1e9
}

// reportReplayLayers sets the dict- and aem-layer metrics of a timed
// replay, plus the service overheads measured against it.
func reportReplayLayers(rep *report, rp *replay, run *serveRun) error {
	p50 := func(name string, ns []int64) (float64, error) {
		v, err := percentile(sortedCopy(ns), 50)
		if err != nil {
			return 0, fmt.Errorf("replay %s: %v", name, err)
		}
		return float64(v) / 1e3, nil
	}
	type p50metric struct {
		name string
		ns   []int64
	}
	for _, m := range []p50metric{
		{"dict.apply_p50_us", rp.apply},
		{"dict.snapshot_p50_us", rp.snapshot},
		{"dict.get_p50_us", rp.get},
		{"dict.range_p50_us", rp.scan},
	} {
		v, err := p50(m.name, m.ns)
		if err != nil {
			return err
		}
		rep.set(m.name, v)
	}
	rep.set("dict.apply_busy_s", float64(sum(rp.apply))/1e9)
	rep.set("dict.flushstep_busy_s", float64(rp.flushStepNS)/1e9)
	rep.set("dict.snapshot_busy_s", float64(sum(rp.snapshot))/1e9)
	rep.set("dict.snapshot_alloc_kb", float64(rp.snapAllocBytes)/float64(rp.snapAllocSamples)/1024)
	rep.set("dict.get_blocks_per_call", float64(rp.getReads)/float64(len(rp.get)))
	rep.set("dict.range_blocks_per_call", float64(rp.scanReads)/float64(len(rp.scan)))

	var flushes int64
	height := 0
	var phases aem.PhaseStats
	for _, sh := range rp.shards {
		flushes += sh.tree.NodeFlushes()
		if h := sh.tree.Height(); h > height {
			height = h
		}
		for _, name := range sh.ma.Phases().Phases() {
			phases.Record(name, sh.ma.Phases().Phase(name))
		}
	}
	rep.set("dict.node_flushes", float64(flushes))
	rep.set("dict.height", float64(height))
	setSortPhases(rep, &phases)
	rep.set("sorting.self_s", 0) // the sort inside a leaf apply is not timed apart

	st := rp.storageTotals()
	rep.set("aem.storage_read_calls", float64(st.readCalls))
	rep.set("aem.storage_read_busy_s", rp.clk.busyS(st.readNS, st.readCalls))
	rep.set("aem.storage_write_busy_s", rp.clk.busyS(st.writeNS, st.writeCalls))

	// Service minus replay: what queueing, wake-up and publish hand-off
	// add to a commit, and what locks, atomics and the scratch pool add
	// to a lookup.
	putP50, err := percentile(sortedCopy(run.lat.put), 50)
	if err != nil {
		return fmt.Errorf("service put latency: %v", err)
	}
	commitP50, err := p50("commit", rp.commit)
	if err != nil {
		return err
	}
	rep.set("dictsrv.put_overhead_us", float64(putP50)/1e3-commitP50)
	rep.set("dictsrv.get_overhead_us", (meanNS(run.lat.get)-meanNS(rp.get))/1e3)
	return nil
}

// setSortPhases reports the model cost of the sorting layer's phases.
func setSortPhases(rep *report, ph *aem.PhaseStats) {
	for _, name := range []string{"base", "merge", "pointers"} {
		rep.set("sorting."+name+"_q", float64(ph.Phase(name).Cost(machineCfg.Omega)))
	}
}
