// Package dictsrv is the concurrent dictionary service: dict.BufferTree
// turned into a serving layer with measured tail latency, not just
// amortized cost.
//
// The paper's write-buffering thesis prices an update stream by its
// amortized I/O: pay Θ(ωM) of deferral in the root buffer so each update
// is written O(height/B) times instead of ≥ 1. A serving system feels the
// other side of that trade — the deferred work does not disappear, it
// concentrates into flush stalls, and the bigger ω makes the buffer, the
// rarer but bigger the stall. This package is where that axis becomes
// measurable: every operation's latency is captured, and the tree holder
// times each call it makes into the tree, so every commit stall and every
// flush is recorded per shard where it happens.
//
// Architecture:
//
//   - The served keyspace [KeyLo, KeyHi) is partitioned into Shards
//     contiguous ranges; each shard owns one machine and one BufferTree.
//     Keys route by range, so a RangeScan touches exactly the shards its
//     interval overlaps.
//   - Writes are group-committed on their callers, with no committer
//     goroutine. A writer queues its request on the shard; if the tree is
//     idle it leads: it takes up to maxBatch queued requests into one
//     batched Apply, assigns each op its position in the shard's commit
//     order, publishes, wakes the other batch members and hands the tree
//     to the next queued request, whose writer then leads the next batch
//     (flat combining). A lone writer thus commits with no goroutine
//     switch, and the tree (and its machine) is touched by one holder at
//     a time.
//   - Reads are snapshot-isolated: after every commit batch the leader
//     publishes a dict.TreeSnapshot (an immutable structural capture —
//     the tree's chains are append-only, and a block the tree lets go of
//     is rewritten only after every reader that could reach it has
//     finished, so captured addresses never change contents behind a
//     reader of the snapshot). A publish costs what the
//     batch changed, in work as well as allocation. A batch that only
//     staged writes in the root's in-memory tail is published in place:
//     the current snapshot already holds the live stage array, so one
//     atomic store of how many more staged entries it covers
//     (dict.BufferTree.StagedSince) publishes the batch. Any other batch
//     captures a new snapshot, which descends only the tree paths the
//     batch marked dirty. Write requests and flush barriers are
//     recycled through a per-shard free list and signalled on a reusable
//     channel, so a single-writer Put that does not spill the stage
//     allocates nothing end to end. The Put that spills captures a new
//     snapshot, and that too allocates nothing amortized: the tree
//     keeps the root's capture by value, the snapshot state is carved
//     from a per-shard slab, and the spilled block, the next stage and
//     the root chain's longer address arrays come from slabs too (the
//     slice engine's and the tree's), as do the nodes a flush's publish
//     captures. A Get allocates nothing and a Scan only its answer.
//     Readers load the current snapshot and its extension atomically and
//     read its blocks straight from the shard's storage engine, which the
//     tree holder keeps allocating and writing underneath them: engines
//     never move a block once allocated, so a reader takes no lock and
//     never waits on commit, flush or rebuild work.
//   - Storage is bounded by live data, not by every write ever made: the
//     shard reclaims the blocks its tree lets go of with epoch-based
//     reclamation (Fraser, Practical lock-freedom, 2004). A reader pins
//     the shard's epoch before it loads a snapshot and unpins after its
//     last block read; the holder stamps each publish's retired blocks
//     with the epoch and hands them back to the tree once the epoch has
//     advanced twice past it, which it does only when the older parity's
//     readers have drained (see reclaim). Neither side waits, and Q does
//     not move: a rewritten address is billed like a fresh one.
//   - Every read carries the watermark (ops committed on its shard when
//     its snapshot was published), and every write its commit position.
//     Those two numbers make concurrent histories checkable: a read must
//     observe exactly the model state after its watermark's prefix of the
//     shard's commit order, and because the snapshot is published before
//     waiters wake, a session always observes its own completed writes.
//     The linearizability-style differential test holds the service to
//     precisely that contract under -race.
//   - A commit that panics (a meter violation, an I/O error, an invalid
//     value) fails its shard instead of hanging it: every batch member and
//     queued writer, and every later write to that shard, panics with
//     "dictsrv: shard N failed: <cause>". Other shards keep serving.
//
// Cost accounting: the tree holder's writes flow through the machine's
// normal metered path, so amortized Q is the same accounting every other
// experiment uses. Snapshot reads bypass the (single-threaded) machine
// and each call adds its block count to a shard atomic; Stats folds them
// back in at read weight 1, the model's price for a read.
package dictsrv

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aem"
	"repro/internal/dict"
	"repro/internal/slab"
)

// Config shapes a Service.
type Config struct {
	// Shards is the number of keyspace partitions (≥ 1), each its own
	// machine + tree.
	Shards int

	// Machine is the per-shard AEM machine shape.
	Machine aem.Config

	// Engine must be "" or "slice": every shard stores its blocks on
	// the slice engine.
	//
	// Deprecated: there is one data engine; leave Engine empty.
	Engine string

	// KeyLo, KeyHi bound the served keyspace [KeyLo, KeyHi); keys route
	// to the shard whose contiguous sub-range covers them (out-of-range
	// keys clamp to the edge shards).
	KeyLo, KeyHi int64

	// Deamortize bounds the commit-path stall: each shard tree runs in
	// incremental-flush mode (dict.BufferTree.Deamortize), each commit
	// batch pays at most one FlushStep(1) — one node-flush — and the rest
	// of the debt is retired at idle by the shard's retirer goroutine,
	// which the shard starts with its first idle work, so a shard that
	// never owes debt runs none. A commit that leaves debt or ran a
	// node-flush passes the tree to the retirer once no writer is queued;
	// each retirer turn pays one FlushStep(1), or once the debt is settled
	// one Compact (the rebuild check) and a republish, and then yields to
	// any queued writer, so an arriving writer waits behind at most one
	// node-flush. The same node-flushes happen either way; deamortizing
	// spreads them so a commit batch never stalls behind a full cascade.
	Deamortize bool
}

// Ack answers a completed write: where it committed and what it cost the
// caller in wall-clock.
type Ack struct {
	Shard     int
	Commit    int64 // position in the shard's commit order, 1-based
	LatencyNS int64
}

// GetResult answers a point lookup from a shard snapshot.
type GetResult struct {
	OK        bool
	Value     int64
	Shard     int
	Watermark int64 // ops committed on the shard when the snapshot published
	LatencyNS int64
}

// ScanResult answers a range scan. Hits concatenate the overlapping
// shards' hits, each read from that shard's own current snapshot: shards
// partition the keyspace contiguously, so the concatenation is globally
// key-ordered, but a cross-shard scan is a union of per-shard snapshots,
// not one global snapshot.
type ScanResult struct {
	Hits      []dict.Found
	LatencyNS int64
}

// maxBatch caps how many queued writes a leading writer takes into one
// commit batch; writers queued beyond it wait for the next batch.
const maxBatch = 1024

// Stats aggregates the service's accounting. Reads/Writes/Cost come from
// the shard machines (the group-committed write path); SnapReads counts
// snapshot block reads, and Cost includes them at weight 1.
type Stats struct {
	Reads     int64 // machine block reads (commit path)
	Writes    int64 // machine block writes
	SnapReads int64 // snapshot block reads (serve path)
	Cost      int64 // Σ machine (reads + ω·writes) + SnapReads

	// Blocks is the storage blocks allocated across shards, and
	// ReusedBlocks how many block writes took a reclaimed address
	// instead of a fresh one.
	Blocks       int64
	ReusedBlocks int64

	// Flushes counts the tree holder's calls that flushed, across all
	// shards: a commit batch that ran a node-flush, a Flush barrier, a
	// retirer step that paid one, or an idle Compact that rebuilt.
	// MaxFlushNS is the slowest of them, a batch timed as its stall.
	Flushes    int64
	MaxFlushNS int64

	// Commit-path stall accounting: how long each batch's waiters sat
	// behind the tree work (Apply plus, when deamortized, one FlushStep),
	// excluding explicit Flush barriers. MaxStallNS and Stalls are the
	// deamortization headline: amortized mode pays whole cascades here,
	// deamortized mode at most one node-flush plus the rare root backstop.
	MaxStallNS    int64 // Stalls.MaxNS, the worst batch's stall
	MaxStallQ     int64 // the worst batch's tree work in model cost, reads + ω·writes
	Stalls        Hist  // per-batch commit stalls
	DebtHighWater int64 // worst per-shard debt right after a batch's Apply
	BatchFlushes  int64 // worst node-flush count any non-barrier batch paid
}

// shardReader implements dict.BlockReader straight over a shard's
// storage engine. Block contents need no locking: a snapshot only
// references blocks written before it was published, the holder rewrites
// none of them while a reader that pinned before their retirement is
// still pinned (see reclaim), and the Storage contract makes ReadInto of
// such a block safe against the holder's concurrent Allocs and Writes to
// other blocks.
type shardReader struct{ sh *shard }

func (r shardReader) ReadBlock(a aem.Addr, dst []aem.Item) []aem.Item {
	return r.sh.store.ReadInto(a, dst)
}

// snapState is one published snapshot with its commit watermark. ext
// counts the writes published in place since (see publish): readers see
// snap.Grown(ext) at watermark+ext, through shard.view.
type snapState struct {
	snap      dict.TreeSnapshot
	watermark int64
	ext       atomic.Int64
}

// writeReq is one queued write (or flush barrier) awaiting group commit.
// Requests are recycled through their shard's free list: the tree holder
// signals done exactly once per submission — committed, failed, or handed
// the tree — and never touches the request after that signal, so the
// waiter owns it again and returns it to the list.
type writeReq struct {
	op     dict.Op
	flush  bool  // barrier: force the shard tree down to its runs
	commit int64 // assigned by the leader before done is signalled
	lead   bool  // signalled to take the tree and lead the next batch
	err    error // the shard failed before this request committed
	done   chan struct{}
}

type shard struct {
	idx   int
	ma    *aem.Machine
	tree  *dict.BufferTree
	store aem.Storage

	// mu guards the hand-off state. busy means a goroutine holds the
	// tree: a leading writer or the retirer. Only the holder touches the
	// tree, the machine and the batch scratch below, and it passes the
	// tree on under mu (see release). busy is false only while the queue
	// is empty.
	mu     sync.Mutex
	queue  []*writeReq
	free   []*writeReq // requests no waiter holds, for reuse
	busy   bool
	idle   bool // idle work (debt, a rebuild check) may be pending
	closed bool
	err    error // set once a commit panicked: the shard is failed

	// stats is the shard's flush and stall record, guarded by mu. The
	// holder measures its turn into turn and release folds it in.
	stats telemetry

	// wake passes the tree to the retirer (capacity 1). It stays nil until
	// the shard's first idle work starts the retirer, so an amortized
	// shard, or a deamortized one that never owed debt, runs none.
	// retirers is the service's WaitGroup that Close waits on (nil when
	// amortized). Both are guarded by mu.
	wake     chan struct{}
	retirers *sync.WaitGroup

	batch, writers []*writeReq // commit scratch, tree holder only
	ops            []dict.Op
	turn           turn // this turn's measurements, tree holder only

	snap      atomic.Pointer[snapState]
	states    slab.Carver[snapState] // states to publish (see newState); tree holder only
	committed atomic.Int64
	snapReads atomic.Int64

	// Block reclamation (see pin and reclaim). readers counts pinned
	// readers by the parity of the epoch they pinned in. limbo lists the
	// retired addresses still awaiting their grace period, oldest first,
	// and marks stamps its prefixes with the epoch they were retired in;
	// both are the tree holder's and keep their capacity.
	epoch   atomic.Uint64
	readers [2]atomic.Int64
	limbo   []aem.Addr
	marks   []limboMark

	scratch sync.Pool // *dict.GetScratch
}

// limboMark stamps limbo[:end] (less earlier marks' prefixes) with the
// epoch current when the state that no longer reaches them was published.
type limboMark struct {
	epoch uint64
	end   int
}

// turn is what one holder turn measured.
type turn struct {
	flushes, flushNS int64 // calls that flushed, and the slowest
	stalled          bool  // a commit batch applied writes
	stallNS, stallQ  int64 // its stall, in wall clock and model cost
	debt             int64 // debt right after its Apply
	nodeFlushes      int64 // node-flushes it paid
}

// flushed records one holder call that flushed, taking ns.
func (t *turn) flushed(ns int64) {
	t.flushes++
	t.flushNS = max(t.flushNS, ns)
}

// telemetry is a shard's flush and stall record, the per-shard form of
// the matching Stats fields.
type telemetry struct {
	flushes, maxFlushNS             int64
	maxStallQ, debtHW, batchFlushes int64
	stalls                          *Hist // nil until the first commit batch
}

// mergeInto folds the record into the matching fields of out.
func (t *telemetry) mergeInto(out *Stats) {
	out.Flushes += t.flushes
	out.MaxFlushNS = max(out.MaxFlushNS, t.maxFlushNS)
	out.MaxStallQ = max(out.MaxStallQ, t.maxStallQ)
	out.DebtHighWater = max(out.DebtHighWater, t.debtHW)
	out.BatchFlushes = max(out.BatchFlushes, t.batchFlushes)
	if t.stalls != nil {
		out.Stalls.Merge(t.stalls)
	}
}

// add folds one turn in.
func (t *telemetry) add(u *turn) {
	t.flushes += u.flushes
	t.maxFlushNS = max(t.maxFlushNS, u.flushNS)
	if !u.stalled {
		return
	}
	if t.stalls == nil {
		t.stalls = new(Hist)
	}
	t.stalls.Record(u.stallNS)
	t.maxStallQ = max(t.maxStallQ, u.stallQ)
	t.debtHW = max(t.debtHW, u.debt)
	t.batchFlushes = max(t.batchFlushes, u.nodeFlushes)
}

// Service is the concurrent sharded dictionary. All methods are safe for
// concurrent use; Stats and Close require quiescence (no ops in flight).
type Service struct {
	cfg      Config
	shards   []*shard
	maxBatch int // the maxBatch constant; tests shrink it for small batches

	// stallClock times the commit-path stall, in nanoseconds: now by
	// default; a test reads the leading thread's CPU time instead.
	stallClock func() int64

	closeOnce sync.Once
	wg        sync.WaitGroup // the retirers started so far
}

// New builds the service: Shards machines and trees and an initial (empty)
// snapshot per shard. It starts no goroutine: a deamortized shard starts
// its retirer with its first idle work (see release).
func New(cfg Config) (*Service, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("dictsrv: need ≥ 1 shard, got %d", cfg.Shards)
	}
	if cfg.KeyHi <= cfg.KeyLo {
		return nil, fmt.Errorf("dictsrv: empty keyspace [%d, %d)", cfg.KeyLo, cfg.KeyHi)
	}
	if w := cfg.width(); uint64(cfg.Shards) > w {
		return nil, fmt.Errorf("dictsrv: %d shards over a %d-key space", cfg.Shards, w)
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, fmt.Errorf("dictsrv: %v", err)
	}
	if m := cfg.Machine; m.M < 8*m.B { // dict.NewBufferTree's minimum
		return nil, fmt.Errorf("dictsrv: a buffer tree needs M ≥ 8B, got M=%d B=%d", m.M, m.B)
	}
	if cfg.Engine != "" && cfg.Engine != "slice" {
		return nil, fmt.Errorf("dictsrv: storage engine %q cannot serve a dictionary; shards use the slice engine", cfg.Engine)
	}
	s := &Service{cfg: cfg, maxBatch: maxBatch, stallClock: now}
	for i := 0; i < cfg.Shards; i++ {
		store := aem.NewSliceStorage()
		ma := aem.NewWithStorage(cfg.Machine, store)
		sh := &shard{idx: i, ma: ma, tree: dict.NewBufferTree(ma), store: store,
			states: slab.New[snapState](stateSlabMax)}
		if cfg.Deamortize {
			sh.tree.Deamortize()
			sh.retirers = &s.wg
		}
		sh.scratch.New = func() interface{} { return dict.NewGetScratch(cfg.Machine.B) }
		sh.publish(0)
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// publish makes the shard tree's state at watermark current. When the
// tree changed only by staging the writes since the current snapshot, it
// extends that snapshot in place, with no allocation; otherwise it
// captures the tree into a new snapState from the state slab (see
// newState). Only the tree holder may call it (or New, before the shard
// serves).
func (sh *shard) publish(watermark int64) {
	if st := sh.snap.Load(); st != nil {
		if k, ok := sh.tree.StagedSince(&st.snap); ok && st.watermark+int64(k) == watermark {
			st.ext.Store(int64(k))
			sh.reclaim()
			return
		}
	}
	st := sh.newState()
	st.watermark = watermark
	sh.tree.SnapshotInto(&st.snap)
	sh.snap.Store(st)
	sh.stamp()
	sh.reclaim()
}

// stamp runs after a new state is stored. The blocks the tree retired
// since the last one are unreachable from it, so only readers pinned
// before the store can still read them: it moves them to limbo, stamped
// with the current epoch.
func (sh *shard) stamp() {
	n := len(sh.limbo)
	sh.limbo = sh.tree.TakeRetired(sh.limbo)
	if len(sh.limbo) > n {
		sh.marks = append(sh.marks, limboMark{epoch: sh.epoch.Load(), end: len(sh.limbo)})
	}
}

// reclaim hands limbo's blocks back to the tree once no reader can reach
// them. A reader pinned in epoch p keeps the epoch from passing p+1
// (advancing to p+2 needs p's parity drained), and every reader that
// could hold a state older than the one whose store stamped a block with
// e pinned in e or e−1, so once the epoch reaches e+2 they have all
// unpinned. reclaim advances the epoch at most twice per publish, each
// time only if the parity it would reuse has no pinned reader: it never
// waits, and without readers a publish's blocks are reused right after
// it.
func (sh *shard) reclaim() {
	if len(sh.marks) == 0 {
		return
	}
	e := sh.epoch.Load()
	for i := 0; i < 2 && sh.readers[(e+1)&1].Load() == 0; i++ {
		e++
		sh.epoch.Store(e)
	}
	k := 0
	for k < len(sh.marks) && sh.marks[k].epoch+2 <= e {
		k++
	}
	if k == 0 {
		return
	}
	end := sh.marks[k-1].end
	sh.tree.Reuse(sh.limbo[:end])
	sh.limbo = sh.limbo[:copy(sh.limbo, sh.limbo[end:])]
	sh.marks = sh.marks[:copy(sh.marks, sh.marks[k:])]
	for i := range sh.marks {
		sh.marks[i].end -= end
	}
}

// pin registers a reader in the current epoch and returns the parity to
// unpin. It retries only if the holder advanced the epoch between the
// reader's count and its check, which happens at most twice a publish.
func (sh *shard) pin() uint64 {
	for {
		e := sh.epoch.Load()
		sh.readers[e&1].Add(1)
		if sh.epoch.Load() == e {
			return e & 1
		}
		sh.readers[e&1].Add(-1)
	}
}

// unpin ends a reader's pin: it reads no block of its snapshot after.
func (sh *shard) unpin(parity uint64) { sh.readers[parity].Add(-1) }

// stateSlabMax is the most states one slab holds.
const stateSlabMax = 64

// newState returns a zero snapState carved from the shard's state slab.
// A state is written once, before it is published, and never reused, so
// a reader holding an old state is never raced. Slabs start at one state
// and double up to stateSlabMax, so a shard that publishes once (New)
// pays for one small state. States never point to states, so a held
// state keeps only its own slab alive.
func (sh *shard) newState() *snapState { return &sh.states.Take(1)[0] }

// view pins a reader and returns the shard's current snapshot, its
// watermark and the pin, which the caller passes to unpin after its last
// block read. Snapshot and watermark come from one load of the state and
// one of its extension, so they always match.
func (sh *shard) view() (snap dict.TreeSnapshot, watermark int64, pin uint64) {
	pin = sh.pin()
	st := sh.snap.Load()
	k := st.ext.Load()
	return st.snap.Grown(int(k)), st.watermark + k, pin
}

// epoch anchors now.
var epoch = time.Now()

// now reads the monotonic clock in nanoseconds since epoch: the reading
// time.Now carries, at half its cost, since no wall-clock time is read.
// Latencies are differences of two readings.
func now() int64 { return int64(time.Since(epoch)) }

// width is how many keys [KeyLo, KeyHi) holds, which may not fit an
// int64. KeyHi > KeyLo, so the unsigned difference is exact and ≥ 1.
func (c Config) width() uint64 { return uint64(c.KeyHi) - uint64(c.KeyLo) }

// span is how many keys each shard covers, ⌈width/Shards⌉, which is ≥ 1
// because New checks Shards ≤ width. The last shard may cover fewer.
func (s *Service) span() uint64 {
	return (s.cfg.width()-1)/uint64(len(s.shards)) + 1
}

// shardFor routes a key to its partition: contiguous equal ranges over
// [KeyLo, KeyHi), out-of-range keys clamped to the edge shards. Offsets
// from KeyLo are unsigned, so a keyspace wider than MaxInt64 routes too.
func (s *Service) shardFor(key int64) int {
	if key < s.cfg.KeyLo {
		return 0
	}
	if key >= s.cfg.KeyHi {
		return len(s.shards) - 1
	}
	i := (uint64(key) - uint64(s.cfg.KeyLo)) / s.span()
	return int(min(i, uint64(len(s.shards)-1)))
}

// shardRange returns shard i's key interval [lo, hi). A shard that
// ⌈width/Shards⌉ leaves no key (a narrow keyspace over many shards) gets
// the empty interval [KeyHi, KeyHi), and shardFor routes nothing to it.
// No product below wraps: (Shards−1)·span is at most width when
// (Shards−1)² ≤ width, and below Shards² + Shards otherwise.
func (s *Service) shardRange(i int) (lo, hi int64) {
	w, span := s.cfg.width(), s.span()
	from, to := min(uint64(i)*span, w), w
	if i < len(s.shards)-1 {
		to = min(uint64(i+1)*span, w)
	}
	return int64(uint64(s.cfg.KeyLo) + from), int64(uint64(s.cfg.KeyLo) + to)
}

// submit commits one write and returns its ack.
func (s *Service) submit(op dict.Op) Ack {
	start := now()
	sh := s.shards[s.shardFor(op.Key)]
	commit := s.roundTrip(sh, op, false)
	return Ack{Shard: sh.idx, Commit: commit, LatencyNS: now() - start}
}

// roundTrip queues a request on sh — a write of op, or a flush barrier —
// and returns its commit position (0 for a barrier) once it is committed.
// The caller commits it itself, leading a batch, if the tree is idle or a
// finishing holder hands the tree to it; otherwise it waits for the
// leader whose batch takes it.
//
// The request comes from the shard's free list, under the lock the
// submission takes anyway, and goes back to it under the next one: the
// release that ends a leader's turn, or one more lock for a waiter. A
// sync.Pool would be lock-free but keeps its items per P and drops them
// at every collection, so a writer that moved to another P, or that a
// collection overtook, would allocate a new request and channel.
func (s *Service) roundTrip(sh *shard, op dict.Op, flush bool) int64 {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		if flush {
			panic("dictsrv: Flush on a closed service")
		}
		panic("dictsrv: write on a closed service")
	}
	if err := sh.err; err != nil {
		sh.mu.Unlock()
		panic(err)
	}
	r := sh.request()
	r.op, r.flush = op, flush
	sh.queue = append(sh.queue, r)
	if !sh.busy {
		sh.busy = true
		return s.lead(sh) // the queue was empty: r is its head
	}
	sh.mu.Unlock()
	<-r.done
	if r.lead {
		sh.mu.Lock()
		return s.lead(sh) // handed the tree as the queue head
	}
	commit, err := r.commit, r.err
	sh.mu.Lock()
	sh.free = append(sh.free, r)
	sh.mu.Unlock()
	if err != nil {
		panic(err)
	}
	return commit
}

// request takes a cleared request off the free list, or makes one.
// Called with sh.mu held.
func (sh *shard) request() *writeReq {
	n := len(sh.free)
	if n == 0 {
		return &writeReq{done: make(chan struct{}, 1)}
	}
	r := sh.free[n-1]
	sh.free = sh.free[:n-1]
	*r = writeReq{done: r.done}
	return r
}

// lead runs one group commit as the tree holder and returns the commit
// position of the caller's request. Called with sh.mu held and that
// request at the queue head, it takes up to maxBatch requests off the
// queue, commits them, wakes every batch member but itself and passes the
// tree on, returning the caller's request to the free list. Publishing
// before waking is what gives sessions read-your-own-writes through
// snapshots. A panic in the commit fails the shard and re-panics on this
// caller with the failure.
func (s *Service) lead(sh *shard) int64 {
	n := min(len(sh.queue), s.maxBatch)
	sh.batch = append(sh.batch[:0], sh.queue[:n]...)
	rest := copy(sh.queue, sh.queue[n:])
	clear(sh.queue[rest:])
	sh.queue = sh.queue[:rest]
	sh.mu.Unlock()

	defer func() {
		if p := recover(); p != nil {
			panic(sh.fail(p, sh.batch[1:]))
		}
	}()
	idle := s.commit(sh, sh.batch)
	for _, r := range sh.batch[1:] {
		r.done <- struct{}{} // r belongs to its waiter from here on
	}
	own := sh.batch[0]
	commit := own.commit
	sh.release(idle, own)
	return commit
}

// commit is the group-commit body: Apply the batch's writes, pay one
// FlushStep(1) when deamortized, run any barrier Flush, assign commit
// positions and publish the post-batch snapshot. It times the tree calls
// into sh.turn and reports whether a deamortized batch may have left idle
// work for the retirer: debt, or a node-flush whose runs the rebuild
// check should look at.
func (s *Service) commit(sh *shard, batch []*writeReq) bool {
	ops, writers := sh.ops[:0], sh.writers[:0]
	doFlush := false
	for _, r := range batch {
		if r.flush {
			doFlush = true
			continue
		}
		ops = append(ops, r.op)
		writers = append(writers, r)
	}
	sh.ops, sh.writers = ops, writers
	nf := sh.tree.NodeFlushes()
	if len(ops) > 0 {
		// The commit-path stall: tree work the batch's waiters (and any
		// writer queued behind them) cannot overtake, timed and priced in
		// model cost. Explicit barriers below are timed separately, as
		// flushes only: they are not stalls the write path inflicts on
		// its own.
		t := &sh.turn
		q := sh.ma.Cost()
		start := s.stallClock()
		sh.tree.Apply(ops)
		t.debt = int64(sh.tree.Debt()) // peak owed, before the step retires one
		if s.cfg.Deamortize {
			sh.tree.FlushStep(1)
		}
		t.stalled, t.stallNS = true, s.stallClock()-start
		t.stallQ = sh.ma.Cost() - q
		if t.nodeFlushes = sh.tree.NodeFlushes() - nf; t.nodeFlushes > 0 {
			t.flushed(t.stallNS)
		}
	}
	if doFlush {
		start := now()
		sh.tree.Flush()
		sh.turn.flushed(now() - start)
	}
	base := sh.committed.Load()
	for i, r := range writers {
		r.commit = base + int64(i) + 1
	}
	n := base + int64(len(writers))
	sh.publish(n)
	sh.committed.Store(n)
	return s.cfg.Deamortize && (sh.tree.Debt() > 0 || sh.tree.NodeFlushes() != nf)
}

// release passes the tree on at the end of a holder's turn — a commit or
// a retirer turn: to the queue head, which then leads the next batch;
// else, when idle work may be pending, to the retirer, which the shard's
// first idle work starts; else back to idle. idle reports whether the
// turn may have left such work. It folds the turn's measurements into the
// shard's telemetry on the way, and puts done, a leader's own request
// (nil for the retirer), on the free list.
func (sh *shard) release(idle bool, done *writeReq) {
	sh.mu.Lock()
	if done != nil {
		sh.free = append(sh.free, done)
	}
	sh.stats.add(&sh.turn)
	sh.turn = turn{}
	sh.idle = sh.idle || idle
	switch {
	case len(sh.queue) > 0:
		next := sh.queue[0]
		next.lead = true
		sh.mu.Unlock()
		next.done <- struct{}{}
		return
	case sh.idle && !sh.closed:
		// The first idle work starts the retirer. Only the holder sends,
		// and the retirer takes the token before it touches the tree, so
		// the channel is empty here.
		if sh.wake == nil {
			sh.wake = make(chan struct{}, 1)
			sh.retirers.Add(1)
			go retire(sh, sh.wake, sh.retirers)
		}
		sh.idle = false
		sh.wake <- struct{}{}
	default:
		sh.busy = false
	}
	sh.mu.Unlock()
}

// fail marks sh failed by a commit that panicked with cause, releases the
// tree and wakes every request still waiting on it — the batch members in
// pending and the whole queue — with the failure, which it returns.
func (sh *shard) fail(cause any, pending []*writeReq) error {
	err := fmt.Errorf("dictsrv: shard %d failed: %v", sh.idx, cause)
	sh.mu.Lock()
	sh.err = err
	queued := sh.queue
	sh.queue = nil
	sh.busy = false
	sh.mu.Unlock()
	for _, waiting := range [][]*writeReq{pending, queued} {
		for _, r := range waiting {
			r.err = err
			r.done <- struct{}{}
		}
	}
	return err
}

// retire is a deamortized shard's idle retirer, which release starts with
// the shard's first idle work. It holds the tree from taking a token off
// wake, which release sends once no writer is queued and idle work may be
// pending, until its turn passes the tree on. It ends when Close closes
// wake.
func retire(sh *shard, wake <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for range wake {
		sh.retireTurn()
	}
}

// retireTurn pays one FlushStep(1), or once the debt is settled runs the
// rebuild check (Compact) and, if it rebuilt, republishes at the same
// watermark so readers descend the compacted structure. It then passes the
// tree on: to any queued writer first, back to the retirer while it finds
// work, else to idle. A panic fails the shard, as in a commit.
func (sh *shard) retireTurn() {
	defer func() {
		if p := recover(); p != nil {
			sh.fail(p, nil)
		}
	}()
	worked := true
	start := now()
	if sh.tree.Debt() > 0 {
		if sh.tree.FlushStep(1) > 0 {
			sh.turn.flushed(now() - start)
		}
	} else if sh.tree.Compact() {
		sh.turn.flushed(now() - start)
		st := sh.snap.Load()
		sh.publish(st.watermark + st.ext.Load())
	} else {
		worked = false
	}
	sh.release(worked, nil)
}

// Put inserts (key, value), overwriting any previous value. It returns
// when the write is committed (applied to the shard tree and visible to
// every subsequently published snapshot).
func (s *Service) Put(key, value int64) Ack {
	return s.submit(dict.Op{Kind: dict.Insert, Key: key, Value: value})
}

// Delete removes key (absent keys are a committed no-op).
func (s *Service) Delete(key int64) Ack {
	return s.submit(dict.Op{Kind: dict.Delete, Key: key})
}

// Get answers a point lookup against the shard's current snapshot. It
// takes no lock, never blocks on commit or flush work, and is
// allocation-free in steady state.
func (s *Service) Get(key int64) GetResult {
	start := now()
	sh := s.shards[s.shardFor(key)]
	snap, watermark, pin := sh.view()
	defer sh.unpin(pin) // also if a storage read panics
	sc := sh.scratch.Get().(*dict.GetScratch)
	v, ok, reads := snap.Get(shardReader{sh}, key, sc)
	sh.scratch.Put(sc)
	sh.snapReads.Add(reads)
	return GetResult{OK: ok, Value: v, Shard: sh.idx, Watermark: watermark,
		LatencyNS: now() - start}
}

// Scan answers a range scan [lo, hi): each overlapping shard contributes
// the hits of its sub-interval from its own current snapshot, so a
// cross-shard scan is a union of per-shard snapshots, not one global
// snapshot.
//
// Each shard's answer is read into pooled memory (dict.RangeLease) and
// held until every shard has answered; then all are copied once, into one
// exact-size array, the only object a scan allocates. Up to maxHeld
// leases are held on the stack.
func (s *Service) Scan(lo, hi int64) ScanResult {
	start := now()
	var out ScanResult
	if hi <= lo {
		out.LatencyNS = now() - start
		return out
	}
	first := s.shardFor(lo)
	last := s.shardFor(hi - 1)
	var held [maxHeld]dict.RangeLease
	leases := held[:0]
	n := 0
	for i := first; i <= last; i++ {
		sh := s.shards[i]
		shLo, shHi := s.shardRange(i)
		if shLo < lo {
			shLo = lo
		}
		if shHi > hi {
			shHi = hi
		}
		if i == 0 && lo < s.cfg.KeyLo {
			shLo = lo // edge shard serves clamped out-of-range keys
		}
		if i == len(s.shards)-1 && hi > s.cfg.KeyHi {
			shHi = hi
		}
		l := sh.rangeLease(shLo, shHi)
		leases = append(leases, l)
		n += len(l.Hits())
	}
	out.Hits = make([]dict.Found, 0, n)
	for _, l := range leases {
		out.Hits = append(out.Hits, l.Hits()...)
		l.Release()
	}
	out.LatencyNS = now() - start
	return out
}

// maxHeld is how many shards' leases a Scan holds without allocating:
// as many as dict keeps idle range working memory for at the least, so a
// scan over more shards allocates working memory anyway.
const maxHeld = 8

// rangeLease answers [lo, hi) from the shard's current snapshot into
// pooled memory. The pin ends with the call, also if a storage read
// panics.
func (sh *shard) rangeLease(lo, hi int64) dict.RangeLease {
	snap, _, pin := sh.view()
	defer sh.unpin(pin)
	l, reads := snap.RangeLease(shardReader{sh}, lo, hi)
	sh.snapReads.Add(reads)
	return l
}

// Flush forces every shard's buffered work down to the leaf runs. Each
// shard's barrier is queued like a write, ordered after everything already
// queued there, and committed from the caller one shard after another, so
// it acts as a committed write barrier per shard.
func (s *Service) Flush() {
	for _, sh := range s.shards {
		s.roundTrip(sh, dict.Op{}, true)
	}
}

// Close marks every shard closed and stops the retirers that were
// started. The caller must have no operations in flight; Close is
// not safe against concurrent writers by design (the differential layer
// owns lifecycle in tests, the CLI in production). A second Close is a
// no-op.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		for _, sh := range s.shards {
			sh.mu.Lock()
			sh.closed = true
			if sh.wake != nil {
				close(sh.wake)
			}
			sh.mu.Unlock()
		}
		s.wg.Wait()
	})
}

// Committed returns the total write ops committed across shards.
func (s *Service) Committed() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.committed.Load()
	}
	return n
}

// Shards returns the shard count.
func (s *Service) Shards() int { return len(s.shards) }

// Stats aggregates accounting across shards. Machine counters, Blocks
// and ReusedBlocks are only coherent at quiescence: amortized, once every
// submitted op is acked; deamortized, only after Close, because the idle
// retirer keeps retiring debt and compacting after the last ack.
// SnapReads is exact at any time, and the flush and stall telemetry is
// read under each shard's lock, so it holds every holder turn that has
// passed the tree on.
func (s *Service) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		st := sh.ma.Stats()
		out.Reads += st.Reads
		out.Writes += st.Writes
		out.SnapReads += sh.snapReads.Load()
		out.Cost += sh.ma.Cost()
		out.Blocks += int64(sh.ma.NumBlocks())
		out.ReusedBlocks += sh.tree.ReusedBlocks()
		sh.mu.Lock()
		sh.stats.mergeInto(&out)
		sh.mu.Unlock()
	}
	out.Cost += out.SnapReads
	out.MaxStallNS = out.Stalls.MaxNS
	return out
}
