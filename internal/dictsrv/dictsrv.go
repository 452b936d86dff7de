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
// measurable: every operation's latency is captured, and the worst flush
// pause is tracked per shard via the tree's flush hook.
//
// Architecture:
//
//   - The served keyspace [KeyLo, KeyHi) is partitioned into Shards
//     contiguous ranges; each shard owns one machine and one BufferTree.
//     Keys route by range, so a RangeScan touches exactly the shards its
//     interval overlaps.
//   - Writes are group-committed on their callers, with no committer
//     goroutine. A writer queues its request on the shard; if the tree is
//     idle it leads: it takes up to MaxBatch queued requests into one
//     batched Apply, assigns each op its position in the shard's commit
//     order, publishes, wakes the other batch members and hands the tree
//     to the next queued request, whose writer then leads the next batch
//     (flat combining). A lone writer thus commits with no goroutine
//     switch, and the tree (and its machine) is touched by one holder at
//     a time.
//   - Reads are snapshot-isolated: after every commit batch the leader
//     publishes a dict.TreeSnapshot (an immutable structural capture —
//     the tree's chains are append-only, so captured addresses can never
//     change contents behind the snapshot). A publish costs what the
//     batch changed, in work as well as allocation: the capture descends
//     only the tree paths the batch marked dirty, so a staged write that
//     changed no chain visits the root alone, and the snapshot is filled
//     in place inside the one object a publish allocates. Write requests
//     and flush barriers come from a pool and are signalled on a reusable
//     channel, so a single-writer staged Put allocates at most that one
//     object end to end. Readers load the current
//     snapshot atomically and read its blocks straight from the shard's
//     storage engine, which the tree holder keeps allocating and writing
//     underneath them: engines never move a block once allocated, so a
//     reader takes no lock and never waits on commit, flush or rebuild
//     work.
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
)

// Config shapes a Service.
type Config struct {
	// Shards is the number of keyspace partitions (≥ 1), each its own
	// machine + tree.
	Shards int

	// Machine is the per-shard AEM machine shape.
	Machine aem.Config

	// Engine names the storage engine backing each shard (aem registry
	// name; must retain data). Empty means "slice".
	Engine string

	// KeyLo, KeyHi bound the served keyspace [KeyLo, KeyHi); keys route
	// to the shard whose contiguous sub-range covers them (out-of-range
	// keys clamp to the edge shards).
	KeyLo, KeyHi int64

	// MaxBatch caps how many queued writes a leading writer takes into
	// one commit batch (0 = 1024); writers queued beyond it wait for the
	// next batch. Bigger batches amortize better; smaller bound the
	// latency one batch can add to its waiters.
	MaxBatch int

	// Deamortize bounds the commit-path stall: each shard tree runs in
	// incremental-flush mode (dict.BufferTree.Deamortize), each commit
	// batch pays at most one FlushStep(1) — one node-flush — and the rest
	// of the debt is retired at idle by the shard's one retirer goroutine.
	// A commit that leaves debt or ran a node-flush passes the tree to the
	// retirer once no writer is queued; each retirer turn pays one
	// FlushStep(1), or once the debt is settled one Compact (the rebuild
	// check) and a republish, and then yields to any queued writer, so an
	// arriving writer waits behind at most one node-flush. The same
	// node-flushes happen either way; deamortizing spreads them so a
	// commit batch never stalls behind a full cascade.
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

// Segment is the per-shard slice of a cross-shard range scan: the hits
// whose keys fall in the shard's sub-range, read at that shard's
// watermark.
type Segment struct {
	Shard     int
	Watermark int64
	Hits      []dict.Found
}

// ScanResult answers a range scan. Hits concatenate the segments' hits —
// shards partition the keyspace contiguously, so the concatenation is
// globally key-ordered. A scan that touches one shard does not copy its
// answer: Hits and Segments[0].Hits then share one backing array.
type ScanResult struct {
	Hits      []dict.Found
	Segments  []Segment
	LatencyNS int64
}

// Stats aggregates the service's accounting. Reads/Writes/Cost come from
// the shard machines (the group-committed write path); SnapReads counts
// snapshot block reads, and Cost includes them at weight 1.
type Stats struct {
	Shards     int
	Committed  int64 // total write ops committed
	Reads      int64 // machine block reads (commit path)
	Writes     int64 // machine block writes
	SnapReads  int64 // snapshot block reads (serve path)
	Cost       int64 // Σ machine (reads + ω·writes) + SnapReads
	Flushes    int64 // top-level flush sections across all shards
	MaxFlushNS int64 // the worst single flush section (barriers included)

	// Commit-path stall accounting: how long each batch's waiters sat
	// behind the tree work (Apply plus, when deamortized, one FlushStep),
	// excluding explicit Flush barriers. MaxStallNS and Stalls are the
	// deamortization headline: amortized mode pays whole cascades here,
	// deamortized mode at most one node-flush plus the rare root backstop.
	MaxStallNS    int64 // Stalls.MaxNS, the worst batch's stall
	MaxStallQ     int64 // the worst batch's tree work in model cost, reads + ω·writes
	Stalls        Hist  // per-batch commit stalls, power-of-two ns buckets
	Debt          int64 // queued node-flushes right now, summed over shards
	DebtHighWater int64 // worst per-shard debt sampled after any batch
	BatchFlushes  int64 // worst node-flush count any non-barrier batch paid
	Deamortized   bool
}

// shardReader implements dict.BlockReader straight over a shard's
// storage engine. Block contents need no locking: chains write every
// block exactly once at a fresh address, a snapshot only references
// addresses written before it was published, and the Storage contract
// makes ReadInto of such a block safe against the tree holder's concurrent
// Allocs and Writes.
type shardReader struct{ sh *shard }

func (r shardReader) ReadBlock(a aem.Addr, dst []aem.Item) []aem.Item {
	return r.sh.store.ReadInto(a, dst)
}

// snapState is one published snapshot with its commit watermark, held
// by value so a publish allocates this one object.
type snapState struct {
	snap      dict.TreeSnapshot
	watermark int64
}

// writeReq is one queued write (or flush barrier) awaiting group commit.
// Requests are pooled: the tree holder signals done exactly once per
// submission — committed, failed, or handed the tree — and never touches
// the request after that signal, so the waiter owns it again and returns
// it to reqPool.
type writeReq struct {
	op     dict.Op
	flush  bool  // barrier: force the shard tree down to its runs
	commit int64 // assigned by the leader before done is signalled
	lead   bool  // signalled to take the tree and lead the next batch
	err    error // the shard failed before this request committed
	done   chan struct{}
}

var reqPool = sync.Pool{New: func() any { return &writeReq{done: make(chan struct{}, 1)} }}

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
	busy   bool
	idle   bool // idle work (debt, a rebuild check) may be pending
	closed bool
	err    error // set once a commit panicked: the shard is failed

	// wake passes the tree to the retirer (deamortized only, capacity 1).
	wake chan struct{}

	batch, writers []*writeReq // commit scratch, tree holder only
	ops            []dict.Op

	snap      atomic.Pointer[snapState]
	committed atomic.Int64

	snapReads  atomic.Int64
	flushes    atomic.Int64
	maxFlushNS atomic.Int64

	// Holder-written, atomically readable stall/debt telemetry.
	stalls       stallHist
	maxStallQ    atomic.Int64
	debt         atomic.Int64
	debtHW       atomic.Int64
	batchFlushes atomic.Int64 // worst node-flushes one non-barrier batch paid

	scratch sync.Pool // *dict.GetScratch
}

// Service is the concurrent sharded dictionary. All methods are safe for
// concurrent use; Stats and Close require quiescence (no ops in flight).
type Service struct {
	cfg    Config
	shards []*shard

	closeOnce sync.Once
	wg        sync.WaitGroup // retirers
}

// New builds the service: Shards machines and trees, an initial (empty)
// snapshot per shard and, when deamortized, one idle retirer each.
func New(cfg Config) (*Service, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("dictsrv: need ≥ 1 shard, got %d", cfg.Shards)
	}
	if cfg.KeyHi <= cfg.KeyLo {
		return nil, fmt.Errorf("dictsrv: empty keyspace [%d, %d)", cfg.KeyLo, cfg.KeyHi)
	}
	if int64(cfg.Shards) > cfg.KeyHi-cfg.KeyLo {
		return nil, fmt.Errorf("dictsrv: %d shards over a %d-key space", cfg.Shards, cfg.KeyHi-cfg.KeyLo)
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, fmt.Errorf("dictsrv: %v", err)
	}
	engine := cfg.Engine
	if engine == "" {
		engine = "slice"
	}
	if e, ok := aem.EngineByName(engine); !ok || !e.Caps.RetainsData {
		if !ok {
			_, err := aem.StorageByName(engine, cfg.Machine.B)
			return nil, fmt.Errorf("dictsrv: %v", err)
		}
		return nil, fmt.Errorf("dictsrv: engine %q has no data plane and cannot serve a dictionary", engine)
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 1024
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("dictsrv: MaxBatch must be ≥ 1, got %d", cfg.MaxBatch)
	}

	s := &Service{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		store, err := aem.StorageByName(engine, cfg.Machine.B)
		if err != nil {
			s.destroy()
			return nil, fmt.Errorf("dictsrv: shard %d: %v", i, err)
		}
		ma := aem.NewWithStorage(cfg.Machine, store)
		sh := &shard{idx: i, ma: ma, tree: dict.NewBufferTree(ma), store: store}
		// Group-commit batches are sized by writer concurrency, not by B;
		// staging the root tail in memory keeps small batches from
		// fragmenting the buffer chain into mostly-empty blocks that every
		// snapshot read would then scan.
		sh.tree.EnableTailStaging()
		if cfg.Deamortize {
			sh.tree.Deamortize()
		}
		sh.scratch.New = func() interface{} { return dict.NewGetScratch(cfg.Machine.B) }
		sh.tree.SetFlushHook(func(d time.Duration) {
			sh.flushes.Add(1)
			ns := d.Nanoseconds()
			for {
				cur := sh.maxFlushNS.Load()
				if ns <= cur || sh.maxFlushNS.CompareAndSwap(cur, ns) {
					break
				}
			}
		})
		sh.publish(0)
		s.shards = append(s.shards, sh)
	}
	if cfg.Deamortize {
		for _, sh := range s.shards {
			sh.wake = make(chan struct{}, 1)
			s.wg.Add(1)
			go s.retire(sh)
		}
	}
	return s, nil
}

// publish captures the shard tree into a new snapState at watermark and
// makes it current. Only the tree holder may call it (or New, before the
// shard serves).
func (sh *shard) publish(watermark int64) {
	st := &snapState{watermark: watermark}
	sh.tree.SnapshotInto(&st.snap)
	sh.snap.Store(st)
}

// destroy closes whatever shards were built (constructor failure path).
func (s *Service) destroy() {
	for _, sh := range s.shards {
		sh.ma.Close()
	}
}

// shardFor routes a key to its partition: contiguous equal ranges over
// [KeyLo, KeyHi), out-of-range keys clamped to the edge shards.
func (s *Service) shardFor(key int64) int {
	lo, hi := s.cfg.KeyLo, s.cfg.KeyHi
	if key < lo {
		return 0
	}
	if key >= hi {
		return len(s.shards) - 1
	}
	// Partition by position; span/Shards ≥ 1 is checked at construction.
	i := int((key - lo) / ((hi - lo + int64(len(s.shards)) - 1) / int64(len(s.shards))))
	if i >= len(s.shards) {
		i = len(s.shards) - 1
	}
	return i
}

// shardRange returns shard i's key interval [lo, hi).
func (s *Service) shardRange(i int) (lo, hi int64) {
	span := (s.cfg.KeyHi - s.cfg.KeyLo + int64(len(s.shards)) - 1) / int64(len(s.shards))
	lo = s.cfg.KeyLo + int64(i)*span
	hi = lo + span
	if hi > s.cfg.KeyHi || i == len(s.shards)-1 {
		hi = s.cfg.KeyHi
	}
	return lo, hi
}

// submit commits one write and returns its ack.
func (s *Service) submit(op dict.Op) Ack {
	start := time.Now()
	sh := s.shards[s.shardFor(op.Key)]
	commit := s.roundTrip(sh, op, false)
	return Ack{Shard: sh.idx, Commit: commit, LatencyNS: time.Since(start).Nanoseconds()}
}

// roundTrip queues a pooled request on sh — a write of op, or a flush
// barrier — and returns its commit position (0 for a barrier) once it is
// committed. The caller commits it itself, leading a batch, if the tree is
// idle or a finishing holder hands the tree to it; otherwise it waits for
// the leader whose batch takes it.
func (s *Service) roundTrip(sh *shard, op dict.Op, flush bool) int64 {
	r := reqPool.Get().(*writeReq)
	r.op, r.flush, r.commit, r.lead, r.err = op, flush, 0, false, nil
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
	sh.queue = append(sh.queue, r)
	if !sh.busy {
		sh.busy = true
		s.lead(sh) // the queue was empty: r is its head
	} else {
		sh.mu.Unlock()
		<-r.done
		if err := r.err; err != nil {
			reqPool.Put(r)
			panic(err)
		}
		if r.lead {
			sh.mu.Lock()
			s.lead(sh) // handed the tree as the queue head
		}
	}
	commit := r.commit
	reqPool.Put(r)
	return commit
}

// lead runs one group commit as the tree holder. Called with sh.mu held
// and the caller's request at the queue head, it takes up to MaxBatch
// requests off the queue, commits them, wakes every batch member but
// itself and passes the tree on. Publishing before waking is what gives
// sessions read-your-own-writes through snapshots. A panic in the commit
// fails the shard and re-panics on this caller with the failure.
func (s *Service) lead(sh *shard) {
	n := min(len(sh.queue), s.cfg.MaxBatch)
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
	sh.release(idle)
}

// commit is the group-commit body: Apply the batch's writes, pay one
// FlushStep(1) when deamortized, run any barrier Flush, assign commit
// positions and publish the post-batch snapshot. It reports whether a
// deamortized batch may have left idle work for the retirer: debt, or a
// node-flush whose runs the rebuild check should look at.
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
		// model cost. Explicit barriers below are priced separately
		// (MaxFlushNS), they are not stalls the write path inflicts on
		// its own.
		q := sh.ma.Cost()
		start := time.Now()
		sh.tree.Apply(ops)
		if debt := int64(sh.tree.Debt()); debt > sh.debtHW.Load() {
			sh.debtHW.Store(debt) // peak owed, before the step retires one
		}
		if s.cfg.Deamortize {
			sh.tree.FlushStep(1)
		}
		stall := time.Since(start).Nanoseconds()
		sh.stalls.record(stall)
		if dq := sh.ma.Cost() - q; dq > sh.maxStallQ.Load() {
			sh.maxStallQ.Store(dq)
		}
		if d := sh.tree.NodeFlushes() - nf; d > sh.batchFlushes.Load() {
			sh.batchFlushes.Store(d)
		}
		sh.debt.Store(int64(sh.tree.Debt()))
	}
	if doFlush {
		sh.tree.Flush()
		sh.debt.Store(0)
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
// else, when idle work may be pending, to the retirer; else back to idle.
// idle reports whether the turn may have left such work.
func (sh *shard) release(idle bool) {
	sh.mu.Lock()
	sh.idle = sh.idle || idle
	switch {
	case len(sh.queue) > 0:
		next := sh.queue[0]
		next.lead = true
		sh.mu.Unlock()
		next.done <- struct{}{}
		return
	case sh.idle && !sh.closed:
		// Only the holder sends, and the retirer takes the token before it
		// touches the tree, so the channel is empty here.
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

// retire is a deamortized shard's idle retirer. It holds the tree from
// taking a token off wake, which release sends once no writer is queued
// and idle work may be pending, until its turn passes the tree on.
func (s *Service) retire(sh *shard) {
	defer s.wg.Done()
	for range sh.wake {
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
	if sh.tree.Debt() > 0 {
		sh.tree.FlushStep(1)
		sh.debt.Store(int64(sh.tree.Debt()))
	} else if sh.tree.Compact() {
		sh.publish(sh.snap.Load().watermark)
	} else {
		worked = false
	}
	sh.release(worked)
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
	start := time.Now()
	sh := s.shards[s.shardFor(key)]
	st := sh.snap.Load()
	sc := sh.scratch.Get().(*dict.GetScratch)
	v, ok, reads := st.snap.Get(shardReader{sh}, key, sc)
	sh.scratch.Put(sc)
	sh.snapReads.Add(reads)
	return GetResult{OK: ok, Value: v, Shard: sh.idx, Watermark: st.watermark,
		LatencyNS: time.Since(start).Nanoseconds()}
}

// Scan answers a range scan [lo, hi): each overlapping shard contributes
// the hits of its sub-interval from its own current snapshot. Segments
// record the per-shard watermarks — a cross-shard scan is a union of
// per-shard snapshots, not one global snapshot, and the result says so.
func (s *Service) Scan(lo, hi int64) ScanResult {
	start := time.Now()
	var out ScanResult
	if hi <= lo {
		out.LatencyNS = time.Since(start).Nanoseconds()
		return out
	}
	first := s.shardFor(lo)
	last := s.shardFor(hi - 1)
	out.Segments = make([]Segment, 0, last-first+1)
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
		st := sh.snap.Load()
		hits, reads := st.snap.Range(shardReader{sh}, shLo, shHi)
		sh.snapReads.Add(reads)
		out.Segments = append(out.Segments, Segment{Shard: i, Watermark: st.watermark, Hits: hits})
		n += len(hits)
	}
	// Range already copied each answer out of its pooled scan state, so
	// one segment's hits are the answer; several are joined in one
	// exact-size allocation.
	if len(out.Segments) == 1 {
		out.Hits = out.Segments[0].Hits
	} else if n > 0 {
		out.Hits = make([]dict.Found, 0, n)
		for _, seg := range out.Segments {
			out.Hits = append(out.Hits, seg.Hits...)
		}
	}
	out.LatencyNS = time.Since(start).Nanoseconds()
	return out
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

// Close marks every shard closed, stops the retirers and closes every
// shard machine. The caller must have no operations in flight; Close is
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
		for _, sh := range s.shards {
			sh.ma.Close()
		}
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

// ShardWatermark returns shard i's current snapshot watermark (ops
// committed when its snapshot was published).
func (s *Service) ShardWatermark(i int) int64 { return s.shards[i].snap.Load().watermark }

// Stats aggregates accounting across shards. Machine counters are only
// coherent at quiescence: amortized, once every submitted op is acked;
// deamortized, only after Close, because the idle retirer keeps retiring
// debt and compacting after the last ack. The atomics (SnapReads,
// Flushes, MaxFlushNS, Committed) are exact at any time.
func (s *Service) Stats() Stats {
	var out Stats
	out.Shards = len(s.shards)
	out.Deamortized = s.cfg.Deamortize
	for _, sh := range s.shards {
		st := sh.ma.Stats()
		out.Committed += sh.committed.Load()
		out.Reads += st.Reads
		out.Writes += st.Writes
		out.SnapReads += sh.snapReads.Load()
		out.Cost += sh.ma.Cost()
		out.Flushes += sh.flushes.Load()
		if m := sh.maxFlushNS.Load(); m > out.MaxFlushNS {
			out.MaxFlushNS = m
		}
		if m := sh.maxStallQ.Load(); m > out.MaxStallQ {
			out.MaxStallQ = m
		}
		out.Stalls.merge(sh.stalls.snapshot())
		out.Debt += sh.debt.Load()
		if d := sh.debtHW.Load(); d > out.DebtHighWater {
			out.DebtHighWater = d
		}
		if f := sh.batchFlushes.Load(); f > out.BatchFlushes {
			out.BatchFlushes = f
		}
	}
	out.Cost += out.SnapReads
	out.MaxStallNS = out.Stalls.MaxNS
	return out
}
