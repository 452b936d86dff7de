package dict

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/aem"
)

// This file is the buffer tree's snapshot read path: a structurally
// captured, immutable view of the tree that answers Lookups and RangeScans
// without touching the live tree or its machine. Snapshots are what let a
// concurrent serving layer (internal/dictsrv) run readers against a stable
// state while a background flush or rebuild rewrites the live structure.
//
// The capture is cheap and I/O-free because the tree's chains are
// append-only: blocks are written whole and never rewritten while the
// tree holds them, and a block the tree lets go of is rewritten only once
// its owner has handed it back (see BufferTree.TakeRetired), which a serving
// owner does only after every reader that could reach it has finished. A
// chain's address list therefore only grows at its end, loses a prefix,
// or is replaced outright, so a capture can share the live list instead of
// copying it: it holds the clipped slice addrs[:len:len], and the live
// chain drops (rather than reuses) an array a capture shares when it is
// reset. The staged root tail is shared the same way, and more: a capture
// holds the live stage array itself, and the stage only ever appends past
// what was captured, so a publish that merely staged more updates need not
// capture at all — StagedSince reports how far a held snapshot's stage may
// be extended, and Grown extends it. Sharing is path-copying persistence
// (Driscoll, Sarnak, Sleator and Tarjan, 1989): each node keeps its last
// capture, and every site that changes a node's chains marks the node and
// its ancestors dirty (btnode.touch). A capture returns a clean node's
// cached snapNode without descending and recurses only into dirty
// children, so a publish costs O(Δ) in work, where Δ is the set of nodes
// the updates since the last publish touched: a staged Insert that stays
// in the stage visits only the root, and a flush step that touched k
// nodes visits O(k·fanout). The root's capture is kept by value, in the
// tree and in each snapshot, and the other captures, their child lists
// and the chains' address arrays are carved from the tree's slabs, so a
// publish allocates only now and then a slab. Captures are carved in
// eras (see BufferTree.startEra): the publish that starts one recaptures
// the whole tree, once per eraCaptures captures per node, which bounds
// what dead captures in live slabs keep alive.
// The node topology and separator-block addresses are program knowledge
// and never change for a live node; later updates only append blocks or
// let old ones go — they never change the contents behind a captured
// address while a reader of the capture can still read it.
//
// Snapshot queries do not run on the tree's machine: the machine's
// accounting and storage access are single-threaded by design. Instead the
// snapshot reads blocks through a caller-supplied BlockReader, which is
// where a serving layer injects its concurrency control (and its own read
// accounting). The read algorithm itself replicates the live query path:
// scan every buffer on the root-to-leaf route plus the leaf run, resolve
// winners by sequence number.

// BlockReader fetches one external-memory block into dst, returning the
// filled prefix (like aem.Storage.ReadInto). Implementations used by
// concurrent readers must be safe to call while the tree's machine
// allocates and writes new blocks; reading straight from the machine's
// storage engine is, by the aem.Storage contract (dictsrv's shard reader
// does exactly that).
type BlockReader interface {
	ReadBlock(a aem.Addr, dst []aem.Item) []aem.Item
}

// snapChain is one captured chain: the block addresses as of capture,
// sharing the live chain's array (clipped, so it can never grow into it).
type snapChain struct {
	addrs []aem.Addr
	n     int
}

// capture returns the chain's current state and marks its array shared
// and its blocks held.
func (c *chain) capture() snapChain {
	c.pub = len(c.addrs)
	if len(c.addrs) == 0 {
		return snapChain{}
	}
	c.shared = true
	return snapChain{addrs: c.addrs[:len(c.addrs):len(c.addrs)], n: c.n}
}

// snapNode is one captured tree node. It is immutable once built, so
// successive snapshots share every node whose subtree did not change.
type snapNode struct {
	kids      []*snapNode
	sepBase   aem.Addr
	sepBlocks int
	buf       snapChain
	run       snapChain
}

func (nd *snapNode) isLeaf() bool { return nd.kids == nil }

// TreeSnapshot is an immutable view of a BufferTree at one instant. It is
// safe to share across goroutines and to query while the live tree keeps
// applying updates; queries cost one BlockReader call per block scanned.
// It holds the root's capture by value, so a publish that recaptures only
// the root writes into the snapshot and allocates no node; gen names
// that capture (BufferTree.rootGen).
type TreeSnapshot struct {
	b     int   // block size of the capturing machine
	seq   int64 // update sequence watermark at capture
	gen   int64 // which root capture root is
	root  snapNode
	stage []aem.Item // the staged root tail: the tree's live stage array (BufferTree.stage)
}

// Snapshot captures the tree's current state into a new TreeSnapshot (see
// SnapshotInto).
func (t *BufferTree) Snapshot() *TreeSnapshot {
	s := new(TreeSnapshot)
	t.SnapshotInto(s)
	return s
}

// SnapshotInto captures the tree's current state into s, overwriting it —
// no I/O, no locks, and no allocation beyond now and then a slab for the
// snapNodes of dirty non-root nodes and the child lists of nodes whose
// children changed. The root is captured by value into s itself, so a
// publish after the root buffer alone grew allocates nothing. Clean
// nodes' captures are reused,
// and chains and the staged tail are shared with the live tree rather
// than copied. Capturing writes the nodes' cached captures and the
// chains' sharing marks, so it must be called from the same goroutine
// that applies updates (the tree is not internally synchronized), and s
// must not yet be visible to readers. The snapshot reflects exactly the
// updates applied before the call.
//
// The capture keeps the live stage array whole, empty or not: its first
// len entries are the snapshot's, and the ones the stage appends after
// them are what StagedSince and Grown may later extend it by.
func (t *BufferTree) SnapshotInto(s *TreeSnapshot) {
	t.captureRoot()
	*s = TreeSnapshot{b: t.cfg.B, seq: t.seq, gen: t.rootGen, root: t.rootSnap, stage: t.stage}
	if len(t.stage) > 0 {
		t.stageShared = true
	}
}

// StagedSince reports whether the tree differs from s, a capture of this
// tree, only by k updates staged since: the root is clean and its capture
// is still the one s holds (same rootGen), the stage is the array s
// holds, and every update applied since is one of the k staged past s's.
// Then s.Grown(k) is exactly what SnapshotInto would capture now, at the
// cost of no allocation. On ok a non-empty stage is marked shared, so a
// spill leaves the array to the readers of the grown snapshot. Like
// SnapshotInto, it must be called from the goroutine that applies
// updates; s itself is only read, so it may already be visible to
// readers.
func (t *BufferTree) StagedSince(s *TreeSnapshot) (k int, ok bool) {
	if t.top.dirty || t.rootGen != s.gen || cap(s.stage) == 0 ||
		&t.stage[:1][0] != &s.stage[:1][0] {
		return 0, false
	}
	k = len(t.stage) - len(s.stage)
	if t.seq-s.seq != int64(k) {
		return 0, false
	}
	if len(t.stage) > 0 {
		t.stageShared = true
	}
	return k, true
}

// captureRoot brings the tree's root capture, rootSnap, up to date. A
// clean root's capture is current; a dirty root is recaptured in place and
// rootGen counts the new capture. rootSnap's child list is reused only if
// rootSnapOf is the current root: a rebuild installs a fresh, dirty root
// whose children the old list never captured. A root never becomes a
// child (rebuild builds every node afresh), so no snapNode ever points
// to a root capture.
func (t *BufferTree) captureRoot() {
	t.captureVisits++
	nd := t.top
	if !nd.dirty && t.rootSnapOf == nd {
		return
	}
	if t.eraLeft <= 0 {
		t.startEra()
	}
	var prev *snapNode
	if t.rootSnapOf == nd {
		prev = &t.rootSnap
	}
	t.rootSnap, t.rootSnapOf = t.captureNode(nd, prev), nd
	t.rootGen++
}

// capture returns a non-root node's capture and leaves the node clean. A
// clean node's cached capture is returned without descending; a dirty
// node gets a new snapNode (see captureNode).
func (t *BufferTree) capture(nd *btnode) *snapNode {
	t.captureVisits++
	if !nd.dirty {
		return nd.snap
	}
	t.eraLeft--
	s := &t.nodes.Take(1)[0]
	*s = t.captureNode(nd, nd.snap)
	nd.snap = s
	return s
}

// captureNode captures nd over its current chains and leaves it clean.
// prev is nd's last capture, or nil if it has none: its children are
// recaptured only if one of them is dirty, and otherwise share prev's
// child list.
func (t *BufferTree) captureNode(nd *btnode, prev *snapNode) snapNode {
	nd.dirty = false
	s := snapNode{
		sepBase:   nd.sepBase,
		sepBlocks: nd.sepBlocks,
		buf:       nd.buf.capture(),
		run:       nd.run.capture(),
	}
	if !nd.isLeaf() {
		if prev != nil && !anyDirty(nd.kids) {
			s.kids = prev.kids
		} else {
			s.kids = t.kidLists.Take(len(nd.kids))
			for i, kid := range nd.kids {
				s.kids[i] = t.capture(kid)
			}
		}
	}
	return s
}

func anyDirty(nds []*btnode) bool {
	for _, nd := range nds {
		if nd.dirty {
			return true
		}
	}
	return false
}

// Seq returns the tree's update-sequence watermark at capture time.
func (s *TreeSnapshot) Seq() int64 { return s.seq }

// Grown returns s extended by the next k staged updates, as StagedSince
// reported them: the same tree with k more stage entries and a watermark
// k higher. Grown(0) is a copy of s.
func (s *TreeSnapshot) Grown(k int) TreeSnapshot {
	g := *s
	g.stage = s.stage[:len(s.stage)+k]
	g.seq += int64(k)
	return g
}

// GetScratch is the reusable working memory of snapshot point lookups:
// one block frame and one separator buffer. Callers that pool it (see
// dictsrv) keep the steady-state lookup path allocation-free.
type GetScratch struct {
	frame []aem.Item
	seps  []int64
}

// NewGetScratch returns scratch sized for snapshots captured at block
// size b.
func NewGetScratch(b int) *GetScratch {
	return &GetScratch{frame: make([]aem.Item, b), seps: make([]int64, 0, 64)}
}

// readSnapSeps decodes a captured node's separator keys into sc.seps.
func readSnapSeps(r BlockReader, nd *snapNode, sc *GetScratch) ([]int64, int64) {
	seps := sc.seps[:0]
	var reads int64
	for b := 0; b < nd.sepBlocks; b++ {
		blk := r.ReadBlock(nd.sepBase+aem.Addr(b), sc.frame)
		reads++
		for _, it := range blk {
			seps = append(seps, it.Key)
		}
	}
	if len(seps) != len(nd.kids) {
		panic(fmt.Sprintf("dict: snapshot node has %d separators for %d children", len(seps), len(nd.kids)))
	}
	sc.seps = seps
	return seps, reads
}

// Get answers one point lookup against the snapshot: the value associated
// with key at capture time, whether it was present, and the number of
// blocks read. sc may be nil (scratch is then allocated per call); pass a
// pooled GetScratch to make the steady state allocation-free.
func (s *TreeSnapshot) Get(r BlockReader, key int64, sc *GetScratch) (value int64, ok bool, reads int64) {
	if sc == nil {
		sc = NewGetScratch(s.b)
	}
	var best int64 // packed Aux of the winning update; 0 = none seen
	// The staged root tail holds the newest updates in the snapshot and
	// costs no I/O to scan; a hit here answers the lookup outright.
	for _, it := range s.stage {
		if it.Key == key && entrySeq(it.Aux) > entrySeq(best) {
			best = it.Aux
		}
	}
	if best != 0 {
		if entryKind(best) == Insert {
			return entryValue(best), true, 0
		}
		return 0, false, 0
	}
	nd := &s.root
	for {
		// Scan this node's pending updates (and, at a leaf, its run) for
		// the key; within one node the largest sequence number wins.
		for _, c := range [2]*snapChain{&nd.buf, &nd.run} {
			for _, a := range c.addrs {
				blk := r.ReadBlock(a, sc.frame)
				reads++
				for _, it := range blk {
					if it.Key == key && entrySeq(it.Aux) > entrySeq(best) {
						best = it.Aux
					}
				}
			}
		}
		// A hit at this level ends the descent: entries only move DOWN the
		// tree (buffer flushes route all of a key's buffered entries to one
		// child together), so anything for this key in a descendant is
		// strictly older than a match found here. This is what makes hot
		// keys cheap — they resolve in the root buffer without paying the
		// full root-to-leaf scan.
		if best != 0 || nd.isLeaf() {
			break
		}
		seps, n := readSnapSeps(r, nd, sc)
		reads += n
		nd = nd.kids[route(seps, key)]
	}
	if best != 0 && entryKind(best) == Insert {
		return entryValue(best), true, reads
	}
	return 0, false, reads
}

// Range answers one range scan [lo, hi) against the snapshot: every live
// (key, value) pair in ascending key order, plus the number of blocks
// read. Its working memory is pooled, so a call allocates only its answer.
func (s *TreeSnapshot) Range(r BlockReader, lo, hi int64) (hits []Found, reads int64) {
	if hi <= lo {
		return nil, 0
	}
	l, reads := s.RangeLease(r, lo, hi)
	out := l.Hits()
	hits = append(make([]Found, 0, len(out)), out...)
	l.Release()
	return hits, reads
}

// RangeLease is a range answer held in pooled working memory: Hits is
// valid until Release, after which the memory serves other scans. A
// caller assembling several answers into one (dictsrv's cross-shard scan)
// holds their leases and copies each once.
type RangeLease struct{ rs *rangeScan }

// Hits returns the leased answer, in ascending key order.
func (l RangeLease) Hits() []Found {
	if l.rs == nil {
		return nil
	}
	return l.rs.out
}

// Release returns the lease's working memory to the pool.
func (l RangeLease) Release() {
	if l.rs != nil {
		putRangeScan(l.rs)
	}
}

// RangeLease answers one range scan [lo, hi) like Range, into pooled
// memory the caller must Release; it allocates nothing in steady state.
// Every block read happens before it returns.
//
// Leaf runs hold one entry per key and are visited left to right, so
// their in-range entries arrive already in key order. Buffered and staged
// entries are collected separately and sorted by key; one merge of the two
// lists then picks each key's highest-sequence entry and drops tombstones.
func (s *TreeSnapshot) RangeLease(r BlockReader, lo, hi int64) (lease RangeLease, reads int64) {
	if hi <= lo {
		return RangeLease{}, 0
	}
	rs := takeRangeScan()
	if len(rs.sc.frame) < s.b {
		rs.sc = *NewGetScratch(s.b)
	}
	rs.r, rs.lo, rs.hi, rs.reads = r, lo, hi, 0
	rs.pend = rs.keep(rs.pend[:0], s.stage)
	rs.run = rs.run[:0]
	rs.walk(&s.root)
	// Key order is enough: the merge below picks the highest sequence
	// among equal keys itself.
	rs.pend, rs.tmp = sortByKey(rs.pend, rs.tmp, lo, uint64(hi)-uint64(lo))

	pend, run, out := rs.pend, rs.run, rs.out[:0]
	for len(pend) > 0 || len(run) > 0 {
		var win int64 // packed Aux of the winner
		var k int64
		if len(run) > 0 && (len(pend) == 0 || run[0].Key <= pend[0].Key) {
			k, win = run[0].Key, run[0].Aux
			run = run[1:]
		} else {
			k = pend[0].Key
		}
		for ; len(pend) > 0 && pend[0].Key == k; pend = pend[1:] {
			if entrySeq(pend[0].Aux) > entrySeq(win) {
				win = pend[0].Aux
			}
		}
		if entryKind(win) == Insert {
			out = append(out, Found{Key: k, Value: entryValue(win)})
		}
	}
	rs.out, rs.r = out, nil
	return RangeLease{rs}, rs.reads
}

// rangeScan is the working state of one Range call: the in-range buffered
// entries (pend, unordered until sorted, with tmp as the sort's second
// buffer), the in-range leaf-run entries (run, in key order) and the
// answer being merged (out). Calls recycle it through rangeSlots.
type rangeScan struct {
	r         BlockReader
	lo, hi    int64
	sc        GetScratch
	pend, run []aem.Item
	tmp       []aem.Item
	out       []Found
	reads     int64
}

// rangeSlots parks idle range working memory: takeRangeScan swaps a
// rangeScan out of the first occupied slot, and putRangeScan parks one in
// the first empty slot, dropping it when all are full. Unlike a sync.Pool
// the slots keep their items across garbage collections, so a workload
// that collects several times between two scans does not regrow their
// arrays each time. There are two slots per P (GOMAXPROCS at start-up),
// and at least 8: room for the readers that run at once and a cross-shard
// scan's several leases. A reader that finds every slot empty allocates,
// as a sync.Pool miss does. The slots share cache lines, which costs a
// scan, hundreds of items long, little; point lookups pool their smaller
// scratch per P instead (see dictsrv).
var rangeSlots = make([]atomic.Pointer[rangeScan], max(8, 2*runtime.GOMAXPROCS(0)))

func takeRangeScan() *rangeScan {
	for i := range rangeSlots {
		if rs := rangeSlots[i].Swap(nil); rs != nil {
			return rs
		}
	}
	return new(rangeScan)
}

func putRangeScan(rs *rangeScan) {
	for i := range rangeSlots {
		if rangeSlots[i].CompareAndSwap(nil, rs) {
			return
		}
	}
}

// keep appends the items of blk that fall in [lo, hi) to dst.
func (rs *rangeScan) keep(dst, blk []aem.Item) []aem.Item {
	for _, it := range blk {
		if rs.lo <= it.Key && it.Key < rs.hi {
			dst = append(dst, it)
		}
	}
	return dst
}

// scan reads every block of c, keeping its in-range items in dst.
func (rs *rangeScan) scan(dst []aem.Item, c *snapChain) []aem.Item {
	for _, a := range c.addrs {
		dst = rs.keep(dst, rs.r.ReadBlock(a, rs.sc.frame))
		rs.reads++
	}
	return dst
}

func (rs *rangeScan) walk(nd *snapNode) {
	rs.pend = rs.scan(rs.pend, &nd.buf)
	rs.run = rs.scan(rs.run, &nd.run)
	if nd.isLeaf() {
		return
	}
	seps, n := readSnapSeps(rs.r, nd, &rs.sc)
	rs.reads += n
	// Recurse into every child whose interval intersects [lo, hi).
	// Separator keys live in sc.seps, which the recursion reuses, so
	// the child indexes are resolved before descending.
	first := route(seps, rs.lo)
	last := route(seps, rs.hi-1)
	for _, kid := range nd.kids[first : last+1] {
		rs.walk(kid)
	}
}

// sortByKey orders items, whose keys all lie in [lo, lo+span), by key: an
// LSD radix sort on the key's offset from lo, one byte per pass and only
// as many passes as span needs. It returns the sorted items and the other
// buffer, to be passed back as tmp next time.
func sortByKey(items, tmp []aem.Item, lo int64, span uint64) (sorted, spare []aem.Item) {
	if cap(tmp) < len(items) {
		tmp = make([]aem.Item, len(items))
	}
	tmp = tmp[:len(items)]
	for shift := uint(0); shift < 64 && (span-1)>>shift > 0; shift += 8 {
		var count [257]int
		for _, it := range items {
			count[(uint64(it.Key)-uint64(lo))>>shift&0xff+1]++
		}
		for i := 1; i < len(count); i++ {
			count[i] += count[i-1]
		}
		for _, it := range items {
			b := (uint64(it.Key) - uint64(lo)) >> shift & 0xff
			tmp[count[b]] = it
			count[b]++
		}
		items, tmp = tmp, items
	}
	return items, tmp
}
