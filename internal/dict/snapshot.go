package dict

import (
	"fmt"
	"sync"

	"repro/internal/aem"
)

// This file is the buffer tree's snapshot read path: a structurally
// captured, immutable view of the tree that answers Lookups and RangeScans
// without touching the live tree or its machine. Snapshots are what let a
// concurrent serving layer (internal/dictsrv) run readers against a stable
// state while a background flush or rebuild rewrites the live structure.
//
// The capture is cheap and I/O-free because the tree's chains are
// append-only: blocks are written whole at freshly allocated addresses and
// never rewritten in place, and addresses are never reused. A chain's
// address list therefore only grows at its end, loses a prefix, or is
// replaced outright, so a capture can share the live list instead of
// copying it: it holds the clipped slice addrs[:len:len], and the live
// chain drops (rather than reuses) an array a capture shares when it is
// reset. The staged root tail is shared the same way. Sharing is
// path-copying persistence (Driscoll, Sarnak, Sleator and Tarjan, 1989):
// each node keeps its last capture, and a new capture reuses it unless the
// node's chains or some child's capture changed since, so a publish
// allocates only for the nodes the updates since the last one touched.
// The node topology and separator-block addresses are program knowledge
// and never change for a live node; later updates only append blocks at
// new addresses or abandon old ones — they can never change the contents
// behind a captured address.
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
// allocates and writes new blocks; the dictsrv locked-storage wrapper is
// the canonical implementation.
type BlockReader interface {
	ReadBlock(a aem.Addr, dst []aem.Item) []aem.Item
}

// snapChain is one captured chain: the block addresses as of capture,
// sharing the live chain's array (clipped, so it can never grow into it).
type snapChain struct {
	addrs []aem.Addr
	n     int
}

// capture returns the chain's current state and marks its array shared.
func (c *chain) capture() snapChain {
	if len(c.addrs) == 0 {
		return snapChain{}
	}
	c.shared = true
	return snapChain{addrs: c.addrs[:len(c.addrs):len(c.addrs)], n: c.n}
}

// same reports whether the live chain still holds exactly the captured
// blocks. Addresses are never reused, so a chain's first address names
// one append-only stretch of its life (a reset, a prefix detach or a
// replaced run all change it); within that stretch the block count and
// item count pin the contents.
func (sc *snapChain) same(c *chain) bool {
	return sc.n == c.n && len(sc.addrs) == len(c.addrs) &&
		(len(c.addrs) == 0 || sc.addrs[0] == c.addrs[0])
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
type TreeSnapshot struct {
	b     int   // block size of the capturing machine
	seq   int64 // update sequence watermark at capture
	root  *snapNode
	stage []aem.Item // the staged root tail, shared with the tree (EnableTailStaging)
}

// Snapshot captures the tree's current state — no I/O, no locks. Only the
// nodes whose chains changed since the previous capture (and their
// ancestors) get a new snapNode; the rest are reused, and chains and the
// staged tail are shared with the live tree rather than copied. Capturing
// writes the nodes' cached captures and the chains' sharing marks, so it
// must be called from the same goroutine that applies updates (the tree
// is not internally synchronized). The returned snapshot reflects exactly
// the updates applied before the call.
func (t *BufferTree) Snapshot() *TreeSnapshot {
	s := &TreeSnapshot{b: t.cfg.B, seq: t.seq, root: t.capture(t.top)}
	if n := len(t.stage); n > 0 {
		s.stage = t.stage[:n:n]
		t.stageShared = true
	}
	return s
}

// capture returns the node's capture, reusing the cached one when the
// node's chains and every child's capture are unchanged. A reuse
// allocates nothing.
func (t *BufferTree) capture(nd *btnode) *snapNode {
	prev := nd.snap
	reuse := prev != nil && prev.buf.same(&nd.buf) && prev.run.same(&nd.run)
	var kids []*snapNode
	if !reuse && !nd.isLeaf() {
		kids = make([]*snapNode, len(nd.kids))
	}
	for i, kid := range nd.kids {
		k := t.capture(kid)
		if reuse && k != prev.kids[i] {
			kids = make([]*snapNode, len(nd.kids))
			copy(kids, prev.kids[:i])
			reuse = false
		}
		if kids != nil {
			kids[i] = k
		}
	}
	if reuse {
		return prev
	}
	nd.snap = &snapNode{
		kids:      kids,
		sepBase:   nd.sepBase,
		sepBlocks: nd.sepBlocks,
		buf:       nd.buf.capture(),
		run:       nd.run.capture(),
	}
	return nd.snap
}

// Seq returns the tree's update-sequence watermark at capture time.
func (s *TreeSnapshot) Seq() int64 { return s.seq }

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

// routeSeps is route() without the sort.Search closure, so the lookup
// path stays allocation-free. Child i covers [seps[i], seps[i+1]), with
// seps[0] acting as -∞ and the last interval open-ended.
func routeSeps(seps []int64, k int64) int {
	i := 0
	for i+1 < len(seps) && k >= seps[i+1] {
		i++
	}
	return i
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
	nd := s.root
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
		nd = nd.kids[routeSeps(seps, key)]
	}
	if best != 0 && entryKind(best) == Insert {
		return entryValue(best), true, reads
	}
	return 0, false, reads
}

// Range answers one range scan [lo, hi) against the snapshot: every live
// (key, value) pair in ascending key order, plus the number of blocks
// read. Its working memory is pooled, so a call allocates only its answer.
//
// Leaf runs hold one entry per key and are visited left to right, so
// their in-range entries arrive already in key order. Buffered and staged
// entries are collected separately and sorted by key; one merge of the two
// lists then picks each key's highest-sequence entry and drops tombstones.
func (s *TreeSnapshot) Range(r BlockReader, lo, hi int64) (hits []Found, reads int64) {
	if hi <= lo {
		return nil, 0
	}
	rs := rangePool.Get().(*rangeScan)
	defer rangePool.Put(rs)
	if len(rs.sc.frame) < s.b {
		rs.sc = *NewGetScratch(s.b)
	}
	rs.r, rs.lo, rs.hi, rs.reads = r, lo, hi, 0
	rs.pend = rs.keep(rs.pend[:0], s.stage)
	rs.run = rs.run[:0]
	rs.walk(s.root)
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
	return append(make([]Found, 0, len(out)), out...), rs.reads
}

// rangeScan is the working state of one Range call: the in-range buffered
// entries (pend, unordered until sorted, with tmp as the sort's second
// buffer), the in-range leaf-run entries (run, in key order) and the
// answer being merged (out). Calls recycle it through rangePool.
type rangeScan struct {
	r         BlockReader
	lo, hi    int64
	sc        GetScratch
	pend, run []aem.Item
	tmp       []aem.Item
	out       []Found
	reads     int64
}

var rangePool = sync.Pool{New: func() any { return new(rangeScan) }}

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
	first := routeSeps(seps, rs.lo)
	last := routeSeps(seps, rs.hi-1)
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
