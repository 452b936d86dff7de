package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/harness"
)

// Config configures a Coordinator.
type Config struct {
	Specs []*harness.Spec // the selection to run, in emission order
	Out   io.Writer       // record stream: manifest first, then accepted records

	// LeaseTTL bounds how long a worker may go silent before its lease
	// expires and its points are re-issued. Every record upload renews
	// the lease, so the TTL needs to cover one point's runtime, not a
	// whole lease. Zero means a conservative default.
	LeaseTTL time.Duration

	// Chunk is the number of points per lease. Small chunks spread a
	// heterogeneous grid evenly and shrink the re-run after a worker
	// death; zero means a small default.
	Chunk int

	Log io.Writer // optional progress log (worker joins, expiries, …)
}

const (
	defaultLeaseTTL = 15 * time.Second
	defaultChunk    = 8
	retryBackoff    = 200 * time.Millisecond
)

// lease is one outstanding batch of points.
type lease struct {
	id      int
	worker  string
	refs    []harness.GridRef
	expires time.Time
	issued  time.Time
}

// Coordinator owns the global point list of one run and the lease table
// distributing it. All state transitions happen under one mutex; the
// HTTP handlers are thin translations onto them, so the state machine is
// testable without a network.
type Coordinator struct {
	runner   *harness.PointRunner
	manifest harness.ShardManifest
	ttl      time.Duration
	chunk    int
	log      io.Writer

	mu        sync.Mutex
	out       *bufio.Writer
	enc       *json.Encoder
	queue     []harness.GridRef // unleased, unfilled points
	leases    map[int]*lease
	filled    map[harness.GridRef]bool
	nextLease int
	accepted  int
	failed    int // accepted records carrying a panic
	writeErr  error

	done      chan struct{}
	doneOnce  sync.Once
	fatal     chan struct{}
	fatalOnce sync.Once
}

// New enumerates the selection's grids, writes the stream manifest to
// cfg.Out, and returns a coordinator ready to serve leases. The output
// is one point stream: a completed run merges like any other stream
// set, an interrupted one is the partial input to `aem merge -residual`.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("fleet: no specs to serve")
	}
	if cfg.Out == nil {
		return nil, fmt.Errorf("fleet: no output writer")
	}
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	chunk := cfg.Chunk
	if chunk < 1 {
		chunk = defaultChunk
	}
	runner := harness.NewPointRunner(cfg.Specs)
	c := &Coordinator{
		runner:   runner,
		manifest: runner.Manifest(),
		ttl:      ttl,
		chunk:    chunk,
		log:      cfg.Log,
		out:      bufio.NewWriter(cfg.Out),
		queue:    runner.Refs(),
		leases:   map[int]*lease{},
		filled:   map[harness.GridRef]bool{},
		done:     make(chan struct{}),
		fatal:    make(chan struct{}),
	}
	c.enc = json.NewEncoder(c.out)
	if err := c.enc.Encode(c.manifest); err != nil {
		return nil, err
	}
	if err := c.out.Flush(); err != nil {
		return nil, err
	}
	if len(c.queue) == 0 {
		// Nothing to distribute (empty grids or every enumeration failed
		// deterministically — the merge step reproduces those failures).
		c.doneOnce.Do(func() { close(c.done) })
	}
	return c, nil
}

// Done is closed when every grid point has an accepted record.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Fatal is closed if the output stream fails to write — the run cannot
// make progress and the server should shut down (Flush reports the
// error).
func (c *Coordinator) Fatal() <-chan struct{} { return c.fatal }

// Progress returns accepted and total point counts.
func (c *Coordinator) Progress() (filledPoints, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.filled), c.manifest.GridPoints
}

// Failed returns how many accepted records carry a panic — the fleet
// analogue of a shard's failed-point exit code.
func (c *Coordinator) Failed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// Flush forces buffered records to the underlying writer and reports any
// deferred write error. Call before exiting, completed or not.
func (c *Coordinator) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.out.Flush(); err != nil && c.writeErr == nil {
		c.writeErr = err
	}
	return c.writeErr
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.log != nil {
		fmt.Fprintf(c.log, "serve: "+format+"\n", args...)
	}
}

// expireLocked returns every dead lease's unfilled points to the queue.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		var back []harness.GridRef
		for _, ref := range l.refs {
			if !c.filled[ref] {
				back = append(back, ref)
			}
		}
		delete(c.leases, id)
		if len(back) > 0 {
			c.queue = append(c.queue, back...)
			c.logf("lease %d (%s) expired, %d point(s) re-queued", id, l.worker, len(back))
		}
	}
}

// popLocked takes up to chunk distinct unfilled points off the queue.
func (c *Coordinator) popLocked() []harness.GridRef {
	var refs []harness.GridRef
	taken := map[harness.GridRef]bool{}
	for len(c.queue) > 0 && len(refs) < c.chunk {
		ref := c.queue[0]
		c.queue = c.queue[1:]
		if c.filled[ref] || taken[ref] {
			continue
		}
		taken[ref] = true
		refs = append(refs, ref)
	}
	return refs
}

// speculateLocked gathers unfilled points from outstanding leases,
// oldest lease first — the straggler defense: when the queue is empty
// but leases are still out, an idle worker re-runs the slowest points
// instead of going home; whichever copy reports first wins.
func (c *Coordinator) speculateLocked() []harness.GridRef {
	ids := make([]int, 0, len(c.leases))
	for id := range c.leases {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return c.leases[ids[i]].issued.Before(c.leases[ids[j]].issued) })
	var refs []harness.GridRef
	taken := map[harness.GridRef]bool{}
	for _, id := range ids {
		for _, ref := range c.leases[id].refs {
			if c.filled[ref] || taken[ref] || len(refs) >= c.chunk {
				continue
			}
			taken[ref] = true
			refs = append(refs, ref)
		}
	}
	return refs
}

// Lease implements the state transition behind POST /v1/lease.
func (c *Coordinator) Lease(worker string) LeaseResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()

	if len(c.filled) == c.manifest.GridPoints {
		return LeaseResponse{Done: true}
	}
	c.expireLocked(now)
	refs := c.popLocked()
	speculative := false
	if len(refs) == 0 {
		refs = c.speculateLocked()
		speculative = true
	}
	if len(refs) == 0 {
		// Every unfilled point is spoken for by leases that have not
		// expired and are fully speculated already — nothing sensible to
		// hand out; ask the worker to check back shortly.
		return LeaseResponse{RetryMS: retryBackoff.Milliseconds()}
	}
	c.nextLease++
	l := &lease{id: c.nextLease, worker: worker, refs: refs, issued: now, expires: now.Add(c.ttl)}
	c.leases[l.id] = l
	kind := ""
	if speculative {
		kind = " (speculative)"
	}
	c.logf("lease %d → %s: %d point(s)%s, %d/%d filled", l.id, worker, len(refs), kind, len(c.filled), c.manifest.GridPoints)
	return LeaseResponse{Lease: l.id, Points: refs, TTLMS: c.ttl.Milliseconds()}
}

// Ingest implements the state transition behind POST /v1/records: it
// validates each record against the coordinator's own grid enumeration,
// accepts the first record per point (writing it straight to the output
// stream), discards later copies, and renews the uploading lease. The
// error reports a malformed record — the upload's earlier records stay
// accepted.
func (c *Coordinator) Ingest(leaseID int, records []harness.PointRecord) (RecordsResponse, error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()

	var resp RecordsResponse
	if l, ok := c.leases[leaseID]; ok {
		l.expires = now.Add(c.ttl)
	}
	for i := range records {
		rec := &records[i]
		if err := c.runner.ValidateRecord(rec); err != nil {
			return resp, err
		}
		ref := harness.GridRef{Experiment: rec.Experiment, Index: rec.Index}
		if c.filled[ref] {
			resp.Duplicates++
			continue
		}
		if c.writeErr == nil {
			if err := c.enc.Encode(rec); err != nil {
				c.writeErr = err
			}
		}
		if c.writeErr != nil {
			c.fatalOnce.Do(func() { close(c.fatal) })
			return resp, c.writeErr
		}
		c.filled[ref] = true
		c.accepted++
		if rec.Panic != "" {
			c.failed++
		}
		resp.Accepted++
	}
	if err := c.out.Flush(); err != nil && c.writeErr == nil {
		c.writeErr = err
	}
	if c.writeErr != nil {
		c.fatalOnce.Do(func() { close(c.fatal) })
		return resp, c.writeErr
	}
	if len(c.filled) == c.manifest.GridPoints {
		resp.Done = true
		c.doneOnce.Do(func() { close(c.done) })
	}
	return resp, nil
}

// Handler returns the coordinator's HTTP surface.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, RunInfo{Experiments: c.manifest.Experiments, GridPoints: c.manifest.GridPoints})
	})
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req LeaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
			http.Error(w, fmt.Sprintf("lease request: %v", err), http.StatusBadRequest)
			return
		}
		writeJSON(w, c.Lease(req.Worker))
	})
	mux.HandleFunc("/v1/records", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		leaseID := 0
		fmt.Sscanf(r.URL.Query().Get("lease"), "%d", &leaseID)
		records, err := decodeRecords(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := c.Ingest(leaseID, records)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, resp)
	})
	return mux
}

// decodeRecords parses a JSON Lines upload of point records.
func decodeRecords(r io.Reader) ([]harness.PointRecord, error) {
	dec := json.NewDecoder(r)
	var records []harness.PointRecord
	for {
		var rec harness.PointRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("record upload: %v", err)
		}
		if rec.Type != "point" {
			return nil, fmt.Errorf("record upload: unexpected record type %q", rec.Type)
		}
		records = append(records, rec)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("record upload: no records in body")
	}
	return records, nil
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
