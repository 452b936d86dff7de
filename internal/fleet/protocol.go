// Package fleet is the elastic remote executor: an HTTP coordinator
// (`aem serve`) that leases grid points to workers (`aem work -connect`)
// and ingests the PointRecords they stream back, writing one point
// stream that `aem merge` turns into the exact tables an unsharded run
// emits.
//
// The design extends the harness's model/machine split: the grid is
// still the model, and here the machine is a fleet whose membership can
// change mid-run. Three production failure modes are handled in the
// coordinator's lease table:
//
//   - worker death: a lease not renewed within its TTL expires and its
//     unfinished points return to the queue for the next worker;
//   - stragglers: once the queue drains, idle workers are speculatively
//     re-leased the points still outstanding on live leases — the first
//     complete record wins and later copies are discarded;
//   - interrupts: the output stream is written record by record as
//     results arrive, so an interrupted coordinator leaves a valid
//     partial shard file behind; `aem merge -residual` distills the
//     missing points into a ResidualSpec and `aem work -residual`
//     finishes them without a coordinator.
//
// The wire format is deliberately the harness's own: the payload of
// every record POST is the same JSON Lines PointRecord a static shard
// writes, and both are measured and validated by harness.PointRunner,
// so the fleet cannot drift from the sharded path.
package fleet

import "repro/internal/harness"

// Protocol endpoints, all rooted at the coordinator's address:
//
//	GET  /v1/run             → RunInfo        (what is being computed)
//	POST /v1/lease           → LeaseResponse  (a batch of points to run)
//	POST /v1/records?lease=N → RecordsResponse (JSON Lines PointRecords in)

// RunInfo describes the coordinator's run. Workers resolve the
// experiments against their own registry and re-enumerate the grids; a
// grid-size mismatch means the binaries drifted and the worker must not
// contribute records.
type RunInfo struct {
	Experiments []string `json:"experiments"`
	GridPoints  int      `json:"grid_points"`
}

// LeaseRequest identifies the requesting worker (diagnostics only).
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse carries one lease: a batch of grid points to run and
// stream back before the TTL runs out. Done means every point of the
// run is accounted for and the worker should exit. RetryMS, when set,
// asks the worker to back off and ask again (no work to hand out right
// now, but the run is not finished).
type LeaseResponse struct {
	Lease   int               `json:"lease"`
	Points  []harness.GridRef `json:"points"`
	TTLMS   int64             `json:"ttl_ms"`
	Done    bool              `json:"done"`
	RetryMS int64             `json:"retry_ms,omitempty"`
}

// RecordsResponse acknowledges a record upload. Duplicates counts
// records for points some other worker delivered first — harmless, the
// copies are discarded. Done tells the uploader the whole run is
// complete so it can exit without another lease round-trip.
type RecordsResponse struct {
	Accepted   int  `json:"accepted"`
	Duplicates int  `json:"duplicates"`
	Done       bool `json:"done"`
}
