package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// This file is the wire format of every point stream. A stream is one
// JSON Lines file: a manifest line naming the run, then one
// self-describing record per grid point, in whatever order the points
// finished. The records carry everything the merge path needs to
// reassemble the exact tables an unsharded run emits — raw row values
// (for re-running derived/summary columns over the full merged grid),
// pre-rendered cells (so value formatting happens exactly once, on the
// worker that measured the point), panic info (so failure aggregation
// survives the merge), and the point's wall-clock.
//
// Every distributed path produces the same stream from a list of
// GridRefs: `aem bench -shard i/m` streams the round-robin slice of the
// global point list, `aem work -residual` streams a ResidualSpec's
// missing points, and the `aem serve` coordinator streams whatever its
// leased workers send back. MergeShards does not care which: it fills
// the grid point by point and reports any hole as an IncompleteError,
// whose ResidualSpec resumes a lost shard exactly like an interrupted
// fleet.

// ShardManifest is the first line of every point stream: which run the
// stream belongs to. Merge checks every file against it — streams from
// different selections or registry versions are rejected instead of
// silently producing a wrong table. Older streams also carry
// shard/of/residual fields; decoding ignores them.
type ShardManifest struct {
	Type        string   `json:"type"` // "shard"
	Experiments []string `json:"experiments"`
	GridPoints  int      `json:"grid_points"` // global point count across all experiments
}

// GridRef names one grid point globally: an experiment ID plus the
// point's index in that experiment's grid enumeration. It is the unit
// every point stream is built from: a static shard's slice, a fleet
// lease, a ResidualSpec's missing list.
type GridRef struct {
	Experiment string `json:"experiment"`
	Index      int    `json:"index"`
}

// ResidualSpec is the machine-readable remainder of an interrupted run:
// every grid point the merged partial outputs are missing, across all
// specs, plus enough of the original run's identity (selection and
// global grid size) for the resume to detect registry drift. `aem merge
// -residual` writes one when the stream set is incomplete; `aem work
// -residual` runs exactly these points and emits one more point stream,
// so resume is one command.
type ResidualSpec struct {
	Type        string    `json:"type"` // "residual"
	Experiments []string  `json:"experiments"`
	GridPoints  int       `json:"grid_points"`
	Missing     []GridRef `json:"missing"`
}

// WriteResidual writes the spec as indented JSON.
func (rs *ResidualSpec) WriteResidual(w io.Writer) error {
	raw, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// ReadResidualSpec parses a residual spec written by WriteResidual.
func ReadResidualSpec(r io.Reader) (*ResidualSpec, error) {
	var rs ResidualSpec
	if err := json.NewDecoder(r).Decode(&rs); err != nil {
		return nil, fmt.Errorf("residual spec: %v", err)
	}
	if rs.Type != "residual" {
		return nil, fmt.Errorf("residual spec: type %q, want %q", rs.Type, "residual")
	}
	if len(rs.Missing) == 0 {
		return nil, fmt.Errorf("residual spec: no missing points listed")
	}
	return &rs, nil
}

// PointRecord is one grid point's result. Points is the experiment's
// total grid size, a per-record consistency check against the merging
// binary's own grid enumeration. Row is the raw measurement row — JSON
// round-tripping decodes its numbers as float64, which the derived-column
// machinery (toFloat) accepts losslessly for every measurement the
// simulator produces. A panicked point carries the panic message instead
// of row and cells.
type PointRecord struct {
	Type       string        `json:"type"` // "point"
	Experiment string        `json:"experiment"`
	Index      int           `json:"index"`  // grid index within the experiment
	Points     int           `json:"points"` // the experiment's total grid points
	Row        []interface{} `json:"row,omitempty"`
	Cells      []string      `json:"cells,omitempty"`
	Panic      string        `json:"panic,omitempty"`
	WallNS     int64         `json:"wall_ns"`
}

// ShardFile is one parsed shard output.
type ShardFile struct {
	Manifest ShardManifest
	Records  []PointRecord
}

// ReadShardFile parses one shard's JSON Lines output.
func ReadShardFile(r io.Reader) (*ShardFile, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var sf *ShardFile
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var kind struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &kind); err != nil {
			return nil, fmt.Errorf("shard line %d: %v", line, err)
		}
		switch kind.Type {
		case "shard":
			if sf != nil {
				return nil, fmt.Errorf("shard line %d: second manifest in one file", line)
			}
			sf = &ShardFile{}
			if err := json.Unmarshal(raw, &sf.Manifest); err != nil {
				return nil, fmt.Errorf("shard line %d: %v", line, err)
			}
		case "point":
			if sf == nil {
				return nil, fmt.Errorf("shard line %d: point record before the shard manifest", line)
			}
			var rec PointRecord
			if err := json.Unmarshal(raw, &rec); err != nil {
				return nil, fmt.Errorf("shard line %d: %v", line, err)
			}
			sf.Records = append(sf.Records, rec)
		default:
			return nil, fmt.Errorf("shard line %d: unknown record type %q", line, kind.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if sf == nil {
		return nil, fmt.Errorf("not a shard file: no manifest record")
	}
	return sf, nil
}
