package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/harness"
)

// WorkerConfig configures one leased worker.
type WorkerConfig struct {
	URL  string // coordinator base URL, e.g. http://127.0.0.1:8377
	Par  int    // concurrent points per lease (≥ 1)
	Name string // reported in lease requests; defaults to host:pid

	// Resolve maps the coordinator's experiment IDs to specs. Nil means
	// the binary's own registry (harness.Resolve) — tests inject
	// synthetic selections here.
	Resolve func(ids []string) ([]*harness.Spec, error)

	Log io.Writer // optional progress log
}

// Work runs the leased-worker loop against a coordinator: fetch the run
// manifest, verify this binary enumerates the same grids, then lease
// points, measure them on the shared runJobs substrate, and stream each
// record back as it completes — every upload doubles as the lease's
// heartbeat. Returns nil once the coordinator reports the run complete.
//
// Worker death needs no cleanup path here: an abandoned lease simply
// expires on the coordinator and its points are re-issued. Cancelling
// ctx makes this worker die the same way — uploads stop and the loop
// returns — which is also how tests inject mid-run worker kills.
func Work(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Par < 1 {
		cfg.Par = 1
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		cfg.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	resolve := cfg.Resolve
	if resolve == nil {
		resolve = harness.Resolve
	}
	client := &client{base: cfg.URL, http: &http.Client{Timeout: 60 * time.Second}}

	// The coordinator may still be starting (CI launches both at once):
	// retry the first fetch over a few seconds before giving up.
	var info RunInfo
	if err := client.getJSON(ctx, "/v1/run", &info, 20); err != nil {
		return fmt.Errorf("fleet worker: fetching run manifest: %w", err)
	}
	specs, err := resolve(info.Experiments)
	if err != nil {
		return fmt.Errorf("fleet worker: coordinator serves %w (registry drift)", err)
	}
	runner := harness.NewPointRunner(specs)
	if runner.Total() != info.GridPoints {
		return fmt.Errorf("fleet worker: coordinator serves %d grid points, this binary enumerates %d (registry drift)", info.GridPoints, runner.Total())
	}
	logf(cfg.Log, "work: connected to %s — %d experiments, %d points", cfg.URL, len(specs), info.GridPoints)

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lr LeaseResponse
		if err := client.postJSON(ctx, "/v1/lease", LeaseRequest{Worker: cfg.Name}, &lr); err != nil {
			return fmt.Errorf("fleet worker: lease: %w", err)
		}
		if lr.Done {
			logf(cfg.Log, "work: run complete")
			return nil
		}
		if len(lr.Points) == 0 {
			backoff := time.Duration(lr.RetryMS) * time.Millisecond
			if backoff <= 0 {
				backoff = retryBackoff
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			continue
		}

		logf(cfg.Log, "work: lease %d — %d point(s)", lr.Lease, len(lr.Points))
		done := false
		err := runner.Run(lr.Points, cfg.Par, func(rec harness.PointRecord) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			var resp RecordsResponse
			if err := client.postRecord(ctx, lr.Lease, rec, &resp); err != nil {
				return err
			}
			if resp.Done {
				done = true
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("fleet worker: lease %d: %w", lr.Lease, err)
		}
		if done {
			logf(cfg.Log, "work: run complete")
			return nil
		}
	}
}

func logf(w io.Writer, format string, args ...interface{}) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// client is a minimal JSON-over-HTTP client with transient-error
// retries: a refused connection or torn response is retried with a
// short backoff, an HTTP error status is not (the coordinator rejected
// the request for a reason retrying cannot fix).
type client struct {
	base string
	http *http.Client
}

func (c *client) getJSON(ctx context.Context, path string, out interface{}, attempts int) error {
	return c.do(ctx, http.MethodGet, path, nil, out, attempts)
}

func (c *client) postJSON(ctx context.Context, path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, path, body, out, 5)
}

func (c *client) postRecord(ctx context.Context, leaseID int, rec harness.PointRecord, out interface{}) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/records?lease=%d", leaseID), body, out, 5)
}

func (c *client) do(ctx context.Context, method, path string, body []byte, out interface{}, attempts int) error {
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(retryBackoff):
			}
		}
		var rdr io.Reader
		if body != nil {
			rdr = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rdr)
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
		}
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			lastErr = fmt.Errorf("%s %s: torn response: %v", method, path, err)
			continue
		}
		return nil
	}
	return lastErr
}
