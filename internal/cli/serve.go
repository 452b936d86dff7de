package cli

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
)

// serveCmd runs the fleet coordinator: it enumerates the selection's
// global point list, leases point batches to `aem work -connect` workers
// over HTTP, ingests the PointRecords they stream back (first complete
// record per point wins; speculative and post-expiry duplicates are
// discarded), and writes the accepted records as one point stream — the
// same format `aem bench -shard` and `aem work -residual` write — that
// `aem merge` renders into the usual tables.
//
//	aem serve -addr 127.0.0.1:8377 -o fleet.jsonl     serve every experiment
//	aem serve -exp EXP-D1,EXP-Q1 -o fleet.jsonl       serve a selection
//	aem merge fleet.jsonl                              render the finished run
//
// Worker death is absorbed by lease expiry (-lease-ttl): an unrenewed
// lease's points return to the queue. Stragglers are absorbed by
// speculation: when the queue drains, idle workers re-run outstanding
// points. On SIGINT/SIGTERM the partial output is flushed and kept —
// `aem merge -residual rest.json fleet.jsonl` then writes the resume
// spec for `aem work -residual`.
func serveCmd(prog string, args []string) int {
	fs := flag.NewFlagSet(prog, flag.ExitOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:8377", "address to listen on")
		expIDs  = fs.String("exp", "all", "comma-separated experiment ids to serve, or 'all'")
		outPath = fs.String("o", "", "record stream output file ('-' or empty for stdout)")
		ttl     = fs.Duration("lease-ttl", 15*time.Second, "lease expiry: a worker silent this long forfeits its points")
		chunk   = fs.Int("chunk", 8, "grid points per lease")
		linger  = fs.Duration("linger", 3*time.Second, "how long to keep answering done-polls after the run completes")
		quiet   = fs.Bool("q", false, "suppress progress logging")
	)
	fs.Parse(args)

	specs, warnings, err := harness.Select(*expIDs)
	for _, w := range warnings {
		fail(prog, "warning: %s", w)
	}
	if err != nil {
		fail(prog, "%v", err)
		return 2
	}

	out := os.Stdout
	if *outPath != "" && *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			fail(prog, "%v", err)
			return 1
		}
		defer f.Close()
		out = f
	}
	var logw = os.Stderr
	if *quiet {
		logw = nil
	}

	c, err := fleet.New(fleet.Config{
		Specs: specs, Out: out, LeaseTTL: *ttl, Chunk: *chunk,
		Log: logWriter(logw),
	})
	if err != nil {
		fail(prog, "%v", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(prog, "%v", err)
		return 1
	}
	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	_, total := c.Progress()
	fmt.Fprintf(os.Stderr, "%s: serving %d grid points across %d experiments on %s\n", prog, total, len(specs), ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case <-c.Done():
		// Let workers still polling (or mid-upload on a lost speculative
		// race) observe completion before the listener goes away.
		time.Sleep(*linger)
		if err := c.Flush(); err != nil {
			fail(prog, "%v", err)
			return 1
		}
		filled, total := c.Progress()
		fmt.Fprintf(os.Stderr, "%s: complete — %d/%d points recorded\n", prog, filled, total)
		if failed := c.Failed(); failed > 0 {
			fail(prog, "%d point(s) panicked; the failures are recorded in the output and will surface at merge", failed)
			return 1
		}
		return 0
	case <-c.Fatal():
		fail(prog, "output stream failed: %v", c.Flush())
		return 1
	case s := <-sig:
		if err := c.Flush(); err != nil {
			fail(prog, "flushing partial output: %v", err)
		}
		filled, total := c.Progress()
		fail(prog, "%v: interrupted with %d/%d points recorded; resume with `aem merge -residual rest.json %s` then `aem work -residual rest.json`",
			s, filled, total, outName(*outPath))
		return 1
	}
}

// outName renders the output path for the resume hint.
func outName(path string) string {
	if path == "" || path == "-" {
		return "<output>"
	}
	return path
}

// logWriter narrows an *os.File to the nil interface the fleet expects
// when logging is off (a typed-nil *os.File is not a nil io.Writer).
func logWriter(f *os.File) interface{ Write([]byte) (int, error) } {
	if f == nil {
		return nil
	}
	return f
}
