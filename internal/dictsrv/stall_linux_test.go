package dictsrv

import (
	"runtime"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/aem"
	"repro/internal/bounds"
	"repro/internal/dict"
	"repro/internal/workload"
)

// Linux clock ids for clock_gettime.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// cpuClock reads the CPU time of the calling thread or of the process, in
// nanoseconds.
func cpuClock(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return ts.Nano()
}

func threadCPUNow() int64 { return cpuClock(clockThreadCPUTime) }

// TestDeamortizedStallAcceptance is the acceptance criterion for the
// deamortization arc, run at EXP-L3's drift/ω=16 point: the debt-queue
// commit path must cut the worst commit-path stall by at least an order
// of magnitude against run-to-completion cascades, in the commit's own
// CPU time and in model cost, and without giving up throughput.
//
// The stall is timed in the leading thread's CPU time, not wall clock:
// beside the other packages' test binaries, as `go test ./...` runs them,
// the writer loses its vCPU mid-batch and the wall-clock stall swings by
// an order of magnitude while Q stays fixed. One writer drives the stream
// on this goroutine, locked to its thread, so every commit batch is led
// and timed there. Throughput is measured in process CPU time, retirer
// included, for the same reason. The wall-clock figures go to the log;
// CI's `aem gate` stall check holds the wall-clock line on a run alone.
func TestDeamortizedStallAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("drives two full EXP-L3 points")
	}
	const (
		shards   = 2
		nOps     = 160000
		keyspace = 65536
		seed     = 20170724 + 42 // EXP-L3's seed
	)
	machine := aem.Config{M: 1024, B: 32, Omega: 16}
	ops := workload.DictStreams(seed, workload.DriftOps, 1, nOps, keyspace)[0]
	type result struct {
		st              Stats
		wallNS, cpuNS   int64
		worstWriteNS    int64
		opsPerCPUSecond float64
	}
	run := func(deam bool) result {
		svc, err := New(Config{Shards: shards, Machine: machine, KeyHi: keyspace, Deamortize: deam})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		svc.stallClock = threadCPUNow
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var res result
		wall, cpu := time.Now(), cpuClock(clockProcessCPUTime)
		for _, op := range ops {
			var ns int64
			switch op.Kind {
			case dict.Insert:
				ns = svc.Put(op.Key, op.Value).LatencyNS
			case dict.Delete:
				ns = svc.Delete(op.Key).LatencyNS
			case dict.Lookup:
				svc.Get(op.Key)
			case dict.RangeScan:
				svc.Scan(op.Key, op.Hi)
			}
			res.worstWriteNS = max(res.worstWriteNS, ns)
		}
		res.wallNS, res.cpuNS = time.Since(wall).Nanoseconds(), cpuClock(clockProcessCPUTime)-cpu
		res.opsPerCPUSecond = float64(len(ops)) / (float64(res.cpuNS) / 1e9)
		svc.Flush()
		res.st = svc.Stats()
		return res
	}
	a, d := run(false), run(true)
	ast, dst := a.st, d.st
	t.Logf("worst stall CPU: amortized %.3fms, deamortized %.3fms", float64(ast.MaxStallNS)/1e6, float64(dst.MaxStallNS)/1e6)
	t.Logf("worst stall Q: amortized %d, deamortized %d", ast.MaxStallQ, dst.MaxStallQ)
	t.Logf("wall clock: amortized %.0fms, worst write %.3fms; deamortized %.0fms, worst write %.3fms",
		float64(a.wallNS)/1e6, float64(a.worstWriteNS)/1e6, float64(d.wallNS)/1e6, float64(d.worstWriteNS)/1e6)
	t.Logf("throughput per process CPU second: amortized %.0f, deamortized %.0f", a.opsPerCPUSecond, d.opsPerCPUSecond)

	if ast.MaxStallNS == 0 || dst.MaxStallNS == 0 {
		t.Fatalf("stall telemetry missing: amortized %d ns, deamortized %d ns", ast.MaxStallNS, dst.MaxStallNS)
	}
	if dst.MaxStallNS*10 > ast.MaxStallNS {
		t.Errorf("worst stall CPU time not reduced ≥10×: amortized %.3fms vs deamortized %.3fms",
			float64(ast.MaxStallNS)/1e6, float64(dst.MaxStallNS)/1e6)
	}
	// The same claim in the paper's currency: the worst batch's tree work
	// priced as Q = reads + ω·writes, which no scheduler can inflate.
	if ast.MaxStallQ == 0 || dst.MaxStallQ == 0 {
		t.Fatalf("stall Q telemetry missing: amortized %d, deamortized %d", ast.MaxStallQ, dst.MaxStallQ)
	}
	if dst.MaxStallQ*10 > ast.MaxStallQ {
		t.Errorf("worst stall Q not reduced ≥10×: amortized %d vs deamortized %d", ast.MaxStallQ, dst.MaxStallQ)
	}
	// Each mode's measured worst stall stays within EXP-L3's predicted
	// worst pause at this point. Sharding splits the op stream and the
	// live keys roughly evenly, and drift is ~3/4 updates.
	p := bounds.DictParams{
		Params:   bounds.Params{N: nOps / shards, Cfg: machine},
		Updates:  nOps * 3 / 4 / shards,
		Keyspace: keyspace / shards,
	}
	for _, m := range []struct {
		mode string
		q    int64
		pred bounds.PredictedIO
	}{
		{"amortized", ast.MaxStallQ, bounds.DictAmortizedStallPredicted(p)},
		{"deamortized", dst.MaxStallQ, bounds.DictDeamortizedStallPredicted(p)},
	} {
		if want := m.pred.Cost(machine.Omega); float64(m.q) > want {
			t.Errorf("%s worst stall Q %d exceeds the predicted %.0f", m.mode, m.q, want)
		}
	}
	if d.opsPerCPUSecond < 0.7*a.opsPerCPUSecond {
		t.Errorf("deamortized throughput collapsed: %.0f ops per CPU second vs amortized %.0f",
			d.opsPerCPUSecond, a.opsPerCPUSecond)
	}
	if dst.DebtHighWater == 0 {
		t.Error("deamortized run recorded no debt high-water mark")
	}
}
