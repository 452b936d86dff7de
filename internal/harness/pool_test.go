package harness

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/aem"
	"repro/internal/rng"
)

// poolWorkload is a small data-bearing point: load, scan, write back,
// returning the accounting row a spec would.
func poolWorkload(ma *aem.Machine, n int) Row {
	items := make([]aem.Item, n)
	for i := range items {
		items[i] = aem.Item{Key: int64(n - i), Aux: int64(i)}
	}
	v := aem.Load(ma, items)
	out := aem.NewVector(ma, n)
	sc := v.NewScanner()
	w := out.NewWriter()
	for {
		it, ok := sc.Next()
		if !ok {
			break
		}
		w.Append(it)
	}
	sc.Close()
	w.Close()
	st := ma.Stats()
	return Row{st.Reads, st.Writes, ma.Cost(), ma.MemPeak(), ma.NumBlocks()}
}

// TestPooledMachineMatchesFresh runs the same workload on pooled and
// freshly constructed machines, interleaved so pool hits actually occur,
// and demands identical rows: pooling must be invisible in every cell.
// B changes between rounds, since the pool recycles a machine into a
// point of any block size.
func TestPooledMachineMatchesFresh(t *testing.T) {
	for _, e := range aem.Engines() {
		if e.Caps.Persistent {
			continue
		}
		backend := e.Name
		t.Run(backend, func(t *testing.T) {
			for round, b := range []int{8, 16, 4, 8} {
				cfg := aem.Config{M: 64, B: b, Omega: 1 + round}
				n := 100 + 17*round
				ma, release := PooledMachine(cfg, backend)
				got := poolWorkload(ma, n)
				release()
				fresh := backendMachine(cfg, backend)
				want := poolWorkload(fresh, n)
				fresh.Close()
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("round %d cell %d: pooled %v, fresh %v", round, c, got[c], want[c])
					}
				}
			}
		})
	}
}

// TestPooledMachineRejectsPersistent: a persistent engine's machine owns
// a backing file, so the pool refuses it rather than share one file
// between grid points.
func TestPooledMachineRejectsPersistent(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "file") {
			t.Fatalf("PooledMachine(file) recovered %v, want a panic naming the engine", r)
		}
	}()
	PooledMachine(aem.Config{M: 64, B: 8, Omega: 1}, "file")
}

// TestPooledMachineReleaseIdempotent pins the double-release fix at the
// release function PooledMachine returns: a release called
// twice (an easy slip in a defer-heavy point function) must put the
// machine into the pool once, not twice — a double Put lets two
// subsequent gets hand the same machine to two concurrent grid points.
// Counting the puts keeps the check independent of what other tests left
// in the shared pools, which sync.Pool may hand back in any order.
func TestPooledMachineReleaseIdempotent(t *testing.T) {
	puts := 0
	release := releaseOnce(func() { puts++ })
	release()
	release() // second call must be a no-op
	if puts != 1 {
		t.Fatalf("double release ran put %d times, want 1", puts)
	}
}

// TestPooledMachineDoubleReleaseRace hammers the double-release path
// from many goroutines under -race: every held machine must be
// exclusively held, even though each holder releases twice. Before the
// fix this aliases one machine across goroutines, which -race reports as
// concurrent writes inside poolWorkload.
func TestPooledMachineDoubleReleaseRace(t *testing.T) {
	cfg := aem.Config{M: 64, B: 24, Omega: 1}
	var mu sync.Mutex
	held := make(map[*aem.Machine]int)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ma, release := PooledMachine(cfg, "slice")
				mu.Lock()
				held[ma]++
				if held[ma] > 1 {
					t.Errorf("machine handed to %d holders at once", held[ma])
				}
				mu.Unlock()
				poolWorkload(ma, 60)
				mu.Lock()
				held[ma]--
				mu.Unlock()
				release()
				release() // racing double release must stay inert
			}
		}()
	}
	wg.Wait()
}

// TestRunPooledParByteIdentity extends the scheduler's byte-identity
// property test to pooled machines: a grid whose points draw from the
// pool — data-bearing and counting backends, bulk and per-op paths —
// must emit identical bytes at every parallelism level, even though pool
// hit patterns differ per run and per worker count.
func TestRunPooledParByteIdentity(t *testing.T) {
	mkSpec := func() *Spec {
		return &Spec{
			ID:    "POOLGRID",
			Title: "pooled machines across backends",
			Axes: []Axis{
				{Name: "backend", Values: Vals("slice", "counting")},
				{Name: "omega", Values: Ints(1, 4, 9)},
				{Name: "n", Values: Ints(64, 100, 200)},
			},
			Columns: Cols("backend", "omega", "n", "reads", "writes", "cost", "mem peak", "blocks"),
			Point: func(p Point) Row {
				cfg := aem.Config{M: 64, B: 8, Omega: p.Int("omega")}
				ma, release := PooledMachine(cfg, p.Str("backend"))
				defer release()
				row := poolWorkload(ma, p.Int("n"))
				return append(Row{p.Str("backend"), p.Int("omega"), p.Int("n")}, row...)
			},
		}
	}
	want, failure := runQuiet([]*Spec{mkSpec()}, 1)
	if failure != "" {
		t.Fatalf("serial pooled run failed: %s", failure)
	}
	r := rng.New(7)
	for trial := 0; trial < 8; trial++ {
		par := 2 + int(r.Intn(15))
		got, failure := runQuiet([]*Spec{mkSpec()}, par)
		if failure != "" {
			t.Fatalf("par=%d pooled run failed: %s", par, failure)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("par=%d: pooled output differs from par=1", par)
		}
	}
}
