package harness

import (
	"sync"

	"repro/internal/aem"
)

// This file is the grid's machine recycler. Every grid point owns a
// private machine, which is what makes points embarrassingly parallel —
// but constructing one per point means every point pays allocation (and
// the whole sweep pays GC) for block tables the previous point just
// dropped. The pool keeps finished machines around, one pool per engine
// name, and hands them back through aem.Machine.Recycle, whose contract
// (pinned by the aem conformance suite) is that a recycled machine is
// indistinguishable from a fresh one at any M, B and ω. Pool hits
// therefore change allocation counts, never results, and the scheduler's
// byte-identical-at-any-par guarantee survives pooling untouched.

var machinePools sync.Map // engine name → *sync.Pool of *aem.Machine

// PooledMachine returns a machine for cfg on the named backend — recycled
// from the backend's pool when one is available, freshly
// constructed otherwise — together with a release function returning it
// for reuse. Call release only once the machine's storage is no longer
// read: the next point will Reset it. Release is idempotent: only the
// first call returns the machine, so a double release (an easy slip in a
// defer-heavy point function) cannot put the same machine into the pool
// twice and hand one machine to two concurrent grid points.
//
// Persistent engines (registry caps) own a backing file that a shared
// pool would let two concurrent grid points alias, and no grid point runs
// on one, so asking for one is an authoring bug and panics.
func PooledMachine(cfg aem.Config, backend string) (ma *aem.Machine, release func()) {
	if e, ok := aem.EngineByName(backend); ok && e.Caps.Persistent {
		panic("harness: persistent engine " + backend + " cannot be pooled")
	}
	entry, ok := machinePools.Load(backend)
	if !ok {
		entry, _ = machinePools.LoadOrStore(backend, &sync.Pool{})
	}
	pool := entry.(*sync.Pool)
	if got, ok := pool.Get().(*aem.Machine); ok {
		got.Recycle(cfg)
		ma = got
	} else {
		ma = backendMachine(cfg, backend)
	}
	return ma, releaseOnce(func() { pool.Put(ma) })
}

// backendMachine builds a machine on the named storage engine via the
// aem registry — the same constructor the CLI flag resolves through. An
// unknown name inside a spec is an authoring bug, so it panics with the
// registry's canonical error (which lists the valid names).
func backendMachine(cfg aem.Config, name string) *aem.Machine {
	st, err := aem.StorageByName(name, cfg.B)
	if err != nil {
		panic("harness: " + err.Error())
	}
	return aem.NewWithStorage(cfg, st)
}

// releaseOnce returns a release function that runs put on its first call
// only.
func releaseOnce(put func()) func() {
	var once sync.Once
	return func() { once.Do(put) }
}
