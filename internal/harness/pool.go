package harness

import (
	"sync"

	"repro/internal/aem"
)

// This file is the grid's machine recycler. Every grid point owns a
// private machine, which is what makes points embarrassingly parallel —
// but constructing one per point means every point pays allocation (and
// the whole sweep pays GC) for block tables the previous point just
// dropped. The pool keeps finished counting machines around and hands
// them back through aem.Machine.Recycle, whose contract (pinned by the aem
// conformance suite) is that a recycled machine is indistinguishable from
// a fresh one at any M, B and ω. Pool hits therefore change allocation
// counts, never results, and the scheduler's byte-identical-at-any-par
// guarantee survives pooling untouched.

var countingMachines sync.Pool // of *aem.Machine on a CountingStorage

// PooledCountingMachine returns a machine for cfg on the counting engine —
// recycled from the pool when one is available, freshly constructed
// otherwise — together with a release function returning it for reuse.
// Call release only once the machine's storage is no longer read: the
// next point will Reset it. Release is idempotent: only the first call
// returns the machine, so a double release (an easy slip in a defer-heavy
// point function) cannot put the same machine into the pool twice and
// hand one machine to two concurrent grid points.
func PooledCountingMachine(cfg aem.Config) (ma *aem.Machine, release func()) {
	if got, ok := countingMachines.Get().(*aem.Machine); ok {
		got.Recycle(cfg)
		ma = got
	} else {
		ma = aem.NewWithStorage(cfg, aem.NewCountingStorage())
	}
	return ma, releaseOnce(func() { countingMachines.Put(ma) })
}

// releaseOnce returns a release function that runs put on its first call
// only.
func releaseOnce(put func()) func() {
	var once sync.Once
	return func() { once.Do(put) }
}
