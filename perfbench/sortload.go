package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/aem"
	"repro/internal/sorting"
	"repro/internal/workload"
)

// sortN is the sort-aem input size: 2^20 random keys, 64× the ωM base
// case, so the §3 mergesort runs its base case and one ωm-way merge.
const sortN = 1 << 20

// sortSetups is how many machines sort-aem builds and loads before its
// sorts, so setup_s is a median of many set-ups.
const sortSetups = 16

// pinnedSortQ is the model cost of one MergeSort of the seed's input.
var pinnedSortQ = map[uint64]int64{1: 5174861}

type sortRun struct {
	input, want []aem.Item
	setupNS     []int64
	sortNS      []int64    // process CPU time per sort
	heap        heapAllocs // heap allocated by one sort
	rssMiB      float64    // peak RSS through set-up and the first sort
	sorts       int64
	failed      int64
	stats       aem.Stats      // I/O of one sort
	phases      aem.PhaseStats // phase split of one sort
	errs        []error
}

// sortedInput is the oracle's answer: the input sorted by the standard
// library, not by the code under test.
func sortedInput(input []aem.Item) []aem.Item {
	want := append([]aem.Item(nil), input...)
	sort.Slice(want, func(i, j int) bool { return aem.Less(want[i], want[j]) })
	return want
}

// sortMachine builds a machine on the given engine and loads the input.
func sortMachine(store aem.Storage, input []aem.Item) (*aem.Machine, *aem.Vector) {
	ma := aem.NewWithStorage(machineCfg, store)
	return ma, aem.Load(ma, input)
}

// sortCost is what one MergeSort call took.
type sortCost struct {
	cpuNS, wallNS int64
	heap          heapAllocs
}

// sortOnce runs one MergeSort and checks its output: sorted, the same
// multiset as the input (both at once: equal to the input sorted by the
// standard library), and the model cost the seed pins. It returns what
// the sort took; a panic counts as a failed sort.
func (run *sortRun) sortOnce(ma *aem.Machine, v *aem.Vector, seed uint64) (c sortCost, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("MergeSort panicked: %v", r)
		}
	}()
	heap0, start, cpu := heapNow(), time.Now(), cpuNow()
	out := sorting.MergeSort(ma, v)
	c.cpuNS, c.wallNS = (cpuNow() - cpu).Nanoseconds(), time.Since(start).Nanoseconds()
	c.heap.add(heap0, heapNow())
	got := out.Materialize()
	if len(got) != len(run.want) {
		return c, fmt.Errorf("sorted %d items, want %d", len(got), len(run.want))
	}
	for i := range got {
		if got[i] != run.want[i] {
			return c, fmt.Errorf("output item %d is %+v, want %+v", i, got[i], run.want[i])
		}
	}
	if q, ok := pinnedSortQ[seed]; ok && ma.Cost() != q {
		return c, fmt.Errorf("sort Q = %d, pinned %d at seed %d", ma.Cost(), q, seed)
	}
	return c, nil
}

// runSort measures sort-aem: fresh arena machine, Load, MergeSort,
// verify, until seconds have passed.
func runSort(seed uint64, seconds float64) (*sortRun, error) {
	input := workload.Keys(workload.NewRNG(seed), workload.Random, sortN)
	run := &sortRun{input: input, want: sortedInput(input)}

	setup := func() (*aem.Machine, *aem.Vector) {
		start := cpuNow()
		ma, v := sortMachine(aem.NewArenaStorage(machineCfg.B), run.input)
		run.setupNS = append(run.setupNS, (cpuNow() - start).Nanoseconds())
		return ma, v
	}
	for i := 0; i < sortSetups; i++ {
		ma, _ := setup()
		ma.Close()
		runtime.GC()
	}
	begin := time.Now()
	for round := 0; round == 0 || time.Since(begin).Seconds() < seconds; round++ {
		ma, v := setup()
		c, err := run.sortOnce(ma, v, seed)
		run.sorts++
		run.sortNS = append(run.sortNS, c.cpuNS)
		if err != nil {
			run.failed++
			logFailure(err)
		}
		st := ma.Stats()
		if round == 0 {
			run.stats, run.heap = st, c.heap
			for _, name := range ma.Phases().Phases() {
				run.phases.Record(name, ma.Phases().Phase(name))
			}
		} else if st != run.stats {
			run.errs = append(run.errs, fmt.Errorf("sort %d did %v, sort 0 did %v", round, st, run.stats))
		}
		ma.Close()
		if round == 0 {
			if run.rssMiB, err = peakRSSMiB(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
	}
	return run, nil
}

func reportSort(rep *report, run *sortRun) {
	rep.set("setup_s", medianNS(run.setupNS)/1e9)
	rep.set("q_per_op", float64(run.stats.Cost(machineCfg.Omega))/sortN)
	rep.set("alloc_kib_per_op", float64(run.heap.bytes)/1024/sortN)
	rep.set("allocs_per_op", float64(run.heap.objects)/sortN)
	rep.set("peak_rss_mb", run.rssMiB)
	rep.set("ops_per_cpu_s", sortN/(medianNS(run.sortNS)/1e9))
}

// reportSortLayers times one more sort on a timedStorage-wrapped arena
// and sets the aem and sorting per-layer metrics.
func reportSortLayers(rep *report, run *sortRun, seed uint64, clk clock) error {
	store := &timedStorage{Storage: aem.NewArenaStorage(machineCfg.B)}
	ma, v := sortMachine(store, run.input)
	defer ma.Close()
	c, err := run.sortOnce(ma, v, seed)
	if err != nil {
		return fmt.Errorf("traced sort: %v", err)
	}
	if st := ma.Stats(); st != run.stats {
		return fmt.Errorf("traced sort did %v, untraced %v", st, run.stats)
	}
	rep.set("aem.reads_per_op", float64(run.stats.Reads)/sortN)
	rep.set("aem.writes_per_op", float64(run.stats.Writes)/sortN)
	rep.set("aem.snap_reads_per_op", 0)
	rep.set("aem.storage_read_calls", float64(store.readCalls))
	readS, writeS := clk.busyS(store.readNS, store.readCalls), clk.busyS(store.writeNS, store.writeCalls)
	rep.set("aem.storage_read_busy_s", readS)
	rep.set("aem.storage_write_busy_s", writeS)
	rep.set("aem.sim_ios_per_cpu_s", float64(run.stats.IOs())/(medianNS(run.sortNS)/1e9))
	setSortPhases(rep, &run.phases)
	// The sort's own time: its wall time less the engine's, and less the
	// clock pair each timed call added.
	calls := float64(store.readCalls + store.writeCalls)
	rep.set("sorting.self_s", float64(c.wallNS)/1e9-readS-writeS-calls*clk.pairNS/1e9)
	rep.set("trace.overhead_frac", float64(c.cpuNS)/medianNS(run.sortNS)-1)
	return nil
}
