package sorting_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/aem"
	"repro/internal/sorting"
	"repro/internal/workload"
)

// scheduleHash hashes everything a sort's caller can observe: the
// machine's transfer trace (kind and address of every costed I/O, in
// order), the output's items, the phase split of the I/O and the
// machine's peak internal memory.
func scheduleHash(ma *aem.Machine, trace []aem.TraceOp, out *aem.Vector) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, op := range trace {
		binary.LittleEndian.PutUint64(buf[:8], uint64(op.Kind))
		binary.LittleEndian.PutUint64(buf[8:], uint64(op.Addr))
		h.Write(buf[:])
	}
	for _, it := range out.Materialize() {
		binary.LittleEndian.PutUint64(buf[:8], uint64(it.Key))
		binary.LittleEndian.PutUint64(buf[8:], uint64(it.Aux))
		h.Write(buf[:])
	}
	for _, name := range ma.Phases().Phases() {
		st := ma.Phases().Phase(name)
		h.Write([]byte(name))
		binary.LittleEndian.PutUint64(buf[:8], uint64(st.Reads))
		binary.LittleEndian.PutUint64(buf[8:], uint64(st.Writes))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:8], uint64(ma.MemPeak()))
	h.Write(buf[:8])
	return h.Sum64()
}

// dupItems returns n items over a few distinct (Key, Aux) values, so most
// items have exact duplicates.
func dupItems(r *workload.RNG, n int) []aem.Item {
	items := workload.Keys(r, workload.Random, n)
	for i := range items {
		items[i] = aem.Item{Key: items[i].Key % 5, Aux: items[i].Aux % 3}
	}
	return items
}

// unevenRuns cuts items into sorted runs of lengths 1, 2, 3, … (the last
// takes the remainder), so run lengths straddle block boundaries.
func unevenRuns(items []aem.Item) [][]aem.Item {
	var groups [][]aem.Item
	for lo, size := 0, 1; lo < len(items); lo, size = lo+size, size+1 {
		groups = append(groups, sortedCopy(items[lo:min(lo+size, len(items))]))
	}
	return groups
}

// evenRuns cuts items into k sorted runs of near-equal length.
func evenRuns(items []aem.Item, k int) [][]aem.Item {
	per := (len(items) + k - 1) / k
	var groups [][]aem.Item
	for lo := 0; lo < len(items); lo += per {
		groups = append(groups, sortedCopy(items[lo:min(lo+per, len(items))]))
	}
	return groups
}

// TestSortScheduleFingerprint pins the exact I/O schedule and output of
// the merge, the hierarchical merge, the base-case sort and the
// mergesort: any change to which blocks they read and write, in which
// order, or to what they output or reserve moves a hash here. The
// in-memory structures behind them (round buffer, selection buffer,
// working frames) may change freely as long as these hold.
func TestSortScheduleFingerprint(t *testing.T) {
	want := map[string]uint64{
		"omega<=B/merge-1-run":          0x4dac0bcd14cc0f70,
		"omega<=B/merge-uneven":         0xd4c97b6882bb898c,
		"omega<=B/merge-full-fanout":    0x99a6dc76c922f0ef,
		"omega<=B/merge-dups":           0xb5ce454b0c37c009,
		"omega<=B/merge-maxbuffer":      0xae5587d0b4c7259f,
		"omega<=B/mergeall-reduce":      0x4183af41973c1490,
		"omega<=B/smallsort":            0x1496516636d31aec,
		"omega<=B/smallsort-dups":       0x655e997e37b78a74,
		"omega<=B/mergesort":            0x69a677bdc69b9bb1,
		"omega<=B/mergesort-dups":       0xd7d5f115aae83fb,
		"omega<=B/emmergesort":          0x589d40911828fadd,
		"omega<=B/merge-inmem-pointers": 0x1ef7cd736c6319f7,
		"omega>B/merge-1-run":           0x75f964d3f8c06017,
		"omega>B/merge-uneven":          0x76a1d37f145a6880,
		"omega>B/merge-full-fanout":     0x3179fb2f2f87dcdb,
		"omega>B/merge-dups":            0x3af6eef88e994b87,
		"omega>B/merge-maxbuffer":       0xd5cd4b0f7a164ccb,
		"omega>B/mergeall-reduce":       0xf0876a3910374ce1,
		"omega>B/smallsort":             0x9c27a62be2eb0c20,
		"omega>B/smallsort-dups":        0xb2db164aa339f6e0,
		"omega>B/mergesort":             0xc20aaab138f34c14,
		"omega>B/mergesort-dups":        0x96dff7c8bff26d24,
		"omega>B/emmergesort":           0x544092aeee6dd032,
	}
	shapes := []struct {
		name string
		cfg  aem.Config
	}{
		{"omega<=B", aem.Config{M: 128, B: 8, Omega: 4}},
		{"omega>B", aem.Config{M: 64, B: 4, Omega: 16}},
	}
	for _, sh := range shapes {
		cfg := sh.cfg
		fanout := cfg.MergeFanout()
		r := workload.NewRNG(7)
		random := workload.Keys(r, workload.Random, 3*cfg.Omega*cfg.M/2)
		dups := dupItems(r, 3*cfg.Omega*cfg.M/2)
		type sortCase struct {
			op  string
			run func(*aem.Machine) *aem.Vector
		}
		cases := []sortCase{
			{"merge-1-run", func(ma *aem.Machine) *aem.Vector {
				return sorting.MergeRuns(ma, loadRuns(ma, evenRuns(random[:5*cfg.M], 1)), sorting.MergeOptions{})
			}},
			{"merge-uneven", func(ma *aem.Machine) *aem.Vector {
				return sorting.MergeRuns(ma, loadRuns(ma, unevenRuns(random[:4*cfg.M])), sorting.MergeOptions{})
			}},
			{"merge-full-fanout", func(ma *aem.Machine) *aem.Vector {
				return sorting.MergeRuns(ma, loadRuns(ma, evenRuns(random, fanout)), sorting.MergeOptions{})
			}},
			{"merge-dups", func(ma *aem.Machine) *aem.Vector {
				return sorting.MergeRuns(ma, loadRuns(ma, evenRuns(dups, fanout/2)), sorting.MergeOptions{})
			}},
			{"merge-maxbuffer", func(ma *aem.Machine) *aem.Vector {
				return sorting.MergeRuns(ma, loadRuns(ma, evenRuns(random, fanout)), sorting.MergeOptions{MaxBuffer: 3 * cfg.B})
			}},
			{"mergeall-reduce", func(ma *aem.Machine) *aem.Vector {
				return sorting.MergeAll(ma, loadRuns(ma, evenRuns(dups, 3*fanout)), sorting.MergeOptions{Reduce: true})
			}},
			{"smallsort", func(ma *aem.Machine) *aem.Vector {
				return sorting.SmallSort(ma, aem.Load(ma, random[:cfg.Omega*cfg.M]))
			}},
			{"smallsort-dups", func(ma *aem.Machine) *aem.Vector {
				return sorting.SmallSort(ma, aem.Load(ma, dups[:cfg.Omega*cfg.M-3]))
			}},
			{"mergesort", func(ma *aem.Machine) *aem.Vector {
				return sorting.MergeSort(ma, aem.Load(ma, random))
			}},
			{"mergesort-dups", func(ma *aem.Machine) *aem.Vector {
				return sorting.MergeSort(ma, aem.Load(ma, dups))
			}},
			{"emmergesort", func(ma *aem.Machine) *aem.Vector {
				return sorting.EMMergeSort(ma, aem.Load(ma, random))
			}},
		}
		if cfg.Omega <= cfg.B {
			cases = append(cases, sortCase{"merge-inmem-pointers", func(ma *aem.Machine) *aem.Vector {
				return sorting.MergeRunsInMemoryPointers(ma, loadRuns(ma, evenRuns(random, fanout/2)), sorting.MergeOptions{})
			}})
		}
		for _, tc := range cases {
			name := sh.name + "/" + tc.op
			t.Run(name, func(t *testing.T) {
				ma := aem.New(cfg)
				// Loading the inputs is free and untraced: the trace holds
				// only the algorithm's own transfers.
				ma.StartTrace()
				out := tc.run(ma)
				trace := ma.StopTrace()
				if ma.MemInUse() != 0 {
					t.Fatalf("leaked %d memory slots", ma.MemInUse())
				}
				if got := scheduleHash(ma, trace, out); got != want[name] {
					t.Errorf("schedule moved: got %#x, want %#x (%d I/Os)", got, want[name], len(trace))
				}
			})
		}
	}
}
