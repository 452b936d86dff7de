package main

import (
	"testing"

	"repro/internal/aem"
	"repro/internal/dict"
	"repro/internal/workload"
)

func TestModelFlagsWrongAnswers(t *testing.T) {
	m := newModel(16)
	for _, op := range []dict.Op{
		{Kind: dict.Insert, Key: 2, Value: 20},
		{Kind: dict.Insert, Key: 5, Value: 50},
		{Kind: dict.Insert, Key: 7, Value: 70},
		{Kind: dict.Delete, Key: 5},
	} {
		m.apply(op)
	}
	if err := m.checkGet(2, true, 20); err != nil {
		t.Errorf("right get flagged: %v", err)
	}
	if err := m.checkScan(0, 32, []dict.Found{{Key: 2, Value: 20}, {Key: 7, Value: 70}}); err != nil {
		t.Errorf("right scan flagged: %v", err)
	}
	for name, err := range map[string]error{
		"wrong value":       m.checkGet(2, true, 21),
		"deleted present":   m.checkGet(5, true, 50),
		"present missing":   m.checkGet(7, false, 0),
		"absent present":    m.checkGet(3, true, 0),
		"scan wrong value":  m.checkScan(0, 16, []dict.Found{{Key: 2, Value: 20}, {Key: 7, Value: 71}}),
		"scan missing key":  m.checkScan(0, 16, []dict.Found{{Key: 2, Value: 20}}),
		"scan extra key":    m.checkScan(0, 16, []dict.Found{{Key: 2, Value: 20}, {Key: 5, Value: 50}, {Key: 7, Value: 70}}),
		"scan out of range": m.checkScan(3, 16, []dict.Found{{Key: 2, Value: 20}, {Key: 7, Value: 70}}),
		"scan unordered":    m.checkScan(0, 16, []dict.Found{{Key: 7, Value: 70}, {Key: 2, Value: 20}}),
	} {
		if err == nil {
			t.Errorf("%s: oracle accepted a wrong answer", name)
		}
	}
}

func TestSortOracleFlagsWrongOutput(t *testing.T) {
	const seed = 99 // no pinned Q
	input := workload.Keys(workload.NewRNG(seed), workload.Random, 8192)
	run := &sortRun{input: input}
	run.want = sortedInput(input)
	ma, v := sortMachine(aem.NewArenaStorage(machineCfg.B), input)
	if _, err := run.sortOnce(ma, v, seed); err != nil {
		t.Fatalf("correct sort flagged: %v", err)
	}
	run.want[100].Aux++
	ma, v = sortMachine(aem.NewArenaStorage(machineCfg.B), input)
	if _, err := run.sortOnce(ma, v, seed); err == nil {
		t.Error("oracle accepted a sort whose output differs from the expected order")
	}
}

func TestPinnedSortQIsChecked(t *testing.T) {
	input := workload.Keys(workload.NewRNG(1), workload.Random, 8192)
	run := &sortRun{input: input, want: sortedInput(input)}
	ma, v := sortMachine(aem.NewArenaStorage(machineCfg.B), input)
	// Seed 1 pins the 2^20-item Q; this 8192-item sort cannot match it.
	if _, err := run.sortOnce(ma, v, 1); err == nil {
		t.Error("a Q differing from the pinned count was accepted")
	}
}

// TestReplayMatchesService is the closure check at test size: the
// replayed commit sequence does exactly the service's I/O.
func TestReplayMatchesService(t *testing.T) {
	spec := serveSpec{scenario: workload.DriftOps, keyspace: 4096, roundOps: 20000}
	run, err := runRounds(spec, 3, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if run.failed != 0 || len(run.errs) != 0 {
		t.Fatalf("service run: %d failed ops, errors %v", run.failed, run.errs)
	}
	st := run.stats[0]
	for _, timed := range []bool{false, true} {
		rp := newReplay(spec.keyspace, false, timed, clock{})
		m := newModel(spec.keyspace)
		for _, op := range run.stream {
			if err := rp.do(op, m); err != nil {
				t.Fatalf("replay: %v", err)
			}
		}
		rp.flush()
		if r, w, s := rp.io(); r != st.Reads || w != st.Writes || s != st.SnapReads {
			t.Errorf("timed=%v: replay I/O (%d, %d, %d) != service (%d, %d, %d)",
				timed, r, w, s, st.Reads, st.Writes, st.SnapReads)
		}
	}
}
