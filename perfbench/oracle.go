package main

import (
	"fmt"

	"repro/internal/dict"
)

// model is the output oracle: the expected value of every key of a dense
// keyspace [0, len(vals)), with -1 for absent. The client checks each
// answer it gets against it, and updates it with its own writes.
type model struct{ vals []int64 }

func newModel(keyspace int64) *model {
	m := &model{vals: make([]int64, keyspace)}
	for i := range m.vals {
		m.vals[i] = -1
	}
	return m
}

// apply records a committed update.
func (m *model) apply(op dict.Op) {
	switch op.Kind {
	case dict.Insert:
		m.vals[op.Key] = op.Value
	case dict.Delete:
		m.vals[op.Key] = -1
	}
}

// checkGet verifies one point-lookup answer.
func (m *model) checkGet(key int64, ok bool, v int64) error {
	want := m.vals[key]
	if ok != (want >= 0) || (ok && v != want) {
		return fmt.Errorf("get %d = (%d, %v), want (%d, %v)", key, v, ok, want, want >= 0)
	}
	return nil
}

// checkScan verifies one range-scan answer over [lo, hi): exactly the live
// keys of the range, ascending, each with its expected value.
func (m *model) checkScan(lo, hi int64, hits []dict.Found) error {
	end := hi
	if end > int64(len(m.vals)) {
		end = int64(len(m.vals))
	}
	j := 0
	for k := lo; k < end; k++ {
		if m.vals[k] < 0 {
			continue
		}
		if j >= len(hits) || hits[j].Key != k {
			return fmt.Errorf("scan [%d,%d): key %d missing from the answer", lo, hi, k)
		}
		if v := hits[j].Value; v != m.vals[k] {
			return fmt.Errorf("scan [%d,%d): key %d has value %d, want %d", lo, hi, k, v, m.vals[k])
		}
		j++
	}
	if j != len(hits) {
		return fmt.Errorf("scan [%d,%d): %d hits, want %d", lo, hi, len(hits), j)
	}
	return nil
}
