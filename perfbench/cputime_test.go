package main

import "testing"

var heapSink []byte

// TestHeapNowCountsOnlyTheMeasured: a reading must not count itself, or
// every per-op allocation figure would carry the benchmark's own.
func TestHeapNowCountsOnlyTheMeasured(t *testing.T) {
	var idle heapAllocs
	idle.add(heapNow(), heapNow())
	if idle != (heapAllocs{}) {
		t.Errorf("two back-to-back readings differ by %+v", idle)
	}

	const n = 1 << 20
	var one heapAllocs
	from := heapNow()
	heapSink = make([]byte, n)
	one.add(from, heapNow())
	if one.objects != 1 || one.bytes < n || one.bytes > n+n/8 {
		t.Errorf("one %d-byte allocation read as %+v", n, one)
	}
}
