package aem

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestMemorySinkRecordsAndResets(t *testing.T) {
	var s MemorySink
	s.Record(TraceOp{OpRead, 3})
	s.Record(TraceOp{OpWrite, 5})
	ops := s.Ops()
	if len(ops) != 2 || ops[0] != (TraceOp{OpRead, 3}) || ops[1] != (TraceOp{OpWrite, 5}) {
		t.Fatalf("Ops() = %v", ops)
	}
	s.Reset()
	if len(s.Ops()) != 0 {
		t.Fatalf("Reset left %d ops", len(s.Ops()))
	}
}

func TestStreamSinkFormat(t *testing.T) {
	var buf bytes.Buffer
	s := NewStreamSink(&buf)
	s.Record(TraceOp{OpRead, 42})
	s.Record(TraceOp{OpWrite, 7})
	s.Record(TraceOp{OpRead, 0})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "R 42\nW 7\nR 0\n"
	if buf.String() != want {
		t.Fatalf("stream = %q, want %q", buf.String(), want)
	}
	if s.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", s.Len())
	}
}

// TestStreamSinkStreams verifies the defining property: the sink pushes
// data to the writer *during* recording (bounded buffering), not only at
// Flush, so arbitrarily long traces never accumulate in memory.
func TestStreamSinkStreams(t *testing.T) {
	var buf bytes.Buffer
	s := NewStreamSink(&buf)
	const ops = 200_000 // ~1MB encoded, far beyond one buffer
	for i := 0; i < ops; i++ {
		s.Record(TraceOp{Kind: OpKind(i % 2), Addr: Addr(i)})
	}
	if buf.Len() == 0 {
		t.Fatal("nothing reached the writer before Flush: sink is accumulating, not streaming")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != ops {
		t.Fatalf("stream holds %d lines, want %d", lines, ops)
	}
}

// TestStreamSinkZeroAllocSteadyState: recording must not allocate once
// the buffer exists, or tracing production-scale runs would thrash.
func TestStreamSinkZeroAllocSteadyState(t *testing.T) {
	s := NewStreamSink(io.Discard)
	i := 0
	allocs := testing.AllocsPerRun(5000, func() {
		s.Record(TraceOp{Kind: OpKind(i % 2), Addr: Addr(i)})
		i++
	})
	if allocs != 0 {
		t.Errorf("StreamSink.Record allocates %.2f per op, want 0", allocs)
	}
}

type failingWriter struct{ calls int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	return 0, errors.New("disk full")
}

func TestStreamSinkStickyError(t *testing.T) {
	w := &failingWriter{}
	s := NewStreamSink(w)
	const ops = 100_000
	for i := 0; i < ops; i++ {
		s.Record(TraceOp{OpWrite, Addr(i)})
	}
	if err := s.Flush(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Flush() = %v, want disk full", err)
	}
	if w.calls != 1 {
		t.Errorf("writer called %d times after first error, want 1 (error is sticky)", w.calls)
	}
	// Len counts every recorded operation, including those dropped after
	// the sticky error — it reports what the machine did, and Flush's
	// error reports that the encoded stream is incomplete.
	if s.Len() != ops {
		t.Errorf("Len() = %d after sticky error, want %d", s.Len(), ops)
	}
}

func TestStreamSinkLenCountsPostErrorOps(t *testing.T) {
	// The error strikes mid-trace: ops before and after it must all be
	// counted, and repeated Flush keeps returning the first error.
	w := &failingWriter{}
	s := NewStreamSink(w)
	s.Record(TraceOp{OpRead, 1})
	if err := s.Flush(); err == nil {
		t.Fatal("first Flush should surface the write error")
	}
	s.Record(TraceOp{OpWrite, 2})
	s.Record(TraceOp{OpRead, 3})
	if s.Len() != 3 {
		t.Errorf("Len() = %d, want 3 (post-error ops undercounted)", s.Len())
	}
	if err := s.Flush(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("second Flush() = %v, want the sticky disk full error", err)
	}
	if w.calls != 1 {
		t.Errorf("writer retried after sticky error (%d calls)", w.calls)
	}
}

// TestMachineStreamSinkMatchesMemorySink runs the same I/O script with
// both sinks; the streamed text must be the memory sink's ops, encoded.
func TestMachineStreamSinkMatchesMemorySink(t *testing.T) {
	script := func(ma *Machine) {
		a := ma.Alloc(3)
		ma.Write(a, []Item{{1, 0}})
		ma.ReadInto(a, make([]Item, 0, 4))
		ma.Write(a+2, nil)
		ma.ReadInto(a+2, nil)
	}

	ma1 := New(Config{M: 16, B: 4, Omega: 2})
	ma1.StartTrace()
	script(ma1)
	ops := ma1.StopTrace()

	var buf bytes.Buffer
	ma2 := New(Config{M: 16, B: 4, Omega: 2})
	ma2.SetTraceSink(NewStreamSink(&buf))
	script(ma2)
	sink := ma2.SetTraceSink(nil).(*StreamSink)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	var want strings.Builder
	for _, op := range ops {
		fmt.Fprintf(&want, "%s %d\n", op.Kind, op.Addr)
	}
	if buf.String() != want.String() {
		t.Fatalf("streamed trace %q, want %q", buf.String(), want.String())
	}
}

func TestSetTraceSinkReturnsPrevious(t *testing.T) {
	ma := New(Config{M: 16, B: 4, Omega: 2})
	if prev := ma.SetTraceSink(&MemorySink{}); prev != nil {
		t.Fatalf("first SetTraceSink returned %v, want nil", prev)
	}
	if !ma.Tracing() {
		t.Fatal("Tracing() false with a sink installed")
	}
	if prev := ma.SetTraceSink(nil); prev == nil {
		t.Fatal("second SetTraceSink lost the previous sink")
	}
	if ma.Tracing() {
		t.Fatal("Tracing() true after removing the sink")
	}
}

func TestStopTraceWithoutStartPanics(t *testing.T) {
	ma := New(Config{M: 16, B: 4, Omega: 2})
	ma.SetTraceSink(&MemorySink{})
	defer expectPanic(t, "StopTrace without StartTrace")
	ma.StopTrace()
}
