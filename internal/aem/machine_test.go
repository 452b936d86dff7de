package aem

import (
	"slices"
	"strings"
	"testing"
)

func testConfig() Config { return Config{M: 16, B: 4, Omega: 3} }

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{M: 16, B: 4, Omega: 3}, true},
		{"omega one", Config{M: 8, B: 4, Omega: 1}, true},
		{"B one (ARAM)", Config{M: 2, B: 1, Omega: 10}, true},
		{"zero B", Config{M: 16, B: 0, Omega: 1}, false},
		{"negative B", Config{M: 16, B: -1, Omega: 1}, false},
		{"M too small", Config{M: 7, B: 4, Omega: 1}, false},
		{"zero omega", Config{M: 16, B: 4, Omega: 0}, false},
		{"negative omega", Config{M: 16, B: 4, Omega: -2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Validate() = nil, want error")
			}
		})
	}
}

func TestConfigDerived(t *testing.T) {
	cfg := Config{M: 17, B: 4, Omega: 3}
	if got := cfg.BlocksInMemory(); got != 5 {
		t.Errorf("BlocksInMemory() = %d, want 5 (= ceil(17/4))", got)
	}
	if got := cfg.BlocksOf(9); got != 3 {
		t.Errorf("BlocksOf(9) = %d, want 3", got)
	}
	if got := cfg.BlocksOf(0); got != 0 {
		t.Errorf("BlocksOf(0) = %d, want 0", got)
	}
	if got := cfg.MergeFanout(); got != 15 {
		t.Errorf("MergeFanout() = %d, want 15 (= 3·5)", got)
	}
}

func TestLessAndCompare(t *testing.T) {
	cases := []struct {
		a, b Item
		cmp  int
	}{
		{Item{1, 0}, Item{2, 0}, -1},
		{Item{2, 0}, Item{1, 0}, 1},
		{Item{1, 5}, Item{1, 7}, -1},
		{Item{1, 7}, Item{1, 5}, 1},
		{Item{1, 7}, Item{1, 7}, 0},
	}
	for _, tc := range cases {
		if got := Compare(tc.a, tc.b); got != tc.cmp {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.cmp)
		}
		wantLess := tc.cmp < 0
		if got := Less(tc.a, tc.b); got != wantLess {
			t.Errorf("Less(%v, %v) = %t, want %t", tc.a, tc.b, got, wantLess)
		}
	}
}

func TestReadWriteCostAccounting(t *testing.T) {
	ma := New(testConfig())
	a := ma.Alloc(2)

	ma.Write(a, []Item{{1, 0}, {2, 0}})
	ma.Write(a+1, []Item{{3, 0}})
	got := ma.ReadInto(a, nil)
	if len(got) != 2 || got[0].Key != 1 || got[1].Key != 2 {
		t.Errorf("ReadInto(a) = %v, want [{1 0} {2 0}]", got)
	}

	st := ma.Stats()
	if st.Reads != 1 || st.Writes != 2 {
		t.Errorf("Stats = %+v, want reads=1 writes=2", st)
	}
	if ma.Cost() != 1+3*2 {
		t.Errorf("Cost() = %d, want 7 (1 read + 3·2 writes)", ma.Cost())
	}
}

func TestReadReturnsCopy(t *testing.T) {
	ma := New(testConfig())
	a := ma.Alloc(1)
	ma.Write(a, []Item{{1, 0}})
	got := ma.ReadInto(a, nil)
	got[0].Key = 99
	again := ma.ReadInto(a, nil)
	if again[0].Key != 1 {
		t.Errorf("mutating a ReadInto result leaked into the disk: got key %d", again[0].Key)
	}
}

func TestWriteStoresCopy(t *testing.T) {
	ma := New(testConfig())
	a := ma.Alloc(1)
	items := []Item{{1, 0}}
	ma.Write(a, items)
	items[0].Key = 99
	if got := ma.PeekInto(a, nil); got[0].Key != 1 {
		t.Errorf("mutating the Write argument leaked into the disk: got key %d", got[0].Key)
	}
}

func TestWriteOversizedBlockPanics(t *testing.T) {
	ma := New(testConfig())
	a := ma.Alloc(1)
	defer expectPanic(t, "exceed block size")
	ma.Write(a, make([]Item, testConfig().B+1))
}

func TestPokeAndPeekAreFree(t *testing.T) {
	ma := New(testConfig())
	a := ma.Alloc(1)
	ma.Poke(a, []Item{{7, 0}})
	if got := ma.PeekInto(a, nil); len(got) != 1 || got[0].Key != 7 {
		t.Errorf("PeekInto = %v, want [{7 0}]", got)
	}
	if st := ma.Stats(); st.Reads != 0 || st.Writes != 0 {
		t.Errorf("Poke/PeekInto cost I/O: %+v", st)
	}
}

func TestAddressBoundsChecked(t *testing.T) {
	ma := New(testConfig())
	ma.Alloc(1)
	defer expectPanic(t, "out of range")
	ma.ReadInto(5, nil)
}

func TestMemoryAccounting(t *testing.T) {
	ma := New(testConfig()) // M = 16
	ma.Reserve(10)
	ma.Reserve(6)
	if ma.MemInUse() != 16 {
		t.Errorf("MemInUse = %d, want 16", ma.MemInUse())
	}
	ma.Release(6)
	if ma.MemInUse() != 10 {
		t.Errorf("MemInUse = %d, want 10", ma.MemInUse())
	}
	if ma.MemPeak() != 16 {
		t.Errorf("MemPeak = %d, want 16", ma.MemPeak())
	}
}

func TestMemoryOverflowPanics(t *testing.T) {
	ma := New(testConfig())
	ma.Reserve(16)
	defer expectPanic(t, "memory capacity exceeded")
	ma.Reserve(1)
}

func TestReleaseTooMuchPanics(t *testing.T) {
	ma := New(testConfig())
	ma.Reserve(4)
	defer expectPanic(t, "Release")
	ma.Release(5)
}

func TestPhaseAccounting(t *testing.T) {
	ma := New(testConfig())
	a := ma.Alloc(2)
	ma.SetPhase("first")
	ma.Write(a, []Item{{1, 0}})
	ma.SetPhase("second")
	ma.ReadInto(a, nil)
	ma.ReadInto(a, nil)

	p := ma.Phases()
	if got := p.Phase("first"); got.Writes != 1 || got.Reads != 0 {
		t.Errorf("phase first = %+v, want writes=1", got)
	}
	if got := p.Phase("second"); got.Reads != 2 || got.Writes != 0 {
		t.Errorf("phase second = %+v, want reads=2", got)
	}
	if total := p.Total(); total != ma.Stats() {
		t.Errorf("phase total %+v != machine stats %+v", total, ma.Stats())
	}
}

// TestPhaseRestoreAccounting drives the prev := SetPhase(x) …
// SetPhase(prev) pairs that SetPhase's one-entry memo serves, across a
// ResetStats, which replaces the phase table the memo points into: every
// I/O must land in the current table under its phase.
func TestPhaseRestoreAccounting(t *testing.T) {
	ma := New(testConfig())
	a := ma.Alloc(1)
	ma.Write(a, []Item{{1, 0}})
	pair := func() {
		prev := ma.SetPhase("inner")
		ma.ReadInto(a, nil)
		ma.SetPhase(prev)
		ma.ReadInto(a, nil)
	}
	check := func(when string, inner, outer int64) {
		t.Helper()
		p := ma.Phases()
		if got := p.Phase("inner").Reads; got != inner {
			t.Errorf("%s: phase inner has %d reads, want %d", when, got, inner)
		}
		if got := p.Phase("main").Reads; got != outer {
			t.Errorf("%s: phase main has %d reads, want %d", when, got, outer)
		}
		if total := p.Total(); total != ma.Stats() {
			t.Errorf("%s: phase total %+v != machine stats %+v", when, total, ma.Stats())
		}
	}
	pair()
	pair()
	check("before reset", 2, 2)
	ma.ResetStats()
	pair()
	check("after ResetStats", 1, 1)
}

func TestTraceRecording(t *testing.T) {
	ma := New(testConfig())
	a := ma.Alloc(2)
	ma.Write(a, []Item{{1, 0}}) // before trace: not recorded
	ma.StartTrace()
	ma.ReadInto(a, nil)
	ma.Write(a+1, []Item{{2, 0}})
	ops := ma.StopTrace()
	want := []TraceOp{{OpRead, a}, {OpWrite, a + 1}}
	if len(ops) != len(want) {
		t.Fatalf("trace has %d ops, want %d", len(ops), len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("trace[%d] = %+v, want %+v", i, ops[i], want[i])
		}
	}
	ma.ReadInto(a, nil) // after trace: not recorded
	if ma.Tracing() {
		t.Error("machine still tracing after StopTrace")
	}
}

// TestStopTraceHandsOverItsSlice: the slice StopTrace returns belongs to
// the caller, so a second trace on the same machine must not write into
// it, even when the first trace left spare capacity.
func TestStopTraceHandsOverItsSlice(t *testing.T) {
	ma := New(testConfig())
	a := ma.Alloc(4)
	ma.StartTrace()
	for i := 0; i < 3; i++ {
		ma.ReadInto(a+Addr(i), nil)
	}
	first := ma.StopTrace()
	want := append([]TraceOp(nil), first...)

	ma.StartTrace()
	ma.Write(a+3, []Item{{1, 0}})
	ma.ReadInto(a+3, nil)
	second := ma.StopTrace()

	if !slices.Equal(first, want) {
		t.Errorf("second trace changed the first: %v, want %v", first, want)
	}
	if wantSecond := []TraceOp{{OpWrite, a + 3}, {OpRead, a + 3}}; !slices.Equal(second, wantSecond) {
		t.Errorf("second trace %v, want %v", second, wantSecond)
	}
}

func TestStopTraceWithoutStartPanics(t *testing.T) {
	ma := New(Config{M: 16, B: 4, Omega: 2})
	defer expectPanic(t, "StopTrace without StartTrace")
	ma.StopTrace()
}

func TestResetStats(t *testing.T) {
	ma := New(testConfig())
	a := ma.Alloc(1)
	ma.Write(a, []Item{{1, 0}})
	ma.ResetStats()
	if st := ma.Stats(); st != (Stats{}) {
		t.Errorf("Stats after reset = %+v, want zero", st)
	}
	if got := ma.PeekInto(a, nil); len(got) != 1 {
		t.Error("ResetStats clobbered disk contents")
	}
}

func TestStatsArithmetic(t *testing.T) {
	s := Stats{Reads: 10, Writes: 3}
	u := Stats{Reads: 4, Writes: 1}
	if got := s.Add(u); got != (Stats{Reads: 14, Writes: 4}) {
		t.Errorf("Add = %+v", got)
	}
	if got := s.Sub(u); got != (Stats{Reads: 6, Writes: 2}) {
		t.Errorf("Sub = %+v", got)
	}
	if got := s.IOs(); got != 13 {
		t.Errorf("IOs = %d, want 13", got)
	}
	if got := s.Cost(5); got != 10+5*3 {
		t.Errorf("Cost(5) = %d, want 25", got)
	}
	if !strings.Contains(s.String(), "reads=10") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestOpKindString(t *testing.T) {
	if OpRead.String() != "R" || OpWrite.String() != "W" {
		t.Errorf("OpKind strings = %q, %q", OpRead.String(), OpWrite.String())
	}
}

// expectPanic fails the test unless a panic whose message contains substr is
// in flight.
func expectPanic(t *testing.T, substr string) {
	t.Helper()
	r := recover()
	if r == nil {
		t.Fatalf("expected panic containing %q, got none", substr)
	}
	msg := ""
	switch v := r.(type) {
	case string:
		msg = v
	case error:
		msg = v.Error()
	default:
		t.Fatalf("unexpected panic value %v", r)
	}
	if !strings.Contains(msg, substr) {
		t.Fatalf("panic %q does not contain %q", msg, substr)
	}
}

func TestPhaseStatsDirect(t *testing.T) {
	var p PhaseStats
	p.Record("alpha", Stats{Reads: 2})
	p.Record("beta", Stats{Writes: 1})
	p.Record("alpha", Stats{Writes: 3})
	if got := p.Phase("alpha"); got != (Stats{Reads: 2, Writes: 3}) {
		t.Errorf("alpha = %+v", got)
	}
	names := p.Phases()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Errorf("Phases() = %v", names)
	}
	if total := p.Total(); total != (Stats{Reads: 2, Writes: 4}) {
		t.Errorf("Total = %+v", total)
	}
	s := p.String()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "beta") {
		t.Errorf("String() = %q", s)
	}
}

func TestSetPhaseReturnsPrevious(t *testing.T) {
	ma := New(testConfig())
	if prev := ma.SetPhase("x"); prev != "main" {
		t.Errorf("first SetPhase returned %q, want main", prev)
	}
	if prev := ma.SetPhase("y"); prev != "x" {
		t.Errorf("second SetPhase returned %q, want x", prev)
	}
}
