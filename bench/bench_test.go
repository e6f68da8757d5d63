package main

import (
	"math"
	"reflect"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// The quartiles must read as Python's statistics.quantiles(xs, n=4) does,
// because that is what the driver applies to the values of ten runs.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		// statistics.quantiles([10, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120], n=4)
		// == [35.0, 240.0, 1600.0]
		{[]float64{10, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120}, 35, 240, 1600},
		// Two samples clamp to the extremes.
		{[]float64{7, 3}, 3, 5, 7},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if !near(s.Q1, c.q1) || !near(s.Median, c.median) || !near(s.Q3, c.q3) {
			t.Errorf("summarize(%v) = q1 %v median %v q3 %v, want %v %v %v", c.xs, s.Q1, s.Median, s.Q3, c.q1, c.median, c.q3)
		}
		if s.N != len(c.xs) {
			t.Errorf("summarize(%v).N = %d", c.xs, s.N)
		}
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestP90IsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100, 99, ..., 1
	}
	s := summarize(xs)
	// Ten samples (91..100) lie beyond the 90th of 100.
	if s.P90 != 90 || s.Min != 1 {
		t.Errorf("p90 = %v min = %v, want 90 and 1", s.P90, s.Min)
	}
	if got := summarize([]float64{3, 1, 2}).P90; got != 3 {
		t.Errorf("p90 of three samples = %v, want the largest", got)
	}
}

func TestRecordFloorTakesEachSliceWhereItWasFastest(t *testing.T) {
	reps := []recordRep{
		{slices: []float64{1, 5, 1}, write: 0.5, fresh: 0.3},
		{slices: []float64{4, 2, 4}, write: 0.2, fresh: 0.4},
	}
	record, endToEnd := recordFloor(reps)
	if !near(record, 1+2+1+0.2) || !near(endToEnd, record+0.3) {
		t.Errorf("recordFloor = %v, %v", record, endToEnd)
	}
	if got := floor([]float64{3, 1, 2}); got != 1 {
		t.Errorf("floor = %v", got)
	}
}

// at builds a span from milliseconds.
func at(id int, name string, parent int, startMs, endMs int64) span {
	return span{ID: id, Name: name, Parent: parent, Start: startMs * 1e6, End: endMs * 1e6}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		at(0, "audit", -1, 0, 100),
		at(1, "verify", 0, 10, 30),
		at(2, "replay", 0, 40, 90),
		at(3, "fold", 2, 50, 60), // nested: comes off replay, not off audit
	}
	want := []int64{30e6, 20e6, 40e6, 10e6}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		at(0, "batch", -1, 0, 100),
		at(1, "client-a", 0, 10, 60),
		at(2, "client-b", 0, 40, 80),  // overlaps a: the pair covers 10..80
		at(3, "late", 0, 90, 120),     // clipped to the parent's end
		at(4, "inside", 0, 20, 30),    // wholly inside client-a
		at(5, "elsewhere", -1, 0, 10), // another root does not count
	}
	got := selfTimes(spans)
	if got[0] != 20e6 { // 0..10 and 80..90
		t.Errorf("self time of batch = %v ms, want 20", got[0]/1e6)
	}
}

func TestSelfByNameKeepsToOneRoot(t *testing.T) {
	tr := &tracer{spans: []span{
		at(0, "audit", -1, 0, 100),
		at(1, "replay", 0, 0, 60),
		at(2, "other", -1, 100, 200),
		at(3, "replay", 2, 100, 150),
	}}
	byName, total := tr.selfByName("audit")
	if !near(total, 0.1) || !near(byName["replay"], 0.06) || !near(byName["audit"], 0.04) || len(byName) != 2 {
		t.Errorf("selfByName = %v total %v", byName, total)
	}
}

func TestTracerNestsAndNilTracerOnlyTimes(t *testing.T) {
	tr := newTracer()
	tr.setRep(7)
	tr.do("outer", func() {
		tr.do("inner", func() {})
		tr.doUnder(tr.current(), "client", func() {})
	})
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[1].Rep != 7 || tr.current() != -1 {
		t.Errorf("rep = %d, open span = %d", tr.spans[1].Rep, tr.current())
	}
	var none *tracer
	ran := false
	none.setRep(1)
	none.do("x", func() { none.doUnder(none.current(), "y", func() { ran = true }) })
	if !ran {
		t.Error("nil tracer did not run the function")
	}
}

func TestEveryFourthPicksSegments4And8And12(t *testing.T) {
	cases := map[int][]int{0: nil, 3: nil, 4: {3}, 7: {3}, 8: {3, 7}, 13: {3, 7, 11}}
	for n, want := range cases {
		if got := (everyFourth{}).Pick(n); !reflect.DeepEqual(got, want) {
			t.Errorf("Pick(%d) = %v, want %v", n, got, want)
		}
	}
}
