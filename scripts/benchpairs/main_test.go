package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// output is what one run of one workload prints, as bench/README.md
// describes it: a header, the table, the detail line, the result line.
func output(correct bool, metrics map[string]float64) []byte {
	var ms []string
	for name, v := range metrics {
		ms = append(ms, fmt.Sprintf(`%q:{"value":%g,"unit":"x"}`, name, v))
	}
	failed := 0
	if !correct {
		failed = 1
	}
	return []byte(fmt.Sprintf("# avm bench: nproc=2\n## game\naudit_s_per_vs   0.0019 s/vs\n"+
		`{"workload":"game","detail":{"audit_s_per_vs":{"n":120,"min":0.0019}}}`+"\n"+
		`{"attempted":40,"correct":%v,"failed":%d,"metrics":{%s}}`+"\n", correct, failed, strings.Join(ms, ",")))
}

func TestVerdictRule(t *testing.T) {
	lower := metricSpec{Name: "audit_s_per_vs", Better: "lower", Bound: 0.25}
	higher := metricSpec{Name: "fleet_epochs_per_s", Better: "higher", Bound: 0.25}
	type side struct {
		values    []float64
		incorrect bool   // the last run prints "correct": false
		omit      string // the last run does not print this metric
	}
	cases := []struct {
		name           string
		metric         metricSpec
		parent, change side
		verdict        string
		fails, isError bool
	}{
		{name: "regression wider than the parent's spread", metric: lower,
			parent: side{values: []float64{1.00, 1.02, 0.98}}, change: side{values: []float64{1.40, 1.38, 1.43}},
			verdict: verdictRegressed, fails: true},
		{name: "worse than the bound inside the parent's spread", metric: lower,
			parent: side{values: []float64{1.0, 1.6, 0.7}}, change: side{values: []float64{1.35, 1.2, 1.5}},
			verdict: verdictUnresolved},
		{name: "inside the parent's spread but every run worse", metric: lower,
			parent: side{values: []float64{1.0, 2.0, 1.5}}, change: side{values: []float64{2.1, 2.3, 2.2}},
			verdict: verdictRegressed, fails: true},
		{name: "worse within the bound", metric: lower,
			parent: side{values: []float64{1.00, 1.02, 0.98}}, change: side{values: []float64{1.20, 1.22, 1.18}},
			verdict: verdictOK},
		{name: "improvement", metric: lower,
			parent: side{values: []float64{1.00, 1.02, 0.98}}, change: side{values: []float64{0.50, 0.52, 0.48}},
			verdict: verdictOK},
		{name: "higher is better: a drop is the regression", metric: higher,
			parent: side{values: []float64{900, 910, 890}}, change: side{values: []float64{600, 610, 590}},
			verdict: verdictRegressed, fails: true},
		{name: "higher is better: a rise passes", metric: higher,
			parent: side{values: []float64{900, 910, 890}}, change: side{values: []float64{1400, 1410, 1390}},
			verdict: verdictOK},
		{name: "an incorrect change run", metric: lower,
			parent: side{values: []float64{1.00, 1.02, 0.98}}, change: side{values: []float64{1.00, 1.02, 0.98}, incorrect: true},
			verdict: verdictOK, fails: true},
		{name: "an incorrect parent run", metric: lower,
			parent: side{values: []float64{1.00, 1.02, 0.98}, incorrect: true}, change: side{values: []float64{1.00, 1.02, 0.98}},
			verdict: verdictOK, fails: true},
		{name: "metric missing from the change", metric: lower,
			parent: side{values: []float64{1.00, 1.02, 0.98}}, change: side{values: []float64{0.5, 0.5, 0.5}, omit: lower.Name},
			isError: true},
		{name: "metric missing from the parent", metric: lower,
			parent: side{values: []float64{1.00, 1.02, 0.98}, omit: lower.Name}, change: side{values: []float64{0.5, 0.5, 0.5}},
			isError: true},
		{name: "fewer change runs than parent runs", metric: lower,
			parent: side{values: []float64{1.00, 1.02, 0.98}}, change: side{values: []float64{1.00, 1.02}},
			isError: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bf := benchmarkFile{EndToEnd: []metricSpec{tc.metric}, Workloads: []workloadSpec{{"game"}}}
			runs := func(s side) map[string][]result {
				var rs []result
				for i, v := range s.values {
					last := i == len(s.values)-1
					metrics := map[string]float64{tc.metric.Name: v, "setup_s": 1}
					if last && s.omit != "" {
						delete(metrics, s.omit)
					}
					r, err := parseResult(output(!(last && s.incorrect), metrics))
					if err != nil {
						t.Fatal(err)
					}
					rs = append(rs, r)
				}
				return map[string][]result{"game": rs}
			}
			rows, bad, err := compare(bf, runs(tc.parent), runs(tc.change))
			if tc.isError {
				if err == nil {
					t.Fatalf("no error; rows %+v, bad %v", rows, bad)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 1 || rows[0].verdict != tc.verdict {
				t.Errorf("rows %+v, want one with verdict %q", rows, tc.verdict)
			}
			if (len(bad) > 0) != tc.fails {
				t.Errorf("failures %v, want failing = %v", bad, tc.fails)
			}
			if tc.verdict == verdictRegressed && !strings.Contains(strings.Join(bad, ";"), tc.metric.Name) {
				t.Errorf("failures %v do not name %s", bad, tc.metric.Name)
			}
		})
	}
}

// -workload keeps the named workloads in BENCHMARK.json's order, whatever
// order and however often they were named, keeps all of them when none is
// named, and refuses a name BENCHMARK.json does not declare.
func TestSelectWorkloads(t *testing.T) {
	bf := benchmarkFile{Workloads: []workloadSpec{{"game"}, {"minisql"}, {"kvstate"}, {"fleet"}}}
	cases := []struct {
		args    []string
		want    []string
		isError bool
	}{
		{args: nil, want: []string{"game", "minisql", "kvstate", "fleet"}},
		{args: []string{"kvstate"}, want: []string{"kvstate"}},
		{args: []string{"fleet", "game"}, want: []string{"game", "fleet"}},
		{args: []string{"kvstate,game", "kvstate"}, want: []string{"game", "kvstate"}},
		{args: []string{"kvstore"}, isError: true},
		{args: []string{"game,"}, isError: true},
		{args: []string{""}, isError: true},
	}
	for _, tc := range cases {
		got, err := selectWorkloads(bf, tc.args)
		if tc.isError {
			if err == nil {
				t.Errorf("-workload %q: no error, workloads %v", tc.args, got.Workloads)
			}
			continue
		}
		if err != nil {
			t.Errorf("-workload %q: %v", tc.args, err)
			continue
		}
		var names []string
		for _, w := range got.Workloads {
			names = append(names, w.Name)
		}
		if !slices.Equal(names, tc.want) {
			t.Errorf("-workload %q: workloads %v, want %v", tc.args, names, tc.want)
		}
	}
	if len(bf.Workloads) != 4 {
		t.Errorf("selectWorkloads changed the file it was given: %v", bf.Workloads)
	}
}

func TestParseResultNeedsAResultLine(t *testing.T) {
	if _, err := parseResult([]byte("## game\n{\"workload\":\"game\",\"detail\":{}}\n")); err == nil {
		t.Error("output without a result line parsed")
	}
}

// The quartiles must be the ones bench/stats.go and the driver compute
// (Python's exclusive method), or the spread printed here would not be the
// spread a claim is held to.
func TestQuantileExclusive(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", p, got, want)
		}
	}
	if got := quantile([]float64{3, 5, 9}, 0.25); got != 3 {
		t.Errorf("first quartile of three values = %g, want the smallest", got)
	}
}
