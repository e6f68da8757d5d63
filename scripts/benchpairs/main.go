// Command benchpairs is the perf gate: it runs the benchmark BENCHMARK.json
// declares in a parent checkout and a change checkout, as interleaved
// pairs, and fails when an end-to-end metric of the change is worse than
// the parent's by more than its bound.
//
//	go run ./scripts/benchpairs -parent ../parent -change . -pairs 3
//	go run ./scripts/benchpairs -parent ../parent -workload kvstate
//	go run ./scripts/benchpairs -parent ../parent -workload minisql -seed 7
//
// Metric names, directions, bounds, workloads, the command and the run
// length all come from the change's BENCHMARK.json. A pair runs one workload
// in both checkouts back to back; which side goes first flips each pair, so
// a slow phase of the machine lands on both. The rules are the
// simplicity-review guide's: the medians of the per-run values are compared;
// a median worse by more than the bound fails only when the difference is
// resolved (wider than the parent's inter-quartile range, or every change
// run worse than every parent run) and is otherwise printed as unresolved;
// a run whose result line says "correct": false always fails; under the table
// every run's value is listed, by side, in pair order. -workload
// (repeatable, or names separated by commas) restricts the pairs to some of
// the workloads BENCHMARK.json declares — a ten-pair claim on one workload is
// a quarter of the machine time of one on all four; CI runs them all. -seed
// runs both sides on another workload seed, to see that a gain is not one
// seed's.
//
// Exit status: 0 no regression, 1 a regression or an incorrect run, 2 the
// benchmark could not be run or read.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricSpec is one end_to_end entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the gate reads.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	RunSeconds float64        `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
}

// workloadSpec is one workloads entry of BENCHMARK.json.
type workloadSpec struct {
	Name string `json:"name"`
}

// result is the result line bench/README.md documents: the last line of a
// run, {"correct", "attempted", "failed", "metrics": {name: {"value"}}}.
type result struct {
	Correct *bool `json:"correct"`
	Failed  int   `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// parseResult finds the result line in a run's output.
func parseResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for _, line := range slices.Backward(lines) {
		var r result
		if bytes.HasPrefix(line, []byte("{")) && json.Unmarshal(line, &r) == nil && r.Correct != nil {
			return r, nil
		}
	}
	return result{}, fmt.Errorf("no result line in %d lines of output", len(lines))
}

// row is the comparison of one metric on one workload.
type row struct {
	workload string
	metric   metricSpec
	parent   float64 // median of the parent's runs
	change   float64 // median of the change's runs
	iqr      float64 // of the parent's runs
	worseBy  float64 // share of the parent's median; negative is better
	won      int     // pairs in which the change read better; a tie counts for neither
	verdict  string
	runs     [2][]float64 // every run's value, by side, in pair order
}

const (
	verdictOK         = "ok"
	verdictUnresolved = "unresolved"
	verdictRegressed  = "REGRESSED"
)

// quantile follows Python's statistics.quantiles(xs, n=4), the exclusive
// method, like bench/stats.go: a spread computed here reads the same as the
// one the benchmark's detail line carries.
func quantile(sorted []float64, p float64) float64 {
	pos := p * float64(len(sorted)+1)
	lo := int(math.Floor(pos))
	if lo < 1 {
		return sorted[0]
	}
	if lo >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo-1] + (pos-float64(lo))*(sorted[lo]-sorted[lo-1])
}

// judge compares the per-run values of one metric, parent[i] and change[i]
// being the two sides of pair i.
func judge(m metricSpec, parent, change []float64) row {
	sign := 1.0 // a value times sign is worse the larger it is
	if m.Better == "higher" {
		sign = -1
	}
	worseSorted := func(xs []float64) []float64 {
		s := make([]float64, len(xs))
		for i, x := range xs {
			s[i] = sign * x
		}
		slices.Sort(s)
		return s
	}
	ps, cs := worseSorted(parent), worseSorted(change)
	pm, cm := quantile(ps, 0.5), quantile(cs, 0.5)
	r := row{metric: m, parent: sign * pm, change: sign * cm,
		iqr: quantile(ps, 0.75) - quantile(ps, 0.25), verdict: verdictOK, runs: [2][]float64{parent, change}}
	for i := range parent {
		if sign*change[i] < sign*parent[i] {
			r.won++
		}
	}
	if cm != pm {
		r.worseBy = (cm - pm) / math.Abs(pm)
	}
	if r.worseBy > m.Bound {
		r.verdict = verdictUnresolved
		// Resolved: wider than the parent's own spread, or the best change
		// run is worse than the worst parent run.
		if cm-pm > r.iqr || cs[0] > ps[len(ps)-1] {
			r.verdict = verdictRegressed
		}
	}
	return r
}

// sideNames index the two sides of a pair.
var sideNames = [2]string{"parent", "change"}

// compare judges every end-to-end metric on every workload and lists, in
// bad, what fails the gate. A workload without runs, sides with different
// run counts and a run without one of the metrics are errors: a metric that
// was not measured has not passed.
func compare(bf benchmarkFile, parent, change map[string][]result) (rows []row, bad []string, err error) {
	for _, w := range bf.Workloads {
		sides := [2][]result{parent[w.Name], change[w.Name]}
		if len(sides[0]) == 0 || len(sides[0]) != len(sides[1]) {
			return nil, nil, fmt.Errorf("%s: %d parent runs, %d change runs", w.Name, len(sides[0]), len(sides[1]))
		}
		for k, runs := range sides {
			if slices.ContainsFunc(runs, func(r result) bool { return !*r.Correct }) {
				bad = append(bad, fmt.Sprintf("%s: a %s run reported correct: false", w.Name, sideNames[k]))
			}
		}
		for _, m := range bf.EndToEnd {
			var values [2][]float64
			for k, runs := range sides {
				for _, r := range runs {
					v, ok := r.Metrics[m.Name]
					if !ok {
						return nil, nil, fmt.Errorf("%s: a %s run reports no %s", w.Name, sideNames[k], m.Name)
					}
					values[k] = append(values[k], v.Value)
				}
			}
			r := judge(m, values[0], values[1])
			r.workload = w.Name
			if r.verdict == verdictRegressed {
				bad = append(bad, fmt.Sprintf("%s on %s regressed", m.Name, w.Name))
			}
			rows = append(rows, r)
		}
	}
	return rows, bad, nil
}

// runOnce runs one workload of the benchmark in dir, with the workload seed
// seed unless it is 0. The benchmark exits 1 when an operation failed and
// still prints its result line, so the exit status matters only when there
// is no result line to read.
func runOnce(bf benchmarkFile, dir, workload string, seed uint64) (result, error) {
	args := append(slices.Clone(bf.Command[1:]),
		"--workload", workload, "--seconds", strconv.FormatFloat(bf.RunSeconds, 'g', -1, 64), "--trace", "0")
	if seed != 0 {
		args = append(args, "--seed", strconv.FormatUint(seed, 10))
	}
	cmd := exec.Command(bf.Command[0], args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, runErr := cmd.Output()
	r, err := parseResult(out)
	if err != nil {
		return r, fmt.Errorf("%s in %s: %v (%v)", workload, dir, err, runErr)
	}
	return r, nil
}

// selectWorkloads keeps the workloads of bf that names lists, in
// BENCHMARK.json's order; no name keeps them all. Each element of names may
// itself be several names separated by commas. A name BENCHMARK.json does
// not declare is an error.
func selectWorkloads(bf benchmarkFile, names []string) (benchmarkFile, error) {
	want := make(map[string]bool)
	for _, arg := range names {
		for _, name := range strings.Split(arg, ",") {
			if !slices.Contains(bf.Workloads, workloadSpec{name}) {
				return bf, fmt.Errorf("-workload %q: BENCHMARK.json declares no such workload", name)
			}
			want[name] = true
		}
	}
	if len(want) == 0 {
		return bf, nil
	}
	all := bf.Workloads
	bf.Workloads = nil
	for _, w := range all {
		if want[w.Name] {
			bf.Workloads = append(bf.Workloads, w)
		}
	}
	return bf, nil
}

func main() {
	parentDir := flag.String("parent", "", "checkout of the parent commit")
	changeDir := flag.String("change", ".", "checkout of the change; its BENCHMARK.json is the one read")
	pairs := flag.Int("pairs", 10, "pairs of runs per workload")
	seed := flag.Uint64("seed", 0, "workload seed given to the benchmark as --seed (0: the benchmark's own default)")
	var only []string
	flag.Func("workload", "run only this workload (repeatable, or comma-separated; default all)", func(v string) error {
		only = append(only, v)
		return nil
	})
	flag.Parse()
	if *parentDir == "" || *pairs < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(2)
	}
	raw, err := os.ReadFile(filepath.Join(*changeDir, "BENCHMARK.json"))
	if err != nil {
		fail(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fail(fmt.Errorf("BENCHMARK.json: %v", err))
	}
	if len(bf.Command) == 0 || len(bf.Workloads) == 0 || len(bf.EndToEnd) == 0 {
		fail(fmt.Errorf("BENCHMARK.json names no command, no workload or no end-to-end metric"))
	}
	if bf, err = selectWorkloads(bf, only); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		flag.Usage()
		os.Exit(2)
	}

	dirs := [2]string{*parentDir, *changeDir}
	runs := [2]map[string][]result{{}, {}}
	for i := range *pairs {
		for _, w := range bf.Workloads {
			for j := range 2 {
				k := (i + j) % 2 // the side that goes first flips each pair
				start := time.Now()
				r, err := runOnce(bf, dirs[k], w.Name, *seed)
				if err != nil {
					fail(err)
				}
				runs[k][w.Name] = append(runs[k][w.Name], r)
				fmt.Fprintf(os.Stderr, "pair %d/%d %-8s %s: correct=%v failed=%d (%.0f s)\n",
					i+1, *pairs, w.Name, sideNames[k], *r.Correct, r.Failed, time.Since(start).Seconds())
			}
		}
	}

	rows, bad, err := compare(bf, runs[0], runs[1])
	if err != nil {
		fail(err)
	}
	fmt.Printf("%-8s %-22s %13s %13s %9s %7s %13s %7s  %s\n",
		"workload", "metric", "parent median", "change median", "worse by", "bound", "parent IQR", "won", "verdict")
	for _, r := range rows {
		fmt.Printf("%-8s %-22s %13.6g %13.6g %8.2f%% %6.1f%% %13.6g %4d/%-2d  %s\n",
			r.workload, r.metric.Name, r.parent, r.change, 100*r.worseBy, 100*r.metric.Bound, r.iqr, r.won, *pairs, r.verdict)
	}
	// Every run made, so that a claim can be reported with the runs behind it.
	fmt.Println("runs, in pair order:")
	for _, r := range rows {
		for k, side := range sideNames {
			fmt.Printf("%-8s %-22s %-6s", r.workload, r.metric.Name, side)
			for _, v := range r.runs[k] {
				fmt.Printf(" %.9g", v)
			}
			fmt.Println()
		}
	}
	if len(bad) > 0 {
		fmt.Printf("benchpairs: FAIL: %s\n", strings.Join(bad, "; "))
		os.Exit(1)
	}
	fmt.Printf("benchpairs: no resolved regression over %d pairs\n", *pairs)
}
