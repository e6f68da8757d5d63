// Command bench is the repository's end-to-end benchmark: it records a
// deterministic scenario under the full AVMM with real RSA signatures,
// writes the recording to a disk archive, audits it back to a verdict,
// and reports the paper's ratios (recording cost, log growth, audit
// seconds per recorded second) plus a per-layer attribution from a traced
// run. See README.md for every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: game, minisql, kvstate, fleet or all")
		seed    = flag.Uint64("seed", 1234, "workload seed: bot inputs, device RNGs, network jitter")
		seconds = flag.Float64("seconds", 20, "seconds of measurement per workload, after set-up")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
		traceTo = flag.String("trace-out", "", "file for the spans as JSON lines (default: the run's temp dir, removed at exit)")
		aa      = flag.Bool("aa", false, "run the end-to-end suite twice and fail if a metric differs by more than its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	os.Exit(run(*name, *seed, *seconds, *trace != 0, *traceTo, *aa))
}

// run is main without os.Exit, so that the deferred removal of the
// temporary directory happens on every path.
func run(name string, seed uint64, seconds float64, traced bool, traceTo string, aa bool) int {
	var selected []*workload
	if name == "all" {
		selected = workloads
	} else {
		w, err := workloadByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		selected = []*workload{w}
	}
	// Every archive, journal and trace of the run lives here.
	workdir, err := os.MkdirTemp("", "avm-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(workdir)

	var vs []string
	for _, w := range workloads {
		vs = append(vs, fmt.Sprintf("%s=%g", w.name, w.virtualSeconds()))
	}
	fmt.Printf("# avm bench: nproc=%d GOMAXPROCS=%d %s seed=%d key_bits=%d virtual_s{%s} seconds=%g trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed, keyBits, strings.Join(vs, " "), seconds, traced)

	if aa {
		return runAA(selected, seed, seconds, workdir)
	}
	status := 0
	for _, w := range selected {
		var rep *report
		if traced {
			rep, err = runLayers(w, seed, seconds, workdir, traceTo)
		} else {
			rep, err = runE2E(w, seed, seconds, workdir)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		rep.print()
		if rep.failed > 0 {
			status = 1
		}
	}
	return status
}

// print writes the human-readable table, the detail line (quartiles and
// sample counts of the timed metrics) and, last, the result line the
// driver reads.
func (r *report) print() {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("## %s\n", r.workload)
	for _, n := range names {
		m := r.metrics[n]
		line := fmt.Sprintf("%-32s %16.6g %-6s", n, m.Value, m.Unit)
		if d, ok := r.detail[n]; ok {
			line += fmt.Sprintf("  n=%d min=%.6g q1=%.6g median=%.6g q3=%.6g p90=%.6g", d.N, d.Min, d.Q1, d.Median, d.Q3, d.P90)
		}
		fmt.Println(line)
	}
	for _, note := range r.notes {
		fmt.Printf("FAILED: %s\n", note)
	}
	detail, _ := json.Marshal(map[string]any{"workload": r.workload, "detail": r.detail})
	fmt.Println(string(detail))
	result, _ := json.Marshal(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": r.metrics,
	})
	fmt.Println(string(result))
}
