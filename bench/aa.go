package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the A/A check needs: the
// bound of every end-to-end metric. Reading it keeps the bounds in one
// place.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs the end-to-end suite twice back to back and compares the
// two. A metric fails when the second value is worse than the first by
// more than its bound. The remedy for a miss is more repetitions, never a
// wider bound.
func runAA(selected []*workload, seed uint64, seconds float64, workdir string) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -aa reads the bounds from BENCHMARK.json in the working directory:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	status := 0
	for _, w := range selected {
		var reps [2]*report
		for i := range reps {
			if reps[i], err = runE2E(w, seed, seconds, workdir); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if reps[i].failed > 0 {
				reps[i].print()
				status = 1
			}
		}
		fmt.Printf("## %s A/A\n%-24s %14s %14s %9s %7s\n", w.name, "metric", "first", "second", "worse by", "bound")
		for _, m := range bf.EndToEnd {
			a, b := reps[0].metrics[m.Name].Value, reps[1].metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if worse > m.Bound || math.IsNaN(worse) {
				verdict = "  EXCEEDS BOUND"
				status = 1
			}
			fmt.Printf("%-24s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	return status
}
