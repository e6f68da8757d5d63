// Command avm-bench regenerates every table and figure of the paper's
// evaluation (§6) on the simulation substrate and prints them in the
// paper's layout. The implementation's own speed is measured by bench/
// (see BENCHMARK.json and README's "Benchmarks"), not here.
//
//	avm-bench                             # run everything at quick scale
//	avm-bench -run fig7                   # one experiment
//	avm-bench -full                       # longer runs, smoother numbers
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
)

type runner struct {
	name string
	desc string
	run  func(experiments.Scale) (fmt.Stringer, error)
}

// tabler adapts experiment results to fmt.Stringer.
type tabler struct{ s string }

func (t tabler) String() string { return t.s }

func main() {
	runFlag := flag.String("run", "all", "experiment to run: all, table1, fig3, fig4, fig5, fig6, fig7, fig8, fig9, sec65, sec66, sec67, ablations")
	full := flag.Bool("full", false, "use the longer full-scale runs")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Report failures without log.Fatalf: os.Exit here would skip the
		// still-pending StopCPUProfile defer and truncate the CPU profile.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-set statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	scale := experiments.QuickScale
	if *full {
		scale = experiments.FullScale
	}

	runners := []runner{
		{"table1", "detectability of the 26-cheat catalog", func(sc experiments.Scale) (fmt.Stringer, error) {
			r, err := experiments.RunTable1(sc)
			if err != nil {
				return nil, err
			}
			return tabler{r.Table().String() + "\n" + r.DetailTable().String() +
				fmt.Sprintf("\nexternal (input-level) aimbot evades detection: %v (expected true, §5.4)\n", r.ExternalAimbotEvades)}, nil
		}},
		{"fig3", "log growth during a match", func(sc experiments.Scale) (fmt.Stringer, error) {
			r, err := experiments.RunFig3(sc)
			if err != nil {
				return nil, err
			}
			return tabler{r.Table().String()}, nil
		}},
		{"fig4", "log composition and compression", func(sc experiments.Scale) (fmt.Stringer, error) {
			r, err := experiments.RunFig4(sc)
			if err != nil {
				return nil, err
			}
			return tabler{r.Table().String()}, nil
		}},
		{"fig5", "ping round-trip times", func(sc experiments.Scale) (fmt.Stringer, error) {
			r, err := experiments.RunFig5(sc)
			if err != nil {
				return nil, err
			}
			return tabler{r.Table().String()}, nil
		}},
		{"fig6", "CPU utilization per hyperthread", func(sc experiments.Scale) (fmt.Stringer, error) {
			r, err := experiments.RunFig6(sc)
			if err != nil {
				return nil, err
			}
			return tabler{r.Table().String()}, nil
		}},
		{"fig7", "frame rate per configuration", func(sc experiments.Scale) (fmt.Stringer, error) {
			r, err := experiments.RunFig7(sc)
			if err != nil {
				return nil, err
			}
			return tabler{r.Table().String()}, nil
		}},
		{"fig8", "online auditing", func(sc experiments.Scale) (fmt.Stringer, error) {
			r, err := experiments.RunFig8(sc)
			if err != nil {
				return nil, err
			}
			return tabler{r.Table().String()}, nil
		}},
		{"fig9", "spot-checking cost", func(sc experiments.Scale) (fmt.Stringer, error) {
			r, err := experiments.RunFig9(sc)
			if err != nil {
				return nil, err
			}
			return tabler{r.Table().String()}, nil
		}},
		{"sec65", "frame cap and clock-delay optimization", func(sc experiments.Scale) (fmt.Stringer, error) {
			r, err := experiments.RunSec65(sc)
			if err != nil {
				return nil, err
			}
			return tabler{r.Table().String()}, nil
		}},
		{"sec66", "audit pipeline timing", func(sc experiments.Scale) (fmt.Stringer, error) {
			r, err := experiments.RunSec66(sc)
			if err != nil {
				return nil, err
			}
			return tabler{r.Table().String()}, nil
		}},
		{"sec67", "network traffic", func(sc experiments.Scale) (fmt.Stringer, error) {
			r, err := experiments.RunSec67(sc)
			if err != nil {
				return nil, err
			}
			return tabler{r.Table().String()}, nil
		}},
		{"ablations", "design-choice ablations", func(sc experiments.Scale) (fmt.Stringer, error) {
			var b strings.Builder
			chain, err := experiments.RunAblationChain(sc)
			if err != nil {
				return nil, err
			}
			b.WriteString(chain.Table().String() + "\n")
			snaps, err := experiments.RunAblationSnapshots(sc)
			if err != nil {
				return nil, err
			}
			b.WriteString(snaps.Table().String() + "\n")
			lms, err := experiments.RunAblationLandmarks(sc)
			if err != nil {
				return nil, err
			}
			b.WriteString(lms.Table().String() + "\n")
			partial, err := experiments.RunAblationPartial(sc)
			if err != nil {
				return nil, err
			}
			b.WriteString(partial.Table().String())
			return tabler{b.String()}, nil
		}},
	}

	selected := strings.Split(*runFlag, ",")
	want := func(name string) bool {
		for _, s := range selected {
			if s == "all" || s == name {
				return true
			}
		}
		return false
	}
	ran := 0
	for _, r := range runners {
		if !want(r.name) {
			continue
		}
		ran++
		fmt.Printf("### %s — %s\n\n", r.name, r.desc)
		start := time.Now()
		out, err := r.run(scale)
		if err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		fmt.Println(out)
		fmt.Printf("(%s completed in %v)\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *runFlag)
		os.Exit(2)
	}
}
