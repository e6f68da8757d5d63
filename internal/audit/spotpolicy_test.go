package audit_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/dbapp"
	"repro/internal/snapshot"
)

func sourceFor(t *testing.T, s *dbapp.Scenario) *audit.MonitorSource {
	t.Helper()
	auths, err := s.ServerAuths()
	if err != nil {
		t.Fatal(err)
	}
	return &audit.MonitorSource{
		Node: "db-server", NodeIdx: 0,
		Entries: s.Server.Log.All(), Auths: auths,
		Materialize: func(k int) (*snapshot.Restored, error) {
			return s.Server.Snaps.Materialize(k)
		},
	}
}

func TestSpotPolicyHonestMachinePassesAnySubset(t *testing.T) {
	s, err := dbapp.NewScenario(dbapp.ScenarioConfig{
		Mode: avmm.ModeAVMMNoSig, Seed: 13, SnapshotEveryNs: 4_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(24_000_000_000)
	src := sourceFor(t, s)
	a := s.Auditor()
	for _, policy := range []audit.SpotPolicy{
		audit.RandomSample{Fraction256: 128, Seed: 3},
		audit.RecentFirst{K: 2},
		audit.InitializationPlus{Rest: audit.RandomSample{Fraction256: 64, Seed: 9}},
	} {
		out, err := a.SpotCheck(src, policy)
		if err != nil {
			t.Fatal(err)
		}
		if out.FaultFound {
			t.Fatalf("honest machine failed spot check (%T): %v", policy, out.FirstFault)
		}
		if out.SegmentsChecked == 0 {
			t.Fatalf("policy %T inspected nothing", policy)
		}
	}
}

func TestSpotPolicyDetectionDependsOnCoverage(t *testing.T) {
	// A fault that manifests in exactly one segment (the §3.5 trade-off):
	// the mid-run code patch lands in segment 1 of ~4. A policy that
	// includes that segment finds the fault; one that misses it does not.
	s, points := corruptServerMidRun(t)
	if len(points) < 3 {
		t.Fatal("need segments")
	}
	src := sourceFor(t, s)
	a := s.Auditor()

	// Full coverage always detects.
	out, err := a.SpotCheck(src, audit.RandomSample{Fraction256: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !out.FaultFound {
		t.Fatal("full-coverage spot check missed the fault")
	}

	// Inspecting only the most recent segment misses it: the patch's state
	// became the committed baseline of later segments — exactly the
	// §3.5 caveat about undetected long-term state changes.
	out, err = a.SpotCheck(src, audit.RecentFirst{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.FaultFound {
		t.Fatal("recent-only policy unexpectedly saw the historical fault")
	}

	// The patch landed in the earliest segment — exactly the high-leverage
	// window the initialization-first policy exists for. It inspects only
	// segment 0 and still catches the fault.
	out, err = a.SpotCheck(src, audit.InitializationPlus{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.FaultFound {
		t.Fatal("initialization-first policy missed the early-segment fault")
	}
	if out.SegmentsChecked != 1 {
		t.Fatalf("initialization-first inspected %d segments, want 1", out.SegmentsChecked)
	}
}

func TestSpotPolicyPickBounds(t *testing.T) {
	if got := (audit.RecentFirst{K: 10}).Pick(3); len(got) != 3 {
		t.Fatalf("RecentFirst overran: %v", got)
	}
	if got := (audit.InitializationPlus{}).Pick(0); got != nil {
		t.Fatalf("InitializationPlus on empty: %v", got)
	}
	picks := (audit.RandomSample{Fraction256: 128, Seed: 5}).Pick(100)
	if len(picks) < 20 || len(picks) > 80 {
		t.Fatalf("50%% sample picked %d of 100", len(picks))
	}
	again := (audit.RandomSample{Fraction256: 128, Seed: 5}).Pick(100)
	if len(picks) != len(again) {
		t.Fatal("random sample not deterministic")
	}
}

func TestSpotCheckMemoizesMaterialization(t *testing.T) {
	s, err := dbapp.NewScenario(dbapp.ScenarioConfig{
		Mode: avmm.ModeAVMMNoSig, Seed: 13, SnapshotEveryNs: 4_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(24_000_000_000)
	src := sourceFor(t, s)
	// Count the O(state) folds behind the memo: repeated passes over the
	// same source — the serial-then-parallel sweep of the audit benchmark —
	// must materialize each starting snapshot exactly once.
	calls := make(map[int]int)
	inner := src.Materialize
	src.Materialize = func(k int) (*snapshot.Restored, error) {
		calls[k]++
		return inner(k)
	}
	a := s.Auditor()
	all := audit.RecentFirst{K: 1 << 30}
	for pass := 0; pass < 3; pass++ {
		out, err := a.SpotCheckParallel(src, all, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out.FaultFound {
			t.Fatalf("honest machine failed spot check: %v", out.FirstFault)
		}
	}
	if len(calls) == 0 {
		t.Fatal("no materializations at all; the spot check inspected nothing")
	}
	for k, n := range calls {
		if n != 1 {
			t.Fatalf("snapshot %d materialized %d times, want 1 (memo miss)", k, n)
		}
	}

	// Concurrent first requests for one index share one fold too: eight
	// goroutines ask a fresh source for the same chunk, and the fold that
	// one of them starts does not finish before all of them have asked.
	const askers = 8
	fresh := sourceFor(t, s)
	var folds atomic.Int32
	var asking sync.WaitGroup
	asking.Add(askers)
	fresh.Materialize = func(k int) (*snapshot.Restored, error) {
		folds.Add(1)
		asking.Wait()
		return inner(k)
	}
	if _, err := fresh.Segments(); err != nil {
		t.Fatal(err)
	}
	states := make([]*snapshot.Restored, askers)
	var wg sync.WaitGroup
	for g := 0; g < askers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			asking.Done()
			req, err := fresh.Chunk(1, 1)
			if err != nil {
				t.Error(err)
				return
			}
			states[g] = req.Start
		}()
	}
	wg.Wait()
	if n := folds.Load(); n != 1 {
		t.Fatalf("%d concurrent requests for one start state folded it %d times, want 1", askers, n)
	}
	for g := range states {
		if states[g] != states[0] {
			t.Fatalf("goroutine %d was handed a different state than goroutine 0", g)
		}
	}
}

// serialSpotCheck pins the spot check as it was before chunks were
// assembled ahead of the audit (commit 8fa6660): assemble a chunk, audit
// it, stop at the first source error or fault. It is scratchSpotCheck, the
// one copy of that loop, without the per-pick Results.
func serialSpotCheck(a *audit.Auditor, src audit.SegmentSource, policy audit.SpotPolicy) (*audit.SpotCheckOutcome, error) {
	out, _, err := scratchSpotCheck(a, src, policy)
	return out, err
}

// probeSource is a SegmentSource that counts, and can spoil, the chunks of
// the source under it: segments in fail return an error instead of a
// chunk, segments in fault come back with a start root that is not the
// state's, which the chunk audit reports as a snapshot fault.
type probeSource struct {
	audit.SegmentSource
	fail, fault map[int]bool

	mu    sync.Mutex
	calls []int // the segments Chunk was called for, in call order
	// goroutines is the highest runtime.NumGoroutine seen inside Chunk.
	goroutines int
}

func (p *probeSource) Chunk(from, k int) (audit.ChunkRequest, error) {
	p.mu.Lock()
	p.calls = append(p.calls, from)
	p.goroutines = max(p.goroutines, runtime.NumGoroutine())
	p.mu.Unlock()
	if p.fail[from] {
		return audit.ChunkRequest{}, fmt.Errorf("probe: segment %d is unreadable", from)
	}
	req, err := p.SegmentSource.Chunk(from, k)
	if err == nil && p.fault[from] {
		req.StartRoot[0] ^= 0x80
	}
	return req, err
}

func (p *probeSource) called() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.calls...)
}

// TestSpotCheckStageMatchesSerialPass: assembling chunks ahead of the
// audit changes who calls Chunk and when, never what the spot check
// reports. Over an honest log, a fault, and a source error before and
// after a fault, on both segment sources, with 1, 2 and 4 workers at 1 and
// 4 Ps, outcome and error are the pinned serial loop's; the source is not
// asked for more than workers+1 chunks past the one that stops the pass,
// is not asked for anything once the pass has returned, and no goroutine
// outlives it. With one P no goroutine is started at all and no chunk is
// assembled before the one before it has been audited.
func TestSpotCheckStageMatchesSerialPass(t *testing.T) {
	s, err := dbapp.NewScenario(dbapp.ScenarioConfig{
		Mode: avmm.ModeAVMMNoSig, Seed: 13, SnapshotEveryNs: 2_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(24_000_000_000)
	a := s.Auditor()
	auths, err := s.ServerAuths()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	arc, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer arc.Close()
	sf := s.Server.Snaps.File()
	if err := arc.WriteRecording("db-server", s.Server.Log.All(), &sf); err != nil {
		t.Fatal(err)
	}
	sources := map[string]func() audit.SegmentSource{
		"monitor": func() audit.SegmentSource { return sourceFor(t, s) },
		"archive": func() audit.SegmentSource {
			return &audit.ArchiveSource{Arc: arc, Node: "db-server", NodeIdx: 0, Auths: auths}
		},
	}
	policy := audit.RecentFirst{K: 1 << 30} // every segment, in log order: pick i is segment i
	pts, err := sources["monitor"]().Segments()
	if err != nil {
		t.Fatal(err)
	}
	nPicks := len(pts) - 1
	if nPicks < 10 {
		t.Fatalf("%d segments; the cases below name picks up to 9", nPicks)
	}
	set := func(xs ...int) map[int]bool {
		m := make(map[int]bool)
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	cases := []struct {
		name        string
		fail, fault map[int]bool
		cutoff      int // the pick that stops the serial pass
	}{
		{"honest", nil, nil, nPicks - 1},
		{"fault in pick 3", nil, set(3), 3},
		{"fault in the last pick", nil, set(nPicks - 1), nPicks - 1},
		{"source error at pick 0", set(0), set(4), 0},
		{"source error at pick 2, fault in pick 5", set(2), set(5), 2},
		{"fault in pick 2, source error at pick 4", set(4), set(2), 2},
		{"fault in pick 6, source errors at picks 7 and 9", set(7, 9), set(6), 6},
	}
	for name, newSource := range sources {
		for _, tc := range cases {
			oracle := &probeSource{SegmentSource: newSource(), fail: tc.fail, fault: tc.fault}
			want, wantErr := serialSpotCheck(a, oracle, policy)
			if got := len(oracle.called()); got != tc.cutoff+1 {
				t.Fatalf("%s/%s: the serial pass asked for %d chunks, the case says it stops at pick %d", name, tc.name, got, tc.cutoff)
			}
			for _, procs := range []int{1, 4} {
				for _, workers := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("%s/%s/P%d/workers%d", name, tc.name, procs, workers), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						src := &probeSource{SegmentSource: newSource(), fail: tc.fail, fault: tc.fault}
						before := runtime.NumGoroutine()
						got, gotErr := a.SpotCheckParallel(src, policy, workers)
						calls := src.called()

						if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
							t.Fatalf("error %v, the serial pass returns %v", gotErr, wantErr)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("outcome %+v, the serial pass reports %+v", got, want)
						}
						seen := make(map[int]bool)
						for _, from := range calls {
							if seen[from] {
								t.Fatalf("segment %d assembled twice (calls %v)", from, calls)
							}
							seen[from] = true
							if from > tc.cutoff+workers {
								t.Fatalf("segment %d assembled; pick %d stops the pass and %d workers may hold %d picks and one ahead (calls %v)",
									from, tc.cutoff, workers, workers, calls)
							}
						}
						for i := 0; i <= tc.cutoff; i++ {
							if !seen[i] {
								t.Fatalf("pick %d, at or before the one that stops the pass, was never assembled (calls %v)", i, calls)
							}
						}
						if procs == 1 {
							// Today's loop: in pick order, nothing assembled that
							// the serial pass would not have reached, on the
							// caller's own goroutine.
							if !reflect.DeepEqual(calls, oracle.called()) {
								t.Fatalf("with one P Chunk was called for %v, the serial pass calls %v", calls, oracle.called())
							}
							if src.goroutines > before {
								t.Fatalf("with one P the pass ran with %d goroutines, %d before it", src.goroutines, before)
							}
						}
						// Nothing runs on once the pass has returned. Helper
						// goroutines of the signature stage end on their own a
						// moment after their audit, so poll rather than sample.
						deadline := time.Now().Add(2 * time.Second)
						for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
							time.Sleep(time.Millisecond)
						}
						if n := runtime.NumGoroutine(); n > before {
							t.Fatalf("%d goroutines after the pass, %d before it", n, before)
						}
						if after := src.called(); len(after) != len(calls) {
							t.Fatalf("Chunk called after the pass returned: %v then %v", calls, after)
						}
					})
				}
			}
		}
	}
}
