package audit_test

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/dbapp"
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
		Increments: s.Server.Snaps,
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
		out, err := a.SpotCheckParallel(src, policy, 1)
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
	out, err := a.SpotCheckParallel(src, audit.RandomSample{Fraction256: 256, Seed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.FaultFound {
		t.Fatal("full-coverage spot check missed the fault")
	}

	// Inspecting only the most recent segment misses it: the patch's state
	// became the committed baseline of later segments — exactly the
	// §3.5 caveat about undetected long-term state changes.
	out, err = a.SpotCheckParallel(src, audit.RecentFirst{K: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.FaultFound {
		t.Fatal("recent-only policy unexpectedly saw the historical fault")
	}

	// The patch landed in the earliest segment — exactly the high-leverage
	// window the initialization-first policy exists for. It inspects only
	// segment 0 and still catches the fault.
	out, err = a.SpotCheckParallel(src, audit.InitializationPlus{}, 1)
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
	for _, tc := range []struct{ k, n, want int }{
		{10, 3, 3}, {2, 3, 2}, {0, 3, 0}, {-1, 5, 0}, {3, 0, 0},
	} {
		got := (audit.RecentFirst{K: tc.k}).Pick(tc.n)
		if len(got) != tc.want || (tc.want > 0 && got[0] != tc.n-tc.want) {
			t.Fatalf("RecentFirst{K: %d}.Pick(%d) = %v, want the last %d", tc.k, tc.n, got, tc.want)
		}
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
