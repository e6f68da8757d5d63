package audit_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/game"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
)

// Crash-resume suite for the journaled coordinator: kill the coordinator
// once N epoch verdicts are durable, restart it over the same journal
// directory, and require (a) the resumed audit's verdict byte-identical to
// the uninterrupted serial engine's, (b) durable epochs never re-dispatched
// to the fleet, and (c) exactly one run resumed. This is the in-process
// half of the contract; scripts/dist_smoke SIGKILLs the real binary.

// startEpochZeroSilentWorker fronts a real honest replay worker with a
// verdict-filter proxy that swallows every verdict for epoch index 0.
// Epoch 0 precedes any possible fault, so its verdict is always needed —
// withholding it strands the run mid-flight with the later epochs'
// verdicts durable in the journal, however fast the replay is and
// wherever the cheat faults. The deterministic setup for killing a
// coordinator that provably has unfinished work.
func startEpochZeroSilentWorker(t *testing.T) string {
	t.Helper()
	fleet, err := audit.StartChaosFleet([]*audit.ChaosPlan{nil})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	l, addr, err := audit.StartVerdictFilterProxy(fleet.Addrs[0], func(v *wire.AuditVerdict) bool {
		return v.Index != 0
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return addr
}

// killCoordinatorAtEpoch runs phase 1 of a crash-resume scenario: an audit
// through a journaled coordinator whose single worker never answers for
// epoch 0, killed as soon as the journal holds crashEpochs durable
// verdicts. It returns with the journal closed, ready for the restarted
// coordinator to adopt.
func killCoordinatorAtEpoch(t *testing.T, s *game.Scenario, dir string, crashEpochs int) {
	t.Helper()
	addr := startEpochZeroSilentWorker(t)
	journal, err := audit.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	coord := testCoordinator(audit.CoordinatorConfig{
		DisableLocalFallback: true,
		Journal:              journal,
		Pipeline:             2,
		HedgeAfter:           -1,
		JobTimeout:           20 * time.Second,
	})
	coord.AddWorker(addr)

	done := make(chan struct{})
	var auditErr error
	go func() {
		defer close(done)
		_, _, auditErr = s.AuditNodeDist("player1", audit.DistOptions{Backend: coord.Backend()})
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		_, verdicts, err := audit.InspectJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if verdicts >= crashEpochs {
			break
		}
		select {
		case <-done:
			t.Fatalf("audit completed before the kill threshold (%d durable verdicts): %v", crashEpochs, auditErr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never reached %d durable verdicts", crashEpochs)
		}
		time.Sleep(time.Millisecond)
	}
	coord.Kill()
	<-done
	if !errors.Is(auditErr, audit.ErrCoordinatorKilled) {
		t.Fatalf("killed coordinator's audit error = %v, want ErrCoordinatorKilled", auditErr)
	}
}

func TestCoordinatorCrashResume(t *testing.T) {
	for _, plan := range audit.CoordinatorKillPlans() {
		t.Run(plan.Name, func(t *testing.T) {
			s := coordScenario(t, "aimbot")
			serial, err := s.AuditNode("player1")
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			killCoordinatorAtEpoch(t, s, dir, plan.CoordCrashEpochs)

			// Phase 2: a fresh coordinator over the same journal with an
			// honest fleet, full spot recheck so the journal's stored
			// verdicts get the lying-worker treatment.
			journal, err := audit.OpenJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer journal.Close()
			fleet, err := audit.StartChaosFleet([]*audit.ChaosPlan{nil})
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close()
			coord := testCoordinator(audit.CoordinatorConfig{
				DisableLocalFallback: true, Journal: journal, HedgeAfter: -1,
			})
			defer coord.Close()
			coord.AddWorker(fleet.Addrs[0])

			res, dstats, err := s.AuditNodeDist("player1", audit.DistOptions{
				Backend: coord.Backend(),
				EngineOptions: audit.EngineOptions{
					SpotRecheckFraction: 1, SpotRecheckSeed: 0xBADD,
				},
			})
			if err != nil {
				t.Fatalf("resumed audit: %v", err)
			}
			compareVerdicts(t, plan.Name+"/resumed", serial, res)

			st := coord.Stats()
			if st.RunsResumed != 1 {
				t.Errorf("runs resumed = %d, want 1", st.RunsResumed)
			}
			if st.EpochsSkippedDurable < int64(plan.CoordCrashEpochs) {
				t.Errorf("epochs skipped as durable = %d, want >= %d", st.EpochsSkippedDurable, plan.CoordCrashEpochs)
			}
			if st.JournalBytes == 0 {
				t.Error("journal bytes gauge stayed 0 on a journaled run")
			}
			// Bounded redispatch: the fleet must have served at most the
			// non-durable epochs — a durable verdict re-dispatched to a
			// worker would show up here.
			if served := fleet.JobsServed(); served > int64(dstats.Epochs)-st.EpochsSkippedDurable {
				t.Errorf("fleet served %d jobs, want <= %d total epochs - %d durable",
					served, dstats.Epochs, st.EpochsSkippedDurable)
			}

			// The resumed run settled cleanly, so its tombstone lands and
			// the next open starts empty.
			coord.Close()
			if err := journal.Close(); err != nil {
				t.Fatal(err)
			}
			runs, verdicts, err := audit.InspectJournal(dir)
			if err != nil || runs != 0 || verdicts != 0 {
				t.Errorf("journal after clean resume = (%d runs, %d verdicts, %v), want empty", runs, verdicts, err)
			}
		})
	}
}

// TestCoordinatorCrashResumeCatalog runs the crash/restart cycle over the
// full cheat catalog (plus a clean log): for every recording the resumed
// verdict must match the serial engine byte for byte — the earliest-fault
// cutoff, deterministic merge and journal resume must compose for every
// fault class, not just the easy ones.
func TestCoordinatorCrashResumeCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-resume catalog suite in -short mode")
	}
	plans := audit.CoordinatorKillPlans()
	names := []string{""}
	for _, c := range game.Catalog() {
		names = append(names, c.Name)
	}
	for i, name := range names {
		plan := plans[i%len(plans)]
		label := name
		if label == "" {
			label = "clean"
		}
		t.Run(fmt.Sprintf("%s/%s", label, plan.Name), func(t *testing.T) {
			s := coordScenario(t, name)
			serial, err := s.AuditNode("player1")
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			killCoordinatorAtEpoch(t, s, dir, plan.CoordCrashEpochs)

			journal, err := audit.OpenJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer journal.Close()
			fleet, err := audit.StartChaosFleet([]*audit.ChaosPlan{nil})
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close()
			coord := testCoordinator(audit.CoordinatorConfig{
				DisableLocalFallback: true, Journal: journal, HedgeAfter: -1,
			})
			defer coord.Close()
			coord.AddWorker(fleet.Addrs[0])

			res, _, err := s.AuditNodeDist("player1", audit.DistOptions{
				Backend:       coord.Backend(),
				EngineOptions: audit.EngineOptions{SpotRecheckFraction: 0.25, SpotRecheckSeed: 0xBADD},
			})
			if err != nil {
				t.Fatalf("resumed audit: %v", err)
			}
			compareVerdicts(t, label+"/resumed", serial, res)
			st := coord.Stats()
			if st.RunsResumed != 1 {
				t.Errorf("runs resumed = %d, want 1", st.RunsResumed)
			}
			if st.EpochsSkippedDurable == 0 {
				t.Error("no epochs were skipped as durable on a resumed run")
			}
		})
	}
}

// TestCoordinatorJournalWriteFailure: a journal whose disk dies mid-service
// must not take the audits down with it. The coordinator finishes them
// un-journaled with the serial verdict, counts the failure, and the journal
// directory reopens to what was durable before — here nothing pending,
// since the only run that was journaled completed.
func TestCoordinatorJournalWriteFailure(t *testing.T) {
	s := coordScenario(t, "aimbot")
	serial, err := s.AuditNode("player1")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fsys, err := waltest.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := audit.OpenJournalFS(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	fleet, err := audit.StartChaosFleet([]*audit.ChaosPlan{nil})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	coord := testCoordinator(audit.CoordinatorConfig{DisableLocalFallback: true, Journal: journal})
	defer coord.Close()
	coord.AddWorker(fleet.Addrs[0])

	for round, sabotage := range []bool{false, true} {
		if sabotage {
			fsys.FailAt(fsys.Ops()+1, syscall.ENOSPC)
		}
		res, _, err := s.AuditNodeDist("player1", audit.DistOptions{Backend: coord.Backend()})
		if err != nil {
			t.Fatalf("round %d (journal sabotaged: %v): %v", round, sabotage, err)
		}
		compareVerdicts(t, fmt.Sprintf("journal-failure round %d", round), serial, res)
		if got := coord.Stats().JournalWriteErrors; (got > 0) != sabotage {
			t.Fatalf("round %d: JournalWriteErrors = %d with journal sabotaged = %v", round, got, sabotage)
		}
	}
	coord.Close()
	if runs, verdicts, err := audit.InspectJournal(dir); err != nil || runs != 0 || verdicts != 0 {
		t.Fatalf("journal after the failure = (%d runs, %d verdicts, %v), want the durable prefix: empty", runs, verdicts, err)
	}
}

// TestCoordinatorResumesFromEveryCrashPoint is the in-process version of
// what Kill's comment leaves to dist-smoke — a crash that loses the
// journal's unsynced batch — taken at every filesystem operation instead of
// one hand-picked moment. A journaled audit of a 20-epoch recording runs
// to completion over the fault filesystem, which records what a power loss
// after each of the journal's writes, fsyncs and the directory fsync would
// leave (only the synced bytes and entries; everything written; the synced
// bytes plus a torn part of the rest). Every image is reopened by the
// production code, and a fresh coordinator over each distinct recovered
// journal must resume to the serial engine's Result, skip exactly the
// epochs whose verdicts survived, and never hand one of them to a worker.
func TestCoordinatorResumesFromEveryCrashPoint(t *testing.T) {
	s, err := game.NewScenario(game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 2718, SnapshotEveryNs: 100_000_000, FakeSignatures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(4_000_000_000)
	serial, err := s.AuditNode("player1")
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Passed {
		t.Fatalf("the clean recording faults: %v", serial.Fault)
	}
	fleet, err := audit.StartChaosFleet([]*audit.ChaosPlan{nil})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	// auditOver runs the audit through a new coordinator journaling into j.
	auditOver := func(j *audit.Journal) (*audit.Result, audit.DistStats, audit.FleetStats) {
		coord := testCoordinator(audit.CoordinatorConfig{
			DisableLocalFallback: true, Journal: j, HedgeAfter: -1, JobTimeout: 20 * time.Second,
		})
		defer coord.Close()
		coord.AddWorker(fleet.Addrs[0])
		res, dstats, err := s.AuditNodeDist("player1", audit.DistOptions{Backend: coord.Backend()})
		if err != nil {
			t.Fatal(err)
		}
		return res, dstats, coord.Stats()
	}

	dir := t.TempDir()
	fsys, err := waltest.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	fsys.Capture()
	journal, err := audit.OpenJournalFS(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	res, dstats, _ := auditOver(journal)
	compareVerdicts(t, "uninterrupted", serial, res)
	completedAt := fsys.Ops() // the run's tombstone is forced durable before Audit returns
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	kinds := map[waltest.Kind]int{}
	for _, op := range fsys.Log() {
		kinds[op.Kind]++
	}
	crashes := fsys.Crashes()
	t.Logf("%d epochs; %d filesystem operations %v, %d distinct crash images", dstats.Epochs, fsys.Ops(), kinds, len(crashes))
	// One record per run start, verdict and completion — enough of them to
	// fill a group commit; every operation is a crash point by construction.
	if dstats.Epochs <= 16 || kinds[waltest.OpWrite] != dstats.Epochs+2 || kinds[waltest.OpSync] < 2 || kinds[waltest.OpSyncDir] != 1 {
		t.Fatalf("operation mix %v does not match %d epochs", kinds, dstats.Epochs)
	}

	seen := map[string]bool{}
	for _, c := range crashes {
		cdir := t.TempDir()
		if err := c.Materialize(cdir); err != nil {
			t.Fatal(err)
		}
		runs, verdicts, err := audit.InspectJournal(cdir)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if c.After >= completedAt && runs != 0 {
			t.Fatalf("%s: the run had completed, the journal reopens to %d pending runs", c, runs)
		}
		j, err := audit.OpenJournal(cdir)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		// What the coordinator does is a function of the recovered journal,
		// which open has just rewritten as its compact image.
		state, err := os.ReadFile(filepath.Join(cdir, "epochs.wal"))
		if err != nil && (runs > 0 || !os.IsNotExist(err)) {
			t.Fatalf("%s: %v", c, err)
		}
		if seen[string(state)] {
			j.Close()
			continue
		}
		seen[string(state)] = true
		served := fleet.JobsServed()
		res, dstats, st := auditOver(j)
		served = fleet.JobsServed() - served
		compareVerdicts(t, c.String(), serial, res)
		if *res != *serial {
			t.Errorf("%s: resumed Result %+v, serial %+v", c, res, serial)
		}
		if st.RunsResumed != int64(runs) || st.EpochsSkippedDurable != int64(verdicts) {
			t.Errorf("%s: resumed %d runs and skipped %d epochs; the recovered journal holds %d runs, %d verdicts",
				c, st.RunsResumed, st.EpochsSkippedDurable, runs, verdicts)
		}
		// Every epoch without a surviving verdict needs a job; one job more
		// and a surviving verdict's epoch went to a worker again.
		if served != int64(dstats.Epochs-verdicts) {
			t.Errorf("%s: the fleet served %d jobs for %d epochs with %d verdicts durable", c, served, dstats.Epochs, verdicts)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if runs, verdicts, err := audit.InspectJournal(cdir); err != nil || runs != 0 || verdicts != 0 {
			t.Errorf("%s: journal after the resumed run = (%d, %d, %v), want empty", c, runs, verdicts, err)
		}
	}
	t.Logf("%d distinct recovered journals resumed", len(seen))
}
