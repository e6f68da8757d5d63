package audit_test

import (
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/game"
	"repro/internal/logcomp"
	"repro/internal/netsim"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
)

// Delta-shipped job dispatch: after the first full state per (connection,
// run), epoch jobs carry only dirty-page increments plus Merkle fold
// proofs. These tests pin the three promises of that design: verdicts stay
// byte-identical to the serial engine on every backend, shipped bytes
// actually shrink, and a lying coordinator — one that doctors a delta — is
// caught at fold-verify time on the worker, before any replay.

// deltaOn is the engine-options fragment every delta-enabled dist audit in
// this file shares.
func deltaOn() audit.EngineOptions {
	return audit.EngineOptions{DeltaJobs: true}
}

// deltaScenario records a match with snapshots dense enough that every
// worker in a three-worker fleet sees several consecutive epochs — the
// regime where delta shipping actually engages.
func deltaScenario(t *testing.T, cheat string) *game.Scenario {
	t.Helper()
	cfg := game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 4242, SnapshotEveryNs: 500_000_000, FakeSignatures: true,
	}
	if cheat != "" {
		c, err := game.CatalogByName(cheat)
		if err != nil {
			t.Fatal(err)
		}
		cfg.CheatPlayer = 1
		cfg.Cheat = c
	}
	s, err := game.NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(6_000_000_000)
	return s
}

// meanJobBytes returns the mean wire size of the full-state jobs and of the
// delta-encoded jobs of one dist audit; a kind that shipped no job reads 0.
func meanJobBytes(st audit.DistStats) (avgFull, avgDelta int) {
	if n := st.Dispatched - st.DeltaJobsShipped; n > 0 {
		avgFull = st.WireBytesFull / n
	}
	if st.DeltaJobsShipped > 0 {
		avgDelta = st.WireBytesDelta / st.DeltaJobsShipped
	}
	return avgFull, avgDelta
}

// TestDistDeltaJobsEquivalence: with delta jobs on, the TCP, netsim and
// coordinator backends must match the serial verdict byte for byte, for a
// clean log and for a cheater; on the clean run some jobs must actually
// ship delta-encoded and the byte split must be visible in the stats.
func TestDistDeltaJobsEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cheat string
	}{{"clean", ""}, {"cheater", "aimbot"}} {
		t.Run(tc.name, func(t *testing.T) {
			s := deltaScenario(t, tc.cheat)
			serial, err := s.AuditNode("player1")
			if err != nil {
				t.Fatal(err)
			}

			tcp, dstats, err := s.AuditNodeDist("player1", audit.DistOptions{
				Backend:       oneShot(sharedFleet(t), audit.CoordinatorConfig{}),
				EngineOptions: deltaOn(),
			})
			if err != nil {
				t.Fatalf("tcp delta audit: %v", err)
			}
			compareVerdicts(t, "delta tcp "+tc.name, serial, tcp)
			if tc.cheat == "" {
				if dstats.DeltaJobsShipped == 0 {
					t.Errorf("tcp: no jobs shipped delta-encoded (stats %+v)", dstats)
				}
				if dstats.WireBytesDelta == 0 || dstats.WireBytesFull == 0 {
					t.Errorf("tcp: byte split not reported: full=%d delta=%d",
						dstats.WireBytesFull, dstats.WireBytesDelta)
				}
				// Which connection an idle worker steals from depends on the
				// scheduler's timing here, and each stolen epoch ships a
				// chain one step longer (10x in each of 8 runs on 2 cores),
				// so this leg asserts the direction; the quiet netsim leg
				// below is deterministic and asserts the factor.
				if avgFull, avgDelta := meanJobBytes(dstats); avgDelta >= avgFull {
					t.Errorf("tcp: average delta job (%d B) is not smaller than average full job (%d B)",
						avgDelta, avgFull)
				}
			}

			// Lossy simulated network: verdict equivalence under drops and
			// reordering, with the NeedState fallback live (a retransmit can
			// land on a worker that never saw the base).
			sim, _, err := s.AuditNodeDist("player1", audit.DistOptions{
				Backend:       &audit.NetsimBackend{Net: lossyNet(77), Workers: 3, MaxAttempts: 10},
				EngineOptions: deltaOn(),
			})
			if err != nil {
				t.Fatalf("netsim delta audit: %v", err)
			}
			compareVerdicts(t, "delta netsim "+tc.name, serial, sim)

			// Clean simulated network: the rotation is deterministic, so
			// delta shipping must be observable.
			quiet, qstats, err := s.AuditNodeDist("player1", audit.DistOptions{
				Backend: &audit.NetsimBackend{
					Net:     netsim.New(netsim.Config{BaseLatencyNs: 96_000, Seed: 7}),
					Workers: 3,
				},
				EngineOptions: deltaOn(),
			})
			if err != nil {
				t.Fatalf("quiet netsim delta audit: %v", err)
			}
			compareVerdicts(t, "delta netsim quiet "+tc.name, serial, quiet)
			if tc.cheat == "" {
				if qstats.DeltaJobsShipped == 0 {
					t.Errorf("quiet netsim: no jobs shipped delta-encoded (stats %+v)", qstats)
				}
				// The increments must pay for themselves: a delta job is at
				// least 4x smaller than a full-state job (10x at this scale).
				// Losing this means deltas started shipping whole states.
				if avgFull, avgDelta := meanJobBytes(qstats); 4*avgDelta > avgFull {
					t.Errorf("quiet netsim: average delta job %d B, average full job %d B: less than 4x smaller",
						avgDelta, avgFull)
				}
			}

			coord := testCoordinator(audit.CoordinatorConfig{DisableLocalFallback: true})
			defer coord.Close()
			for _, addr := range sharedFleet(t) {
				coord.AddWorker(addr)
			}
			cres, cstats, err := s.AuditNodeDist("player1", audit.DistOptions{
				Backend:       coord.Backend(),
				EngineOptions: deltaOn(),
			})
			if err != nil {
				t.Fatalf("coordinator delta audit: %v", err)
			}
			compareVerdicts(t, "delta coordinator "+tc.name, serial, cres)
			if tc.cheat == "" && cstats.DeltaJobsShipped == 0 {
				t.Errorf("coordinator: no jobs shipped delta-encoded (stats %+v)", cstats)
			}
		})
	}
}

// corruptDeltaSource wraps a monitor's snapshot store with a delta source
// that flips one byte of one dirty page of delta k — the lying coordinator.
// The returned source never mutates the store's own structures.
func corruptDeltaSource(target *avmm.Monitor, k uint32) func(uint32) (*snapshot.Delta, error) {
	return func(q uint32) (*snapshot.Delta, error) {
		d, err := target.Snaps.Delta(int(q))
		if err != nil {
			return nil, err
		}
		if q != k || len(d.Pages) == 0 {
			return d, nil
		}
		doctored := *d
		doctored.Pages = append([]snapshot.DeltaPage(nil), d.Pages...)
		pg := doctored.Pages[0]
		pg.Data = append([]byte(nil), pg.Data...)
		pg.Data[0] ^= 0xFF
		doctored.Pages[0] = pg
		return &doctored, nil
	}
}

// TestDistTamperedDeltaCaught: the coordinator ships a doctored delta (page
// data that no longer matches the state the log committed). The worker
// must reject the chain when it writes it over its replica — before replay
// — and the audit must surface the same snapshot-check fault class a
// corrupt full state produces, even though the underlying log is honest and
// the serial engine passes.
//
// All three remote backends run the one scheduler, so all three are here.
// A connection's next job chains from where its last job of the run ends,
// so the single worker's jobs chain only across a gap: each backend is
// handed every epoch but the one that starts at snapshot 1, and the job
// after it — shipped right behind the boot epoch, which ends at snapshot 1
// — always chains across the doctored step 2.
func TestDistTamperedDeltaCaught(t *testing.T) {
	s := distScenario(t, "")
	target, auths, a, err := s.AuditInputs("player1")
	if err != nil {
		t.Fatal(err)
	}
	serial, _, err := a.Audit(audit.AuditRequest{
		Node: "player1", NodeIdx: uint32(target.Index()), Entries: target.Log.Entries(), Auths: auths})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Passed {
		t.Fatalf("serial audit of the honest log failed: %v", serial.Fault)
	}
	if target.Snaps.Count() < 3 {
		t.Fatalf("need 3 snapshots for a delta chain, have %d", target.Snaps.Count())
	}
	materialize := func(snapIdx uint32) (*snapshot.Restored, error) {
		return target.Snaps.Materialize(int(snapIdx))
	}
	corrupt := corruptDeltaSource(target, 2)
	gap := func(b audit.EpochBackend) audit.EpochBackend { return withoutEpochAt{b, 1} }

	backends := []struct {
		name    string
		backend audit.EpochBackend
	}{
		{"netsim", gap(&audit.NetsimBackend{
			Net:     netsim.New(netsim.Config{BaseLatencyNs: 96_000, Seed: 9}),
			Workers: 1,
		})},
		{"tcp", gap(oneShot(sharedFleet(t)[:1], audit.CoordinatorConfig{Pipeline: 2}))},
	}
	coord := testCoordinator(audit.CoordinatorConfig{DisableLocalFallback: true})
	defer coord.Close()
	coord.AddWorker(sharedFleet(t)[0])
	backends = append(backends, struct {
		name    string
		backend audit.EpochBackend
	}{"coordinator", gap(coord.Backend())})

	for _, b := range backends {
		res, astats, err := a.Audit(audit.AuditRequest{
			Node: "player1", NodeIdx: uint32(target.Index()), Engine: audit.EngineDist,
			Entries: target.Log.Entries(), Auths: auths, Backend: b.backend,
			Options: audit.EngineOptions{
				DeltaJobs: true, Materialize: materialize, DeltaSource: corrupt,
			},
		})
		dstats := astats.Dist
		if err != nil {
			t.Fatalf("%s: tampered-delta audit: %v", b.name, err)
		}
		if res.Passed {
			t.Fatalf("%s: doctored delta chain escaped fold verification", b.name)
		}
		if res.Fault.Check != audit.CheckSnapshot {
			t.Errorf("%s: fault check = %s, want %s (detail: %s)",
				b.name, res.Fault.Check, audit.CheckSnapshot, res.Fault.Detail)
		}
		if !strings.Contains(res.Fault.Detail, "delta step") {
			t.Errorf("%s: fault did not come from the fold verifier: %s", b.name, res.Fault.Detail)
		}
		if dstats.DeltaJobsShipped == 0 {
			t.Errorf("%s: the doctored delta was never shipped (stats %+v)", b.name, dstats)
		}
	}
}

// withoutEpochAt is a backend that never ships the epoch starting at
// snapshot snap: it answers that epoch itself, with a pass, and hands every
// other job to the backend it wraps, whose workers then see the run with a
// gap in it.
type withoutEpochAt struct {
	audit.EpochBackend
	snap uint32
}

func (b withoutEpochAt) Run(sess audit.Session, jobs []*audit.EpochJob, skip func(int) bool, emit func(audit.EpochVerdict)) error {
	rest := make([]*audit.EpochJob, 0, len(jobs))
	for _, j := range jobs {
		if !j.Boot && j.StartSnap == b.snap {
			emit(audit.EpochVerdict{Index: j.Index, Attempts: 1})
			continue
		}
		rest = append(rest, j)
	}
	return b.EpochBackend.Run(sess, rest, skip, emit)
}

// TestAdaptiveSnapshotCadence: the recorder's dirty-volume and
// instruction-budget thresholds must produce extra snapshots (bounding
// delta size and epoch replay time by construction), and a log recorded
// under them must still audit cleanly — serial and delta-dist alike.
func TestAdaptiveSnapshotCadence(t *testing.T) {
	record := func(cfg game.ScenarioConfig) *game.Scenario {
		cfg.Players = 2
		cfg.Mode = avmm.ModeAVMMRSA
		cfg.Cost = avmm.DefaultCostModel()
		cfg.Seed = 515
		cfg.FakeSignatures = true
		cfg.SnapshotEveryNs = 3_000_000_000
		s, err := game.NewScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(6_000_000_000)
		return s
	}

	base := record(game.ScenarioConfig{})
	baseSnaps := base.Player(1).Snaps.Count()
	if base.Player(1).AdaptiveSnapshots != 0 {
		t.Fatalf("baseline recorded %d adaptive snapshots with thresholds off",
			base.Player(1).AdaptiveSnapshots)
	}

	for _, tc := range []struct {
		name string
		cfg  game.ScenarioConfig
	}{
		{"instr-budget", game.ScenarioConfig{SnapshotMaxInstr: 150_000}},
		{"dirty-volume", game.ScenarioConfig{SnapshotMaxDirtyBytes: 8 * 1024}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := record(tc.cfg)
			mon := s.Player(1)
			if mon.AdaptiveSnapshots == 0 {
				t.Fatalf("threshold never fired (snapshots %d, baseline %d)",
					mon.Snaps.Count(), baseSnaps)
			}
			if mon.Snaps.Count() <= baseSnaps {
				t.Errorf("adaptive cadence took %d snapshots, baseline %d", mon.Snaps.Count(), baseSnaps)
			}
			serial, err := s.AuditNode("player1")
			if err != nil {
				t.Fatal(err)
			}
			if !serial.Passed {
				t.Fatalf("honest adaptive-cadence log failed audit: %v", serial.Fault)
			}
			res, dstats, err := s.AuditNodeDist("player1", audit.DistOptions{
				Backend:       oneShot(sharedFleet(t), audit.CoordinatorConfig{}),
				EngineOptions: deltaOn(),
			})
			if err != nil {
				t.Fatal(err)
			}
			compareVerdicts(t, "adaptive "+tc.name, serial, res)
			if dstats.DeltaJobsShipped == 0 {
				t.Errorf("no delta jobs over the denser snapshot sequence (stats %+v)", dstats)
			}
		})
	}
}

// TestAuditEngineEquivalenceCatalog is the unified-API equivalence suite:
// for every cheat in the Table 1 catalog, every Engine value reaches the
// serial engine's verdict — parallel and stream byte-identically on the
// full log, dist byte-identically on all four backends with delta jobs on,
// and chunk passing a spot-check of the honest player's first full chunk.
func TestAuditEngineEquivalenceCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("26 matches; skipped in -short")
	}
	coord := testCoordinator(audit.CoordinatorConfig{})
	defer coord.Close()
	for _, addr := range sharedFleet(t) {
		coord.AddWorker(addr)
	}
	for _, cheat := range game.Catalog() {
		cheat := cheat
		t.Run(cheat.Name, func(t *testing.T) {
			s := distScenario(t, cheat.Name)
			serial, err := s.AuditNode("player1")
			if err != nil {
				t.Fatal(err)
			}
			target, auths, a, err := s.AuditInputs("player1")
			if err != nil {
				t.Fatal(err)
			}
			entries := target.Log.Entries()
			materialize := func(snapIdx uint32) (*snapshot.Restored, error) {
				return target.Snaps.Materialize(int(snapIdx))
			}
			deltaSrc := func(k uint32) (*snapshot.Delta, error) {
				return target.Snaps.Delta(int(k))
			}
			run := func(label string, req audit.AuditRequest) {
				t.Helper()
				req.Node = "player1"
				req.NodeIdx = uint32(target.Index())
				req.Auths = auths
				res, _, err := a.Audit(req)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				compareVerdicts(t, label+"/"+cheat.Name, serial, res)
			}

			run("engine-dist-entries", audit.AuditRequest{
				Engine: audit.EngineDist, Entries: entries,
				Options: audit.EngineOptions{Workers: 4, Materialize: materialize},
			})
			run("engine-dist-source", audit.AuditRequest{
				Engine: audit.EngineDist, Source: audit.ContainerSource(logcomp.CompressEntries(entries)),
				Options: audit.EngineOptions{Workers: 4, Materialize: materialize},
			})
			deltaOpts := audit.EngineOptions{
				DeltaJobs: true, Materialize: materialize, DeltaSource: deltaSrc,
			}
			run("engine-dist-pool", audit.AuditRequest{
				Engine: audit.EngineDist, Entries: entries, Options: deltaOpts,
			})
			run("engine-dist-tcp", audit.AuditRequest{
				Engine: audit.EngineDist, Entries: entries, Options: deltaOpts,
				Backend: oneShot(sharedFleet(t), audit.CoordinatorConfig{}),
			})
			run("engine-dist-netsim", audit.AuditRequest{
				Engine: audit.EngineDist, Entries: entries, Options: deltaOpts,
				Backend: &audit.NetsimBackend{Net: lossyNet(31), Workers: 3, MaxAttempts: 10},
			})
			run("engine-dist-coordinator", audit.AuditRequest{
				Engine: audit.EngineDist, Entries: entries, Options: deltaOpts,
				Backend: coord.Backend(),
			})

			// Chunk engine: spot-check the honest player's first full chunk
			// through the same unified entry point.
			honest, hauths, ha, err := s.AuditInputs("player2")
			if err != nil {
				t.Fatal(err)
			}
			hentries := honest.Log.All()
			points, err := audit.FindSnapshots(hentries)
			if err != nil {
				t.Fatal(err)
			}
			if len(points) >= 2 {
				start, end := points[0], points[1]
				restored, err := honest.Snaps.Materialize(int(start.SnapIdx))
				if err != nil {
					t.Fatal(err)
				}
				// The chunk ends at a snapshot entry, covered by the
				// machine's self-signed snapshot authenticator (§4.5).
				chunkAuths := append(append([]tevlog.Authenticator(nil), hauths...),
					honest.SnapshotAuths()...)
				cres, _, err := ha.Audit(audit.AuditRequest{
					Engine: audit.EngineChunk,
					Chunk: &audit.ChunkRequest{
						Node: "player2", NodeIdx: uint32(honest.Index()),
						Start: restored, StartRoot: start.Root, PrevHash: start.EntryHash,
						Entries: hentries[start.EntryIndex+1 : end.EntryIndex+1],
						Auths:   chunkAuths,
					},
				})
				if err != nil {
					t.Fatalf("engine-chunk: %v", err)
				}
				if !cres.Passed {
					t.Errorf("engine-chunk/%s: honest chunk failed: %v", cheat.Name, cres.Fault)
				}
			}
		})
	}
}
