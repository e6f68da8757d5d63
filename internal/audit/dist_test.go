package audit_test

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/game"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/snapshot"
)

// Equivalence harness for the distributed audit fan-out: whatever the
// serial auditor concludes, the dist engine — in-process, over a lossy
// simulated network, on real TCP workers — must conclude, byte for byte,
// including when workers crash mid-epoch, straggle, lie, or the transport
// drops and reorders frames.

// sharedFleet lazily starts three in-process TCP replay workers shared by
// every test in the package (each audit opens its own connections/session,
// so sharing listeners loses nothing).
var fleetOnce sync.Once
var fleetAddrs []string

func sharedFleet(t *testing.T) []string {
	t.Helper()
	fleetOnce.Do(func() {
		for i := 0; i < 3; i++ {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("fleet listener: %v", err)
			}
			go func() { _ = (&audit.EpochWorker{}).Serve(l) }() // lives as long as the test binary
			fleetAddrs = append(fleetAddrs, l.Addr().String())
		}
	})
	return fleetAddrs
}

// oneShot is the one-shot TCP backend — a fresh coordinator per run over a
// fixed fleet — with a test-sized job timeout.
func oneShot(addrs []string, cfg audit.CoordinatorConfig) *audit.TCPBackend {
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 30 * time.Second
	}
	return &audit.TCPBackend{Addrs: addrs, Config: cfg}
}

// lossyNet builds a deterministic simulated network with enough loss and
// jitter to force retransmits and out-of-order verdicts.
func lossyNet(seed uint64) *netsim.Network {
	return netsim.New(netsim.Config{
		BaseLatencyNs: 96_000,
		JitterNs:      2_000_000, // enough to reorder verdicts across epochs
		LossRate:      6000,      // ~9% of frames dropped, deterministically
		Seed:          seed,
	})
}

// distBothWays runs the three epoch backends over node's log and fails the
// test on any divergence from the serial verdict.
func distBothWays(t *testing.T, s *game.Scenario, node string, label string, serial *audit.Result) {
	t.Helper()

	pool, dstats, err := s.AuditNodeDist(sig.NodeID(node), audit.DistOptions{})
	if err != nil {
		t.Fatalf("%s: pool dist audit: %v", label, err)
	}
	compareVerdicts(t, label+": dist pool", serial, pool)
	if dstats.Epochs == 0 {
		t.Errorf("%s: pool dist audit reports zero epochs", label)
	}

	tcp, dstats, err := s.AuditNodeDist(sig.NodeID(node), audit.DistOptions{
		Backend: oneShot(sharedFleet(t), audit.CoordinatorConfig{}),
		EngineOptions: audit.EngineOptions{
			SpotRecheckFraction: 0.3,
			SpotRecheckSeed:     0xC0FFEE,
		},
	})
	if err != nil {
		t.Fatalf("%s: tcp dist audit: %v", label, err)
	}
	compareVerdicts(t, label+": dist tcp", serial, tcp)
	if dstats.SpotMismatches != 0 {
		t.Errorf("%s: honest TCP workers produced %d spot mismatches", label, dstats.SpotMismatches)
	}
	if dstats.Dispatched > 0 && dstats.WireBytes == 0 {
		t.Errorf("%s: tcp dist audit shipped no bytes for %d dispatched epochs", label, dstats.Dispatched)
	}

	sim, _, err := s.AuditNodeDist(sig.NodeID(node), audit.DistOptions{
		Backend: &audit.NetsimBackend{Net: lossyNet(77), Workers: 3, MaxAttempts: 10},
	})
	if err != nil {
		t.Fatalf("%s: netsim dist audit: %v", label, err)
	}
	compareVerdicts(t, label+": dist netsim", serial, sim)
}

// TestDistWorkerCrashRetry: a worker crashes mid-epoch — it completes the
// session handshake, reads a job, and dies without answering. The
// coordinator must re-dispatch the orphaned epoch to a surviving worker and
// deliver a merged verdict identical to the serial engine's, for a clean
// log and for a cheater. The three honest workers join only once the
// crashing one has been handed a job: with four epochs and all four workers
// there from the start, whether it ever gets one is a race.
func TestDistWorkerCrashRetry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cheat string
	}{{"clean", ""}, {"cheater", "aimbot"}} {
		t.Run(tc.name, func(t *testing.T) {
			s := distScenario(t, tc.cheat)
			serial, err := s.AuditNode("player1")
			if err != nil {
				t.Fatal(err)
			}
			coord := audit.NewCoordinator(audit.CoordinatorConfig{
				JobTimeout: 30 * time.Second, MaxAttempts: 25, DisableLocalFallback: true,
			})
			defer coord.Close()
			crashAddr, handedJob := startCrashingWorker(t)
			coord.AddWorker(crashAddr)
			honest := sharedFleet(t)
			done := make(chan struct{})
			defer close(done)
			go func() {
				select {
				case <-handedJob:
					for _, addr := range honest {
						coord.AddWorker(addr)
					}
				case <-done:
				}
			}()
			res, dstats, err := s.AuditNodeDist("player1", audit.DistOptions{Backend: coord.Backend()})
			if err != nil {
				t.Fatalf("dist audit with crashing worker: %v", err)
			}
			compareVerdicts(t, "crash-retry "+tc.name, serial, res)
			// On a clean run every crashed epoch must be re-dispatched and
			// replayed elsewhere. On a faulting run an epoch orphaned by the
			// crash may land above the earliest-fault cutoff and be dropped
			// instead — re-dispatch is only guaranteed for epochs the
			// verdict needs, which the verdict comparison above pins.
			if tc.cheat == "" && dstats.Redispatches == 0 {
				t.Errorf("crashing worker caused no re-dispatches (stats %+v)", dstats)
			}
		})
	}
}

// TestDistNetsimPartitionHeals: a partition cuts one simulated worker off
// at the start of the run and heals mid-way. Jobs routed to the
// partitioned worker must be re-dispatched on virtual-time timeouts, and
// the merged verdict must be unchanged.
func TestDistNetsimPartitionHeals(t *testing.T) {
	s := distScenario(t, "aimbot")
	serial, err := s.AuditNode("player1")
	if err != nil {
		t.Fatal(err)
	}
	n := netsim.New(netsim.Config{BaseLatencyNs: 96_000, Seed: 11})
	const healAt = 40_000_000 // 40ms of virtual time
	n.Filter = func(f netsim.Frame) bool {
		if n.Now() >= healAt {
			return true
		}
		return f.From != 1 && f.To != 1 // worker 1 unreachable until heal
	}
	res, dstats, err := s.AuditNodeDist("player1", audit.DistOptions{
		Backend: &audit.NetsimBackend{Net: n, Workers: 3, TimeoutNs: 10_000_000, MaxAttempts: 10},
	})
	if err != nil {
		t.Fatalf("dist audit across healing partition: %v", err)
	}
	compareVerdicts(t, "partition-heal", serial, res)
	if dstats.Redispatches == 0 {
		t.Errorf("partition caused no re-dispatches (stats %+v)", dstats)
	}
	if n.NodeStats(0).FramesLost == 0 {
		t.Error("filter dropped no coordinator frames; partition never engaged")
	}
}

// TestDistNetsimDeterministic: the netsim backend is the production
// scheduler on a virtual clock, single-threaded, so a run is a pure function
// of the recording and the network's seed: two runs over equally seeded
// lossy, jittered links must agree not just on the verdict but on every
// dispatch decision the stats can see.
func TestDistNetsimDeterministic(t *testing.T) {
	s := deltaScenario(t, "aimbot")
	serial, err := s.AuditNode("player1")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*audit.Result, audit.DistStats) {
		res, dstats, err := s.AuditNodeDist("player1", audit.DistOptions{
			Backend:       &audit.NetsimBackend{Net: lossyNet(4711), Workers: 3, MaxAttempts: 10},
			EngineOptions: audit.EngineOptions{DeltaJobs: true},
		})
		if err != nil {
			t.Fatalf("netsim audit: %v", err)
		}
		dstats.PrepWallNs, dstats.MergeWallNs = 0, 0 // wall clock, the only nondeterminism
		return res, dstats
	}
	res1, stats1 := run()
	res2, stats2 := run()
	compareVerdicts(t, "netsim run 1", serial, res1)
	compareVerdicts(t, "netsim run 2", serial, res2)
	if stats1 != stats2 {
		t.Fatalf("same seed, different dispatch:\n run 1 %+v\n run 2 %+v", stats1, stats2)
	}
	if stats1.Redispatches == 0 || stats1.DeltaJobsShipped == 0 {
		t.Errorf("the lossy link exercised neither retries nor delta shipping: %+v", stats1)
	}
}

// lyingBackend wraps an honest backend and corrupts every verdict passing
// through: faults are suppressed and passing stats are inflated — the
// strongest lie a worker can tell without controlling the transport.
type lyingBackend struct {
	inner audit.EpochBackend
}

func (b *lyingBackend) Run(sess audit.Session, jobs []*audit.EpochJob, skip func(int) bool, emit func(audit.EpochVerdict)) error {
	return b.inner.Run(sess, jobs, skip, func(v audit.EpochVerdict) {
		v.Fault = nil
		v.Stats.Instructions += 1000
		emit(v)
	})
}

// TestDistLyingWorkerCaught: with full spot re-replay, a backend that lies
// about every verdict cannot steer the audit — the coordinator's own
// replays win, the result is byte-identical to the serial engine, and the
// mismatches are counted.
func TestDistLyingWorkerCaught(t *testing.T) {
	s := distScenario(t, "aimbot")
	serial, err := s.AuditNode("player1")
	if err != nil {
		t.Fatal(err)
	}
	if serial.Passed {
		t.Fatal("aimbot match unexpectedly passed the serial audit")
	}
	// A loss-free link keeps every epoch's verdict deliverable, so spot
	// fraction 1 must recheck every dispatched epoch.
	reliable := netsim.New(netsim.Config{BaseLatencyNs: 96_000, Seed: 5})
	res, dstats, err := s.AuditNodeDist("player1", audit.DistOptions{
		Backend:       &lyingBackend{inner: &audit.NetsimBackend{Net: reliable, Workers: 2, MaxAttempts: 10}},
		EngineOptions: audit.EngineOptions{SpotRecheckFraction: 1},
	})
	if err != nil {
		t.Fatalf("dist audit with lying backend: %v", err)
	}
	compareVerdicts(t, "lying-worker", serial, res)
	if dstats.SpotMismatches == 0 {
		t.Error("lying backend produced no spot mismatches")
	}
	if dstats.SpotRechecked != dstats.Dispatched {
		t.Errorf("spot fraction 1 rechecked %d of %d dispatched epochs",
			dstats.SpotRechecked, dstats.Dispatched)
	}
}

// TestDistTransportFailure: a backend whose workers are unreachable must
// produce an audit *error* (the exit-2 path), never a verdict.
func TestDistTransportFailure(t *testing.T) {
	s := distScenario(t, "")
	// A listener that is closed immediately: connections are refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()
	res, _, err := s.AuditNodeDist("player1", audit.DistOptions{
		Backend: oneShot([]string{dead}, audit.CoordinatorConfig{
			DialTimeout: 500 * time.Millisecond, JobTimeout: 300 * time.Millisecond}),
	})
	if err == nil {
		t.Fatalf("dist audit over dead workers returned a verdict: %+v", res)
	}
	if res != nil {
		t.Errorf("transport failure must not carry a Result, got %+v", res)
	}
}

// TestDistStatsAccounting sanity-checks the coordinator's bookkeeping on a
// clean multi-epoch TCP run.
func TestDistStatsAccounting(t *testing.T) {
	s := distScenario(t, "")
	serial, err := s.AuditNode("player1")
	if err != nil {
		t.Fatal(err)
	}
	res, dstats, err := s.AuditNodeDist("player1", audit.DistOptions{
		Backend: oneShot(sharedFleet(t), audit.CoordinatorConfig{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	compareVerdicts(t, "stats-accounting", serial, res)
	if dstats.Epochs < 2 {
		t.Fatalf("scenario produced %d epochs; snapshots were not exploited", dstats.Epochs)
	}
	if dstats.Dispatched != dstats.Epochs {
		t.Errorf("dispatched %d of %d epochs on a clean run", dstats.Dispatched, dstats.Epochs)
	}
	if dstats.CoordinatorFaults != 0 {
		t.Errorf("clean run reported %d coordinator faults", dstats.CoordinatorFaults)
	}
}

// distScenario is a short two-player match with periodic snapshots,
// optionally with player1 running a catalog cheat, recorded once per test
// binary (recordShared): callers only read it.
func distScenario(t *testing.T, cheat string) *game.Scenario {
	t.Helper()
	cfg := game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 4242, SnapshotEveryNs: 1_500_000_000, FakeSignatures: true,
	}
	if cheat != "" {
		c, err := game.CatalogByName(cheat)
		if err != nil {
			t.Fatal(err)
		}
		cfg.CheatPlayer = 1
		cfg.Cheat = c
	}
	return recordShared(t, cfg, 6_000_000_000)
}

// startCrashingWorker starts a TCP worker that acknowledges the session,
// reads one job frame, and drops the connection without replying — a
// worker crashing mid-epoch. It does the same on every connection, so
// retries against it keep failing. The channel closes when the first job
// has been read.
func startCrashingWorker(t *testing.T) (addr string, handedJob <-chan struct{}) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	handed := make(chan struct{})
	var once sync.Once
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				// Accept the session (frame format: 4-byte BE length, kind
				// byte, body; a mux body opens with the session id).
				body, err := readTestFrame(conn)
				if err != nil || len(body) < 2 {
					return
				}
				writeTestFrame(conn, 7, body[1:2]) // MuxSessionOK, echo the id
				// Read one job, then crash.
				if _, err := readTestFrame(conn); err == nil {
					once.Do(func() { close(handed) })
				}
			}()
		}
	}()
	return l.Addr().String(), handed
}

// readTestFrame / writeTestFrame speak the coordinator↔worker framing for
// test doubles (saboteur workers) without exporting the real helpers.
func readTestFrame(conn net.Conn) ([]byte, error) {
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(conn, hdr); err != nil {
		return nil, err
	}
	n := uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3])
	if n == 0 || n > 1<<30 {
		return nil, errors.New("bad frame length")
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(conn, body); err != nil {
		return nil, err
	}
	return body, nil
}

func writeTestFrame(conn net.Conn, kind byte, body []byte) {
	n := uint32(1 + len(body))
	hdr := []byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n), kind}
	conn.Write(hdr)
	conn.Write(body)
}

// TestDistNoMaterializer: without a snapshot source the distributed audit
// degenerates to a single boot epoch shipped to one worker — and still
// matches the serial verdict.
func TestDistNoMaterializer(t *testing.T) {
	s := distScenario(t, "")
	target, auths, a, err := s.AuditInputs("player2")
	if err != nil {
		t.Fatal(err)
	}
	req := audit.AuditRequest{Node: "player2", NodeIdx: uint32(target.Index()), Entries: target.Log.Entries(), Auths: auths}
	serial, _, err := a.Audit(req)
	if err != nil {
		t.Fatal(err)
	}
	req.Engine, req.Backend = audit.EngineDist, oneShot(sharedFleet(t), audit.CoordinatorConfig{})
	res, astats, err := a.Audit(req)
	if err != nil {
		t.Fatal(err)
	}
	compareVerdicts(t, "no-materializer dist", serial, res)
	if dstats := astats.Dist; dstats.Epochs != 1 {
		t.Errorf("epochs = %d, want 1 without a materializer", dstats.Epochs)
	}
}

// TestDistCoordinatorVerifiesRoots: corrupt the coordinator's snapshot
// source for one epoch. The coordinator must fault that epoch before
// dispatch — the job never reaches a worker — with the same CheckSnapshot
// fault the in-process engine reports.
func TestDistCoordinatorVerifiesRoots(t *testing.T) {
	s := distScenario(t, "")
	target, auths, a, err := s.AuditInputs("player1")
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(snapIdx uint32) (*snapshot.Restored, error) {
		r, err := target.Snaps.Materialize(int(snapIdx))
		if err != nil {
			return nil, err
		}
		if snapIdx == 1 {
			r.Mem = append([]byte(nil), r.Mem...)
			r.Mem[42] ^= 0xFF // no longer matches the committed root
		}
		return r, nil
	}
	req := audit.AuditRequest{
		Node: "player1", NodeIdx: uint32(target.Index()), Entries: target.Log.Entries(), Auths: auths,
		Engine: audit.EngineParallel, Options: audit.EngineOptions{Workers: 4, Materialize: corrupt},
	}
	serial, _, err := a.Audit(req)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Passed || serial.Fault.Check != audit.CheckSnapshot {
		t.Fatalf("parallel engine fault = %+v, want snapshot check", serial.Fault)
	}
	req.Engine, req.Backend = audit.EngineDist, oneShot(sharedFleet(t), audit.CoordinatorConfig{})
	req.Options = audit.EngineOptions{Materialize: corrupt}
	res, astats, err := a.Audit(req)
	if err != nil {
		t.Fatal(err)
	}
	compareVerdicts(t, "coordinator-root-check", serial, res)
	if astats.Dist.CoordinatorFaults == 0 {
		t.Error("corrupted start state was not caught before dispatch")
	}
	if !strings.Contains(res.Fault.Detail, "does not match committed root") {
		t.Errorf("fault is not a root mismatch: %s", res.Fault.Detail)
	}
}
