package audit_test

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/game"
	"repro/internal/netsim"
	"repro/internal/sig"
)

// Chaos-equivalence suite for the coordinator service: the full cheat
// catalog replays through fleets running every deterministic fault plan —
// crashes, hangs, 10x stragglers, lying verdicts, flapping links, healing
// partitions — and the merged verdict must stay byte-identical to the
// serial engine's with a bounded number of re-dispatches. Plus targeted
// coverage for worker hangs (satellite of the crash tests), mid-audit
// join/leave, graceful drain, and local fallback.

// coordScenario is a short two-player match (snapshots every 1s of
// virtual time, ~3 replay epochs) for coordinator tests, recorded once per
// test binary (recordShared): callers only read it. Cheaper than
// distScenario so the plan×cheat product stays affordable.
func coordScenario(t *testing.T, cheat string) *game.Scenario {
	t.Helper()
	cfg := game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 2718, SnapshotEveryNs: 1_000_000_000, FakeSignatures: true,
	}
	if cheat != "" {
		c, err := game.CatalogByName(cheat)
		if err != nil {
			t.Fatal(err)
		}
		cfg.CheatPlayer = 1
		cfg.Cheat = c
	}
	return recordShared(t, cfg, 3_000_000_000)
}

// TestCoordinatorEndsSessions: a worker outlives every audit it serves, so
// each run a coordinator finishes must leave nothing behind on it. After
// three delta-shipped audits through one coordinator and one long-lived
// worker, the worker holds no session and no replica.
func TestCoordinatorEndsSessions(t *testing.T) {
	s := deltaScenario(t, "")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &audit.EpochWorker{}
	go func() { _ = w.Serve(l) }()
	t.Cleanup(func() { w.Drain(time.Second) })
	coord := audit.NewCoordinator(audit.CoordinatorConfig{
		JobTimeout: time.Minute, HedgeAfter: -1, DisableLocalFallback: true,
	})
	defer coord.Close()
	coord.AddWorker(l.Addr().String())
	for _, node := range []sig.NodeID{"player1", "player2", "player1"} {
		_, dstats, err := s.AuditNodeDist(node, audit.DistOptions{Backend: coord.Backend(), EngineOptions: deltaOn()})
		if err != nil {
			t.Fatalf("%s: %v", node, err)
		}
		if dstats.Dispatched == 0 || dstats.DeltaJobsShipped == 0 {
			t.Fatalf("%s: %d jobs dispatched, %d of them delta: the worker held nothing to leak", node, dstats.Dispatched, dstats.DeltaJobsShipped)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		sessions, replicas := w.Holding()
		if sessions == 0 && replicas == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after three finished runs the worker holds %d sessions and %d replicas", sessions, replicas)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// testCoordinator builds a coordinator with timeouts shrunk for tests:
// job timeout 2s, hedge at 150ms, heartbeat at 100ms.
func testCoordinator(cfg audit.CoordinatorConfig) *audit.Coordinator {
	if cfg.Pipeline == 0 {
		cfg.Pipeline = 2
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 2 * time.Second
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 150 * time.Millisecond
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 5 * time.Millisecond
	}
	if cfg.RetryMaxBackoff == 0 {
		cfg.RetryMaxBackoff = 50 * time.Millisecond
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 100 * time.Millisecond
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = time.Second
	}
	if cfg.RedialBackoff == 0 {
		cfg.RedialBackoff = 5 * time.Millisecond
	}
	if cfg.RedialMaxBackoff == 0 {
		cfg.RedialMaxBackoff = 100 * time.Millisecond
	}
	return audit.NewCoordinator(cfg)
}

// TestCoordinatorChaosEquivalence: the whole cheat catalog, audited
// through a three-worker fleet where two workers run a chaos plan and one
// is honest, for each of the canonical plans. Local fallback is disabled
// so the fleet itself must survive every fault; the lying plan runs with
// full spot recheck, which is the documented requirement for a Byzantine
// fleet. Verdicts must match the serial engine byte for byte and retries
// must stay within the dispatch budget.
func TestCoordinatorChaosEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos equivalence suite in -short mode")
	}
	type recording struct {
		name   string
		s      *game.Scenario
		serial *audit.Result
	}
	names := []string{""}
	for _, c := range game.Catalog() {
		names = append(names, c.Name)
	}
	recs := make([]recording, 0, len(names))
	for _, name := range names {
		s := coordScenario(t, name)
		serial, err := s.AuditNode("player1")
		if err != nil {
			t.Fatalf("serial audit (%s): %v", name, err)
		}
		label := name
		if label == "" {
			label = "clean"
		}
		recs = append(recs, recording{name: label, s: s, serial: serial})
	}

	for _, plan := range audit.ChaosPlans() {
		t.Run(plan.Name, func(t *testing.T) {
			second := *plan
			second.Seed ^= 0xA5A5_A5A5
			fleet, err := audit.StartChaosFleet([]*audit.ChaosPlan{plan, &second, nil})
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close()
			coord := testCoordinator(audit.CoordinatorConfig{DisableLocalFallback: true})
			defer coord.Close()
			for _, addr := range fleet.Addrs {
				coord.AddWorker(addr)
			}
			spot := 0.25
			if plan.LieRate > 0 {
				spot = 1 // a lying fleet demands full spot recheck
			}
			for _, rec := range recs {
				res, dstats, err := rec.s.AuditNodeDist("player1", audit.DistOptions{
					Backend: coord.Backend(),
					EngineOptions: audit.EngineOptions{
						SpotRecheckFraction: spot,
						SpotRecheckSeed:     0xBADD,
					},
				})
				if err != nil {
					t.Fatalf("%s/%s: coordinator audit: %v", plan.Name, rec.name, err)
				}
				compareVerdicts(t, plan.Name+"/"+rec.name, rec.serial, res)
				if dstats.Redispatches > 8*dstats.Epochs {
					t.Errorf("%s/%s: %d re-dispatches for %d epochs exceeds the dispatch budget",
						plan.Name, rec.name, dstats.Redispatches, dstats.Epochs)
				}
			}
			stats := coord.Stats()
			if stats.EpochsDone == 0 {
				t.Errorf("%s: fleet replayed no epochs (stats %+v)", plan.Name, stats)
			}
		})
	}
}

// TestCoordinatorJoinLeave: workers join and leave while audits are in
// flight. The fleet starts as one uniformly slow worker; an honest worker
// hot-joins mid-audit and the slow one is removed, with three audits
// running concurrently through the shared queue the whole time. Every
// verdict must match the serial engine.
func TestCoordinatorJoinLeave(t *testing.T) {
	s := coordScenario(t, "aimbot")
	serial, err := s.AuditNode("player1")
	if err != nil {
		t.Fatal(err)
	}
	slowPlan := &audit.ChaosPlan{Name: "all-slow", Seed: 99, SlowRate: 1, SlowCapDelay: 150 * time.Millisecond}
	fleet, err := audit.StartChaosFleet([]*audit.ChaosPlan{slowPlan, nil})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	slowAddr, honestAddr := fleet.Addrs[0], fleet.Addrs[1]

	coord := testCoordinator(audit.CoordinatorConfig{DisableLocalFallback: true})
	defer coord.Close()
	coord.AddWorker(slowAddr)

	const audits = 3
	results := make([]*audit.Result, audits)
	errs := make([]error, audits)
	var wg sync.WaitGroup
	for i := 0; i < audits; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = s.AuditNodeDist("player1", audit.DistOptions{
				Backend: coord.Backend(), EngineOptions: audit.EngineOptions{SpotRecheckFraction: 0.25},
			})
		}(i)
	}
	// Let the slow worker pick up the head of the queue, then reshape the
	// fleet under the running audits.
	time.Sleep(100 * time.Millisecond)
	coord.AddWorker(honestAddr)
	time.Sleep(100 * time.Millisecond)
	coord.RemoveWorker(slowAddr)
	wg.Wait()

	for i := 0; i < audits; i++ {
		if errs[i] != nil {
			t.Fatalf("audit %d through elastic fleet: %v", i, errs[i])
		}
		compareVerdicts(t, fmt.Sprintf("join-leave audit %d", i), serial, results[i])
	}
	if got := coord.Stats().WorkersRegistered; got != 1 {
		t.Errorf("workers registered after remove = %d, want 1", got)
	}
}

// startMuxHangingWorker is the hang saboteur for the coordinator
// protocol: it registers sessions and answers every ping — so crash
// detection and heartbeat liveness both see a healthy worker — but
// accepts jobs and never replies. Only the job timeout can catch it.
func startMuxHangingWorker(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					body, err := readTestFrame(conn)
					if err != nil {
						return
					}
					switch body[0] {
					case 6: // MuxSession: ack so jobs start flowing
						writeTestFrame(conn, 7, body[1:2]) // MuxSessionOK, echo the id
					case 10: // Ping: stay "alive"
						writeTestFrame(conn, 11, body[1:])
					case 8: // MuxJob: swallow it and never answer
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// TestCoordinatorWorkerHang: a worker that hangs (accepts jobs, never
// replies, keeps heartbeating) is a different failure from a crash — the
// connection stays perfectly healthy. The job timeout must fire, the
// epoch must re-dispatch to the honest worker, the hung connection must
// be reaped, and nothing may leak: the goroutine count settles back once
// the coordinator closes. The one-shot row runs the same fault through
// TCPBackend, with the hang injected by a ChaosHang plan on a real worker.
func TestCoordinatorWorkerHang(t *testing.T) {
	// A clean log: every epoch's verdict is needed, so an epoch swallowed
	// by the hung worker cannot hide behind the earliest-fault cutoff.
	s := coordScenario(t, "")
	serial, err := s.AuditNode("player1")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("service", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		hangAddr := startMuxHangingWorker(t)
		fleet, err := audit.StartChaosFleet([]*audit.ChaosPlan{nil})
		if err != nil {
			t.Fatal(err)
		}
		coord := testCoordinator(audit.CoordinatorConfig{
			DisableLocalFallback: true,
			JobTimeout:           500 * time.Millisecond,
			HedgeAfter:           -1, // no hedging: recovery must come from the timeout
		})
		coord.AddWorker(hangAddr)

		done := make(chan struct{})
		var res *audit.Result
		var dstats audit.DistStats
		var auditErr error
		go func() {
			defer close(done)
			res, dstats, auditErr = s.AuditNodeDist("player1", audit.DistOptions{Backend: coord.Backend()})
		}()
		// Let the hung worker soak up the head of the queue, then hot-join
		// the honest worker that must take over.
		time.Sleep(150 * time.Millisecond)
		coord.AddWorker(fleet.Addrs[0])
		<-done
		if auditErr != nil {
			t.Fatalf("audit with hanging worker: %v", auditErr)
		}
		compareVerdicts(t, "worker-hang", serial, res)
		stats := coord.Stats()
		if stats.Retries == 0 {
			t.Errorf("hung worker triggered no job-timeout re-dispatches (stats %+v)", stats)
		}
		if dstats.Redispatches == 0 {
			t.Errorf("dist stats recorded no re-dispatches (%+v)", dstats)
		}

		coord.Close()
		fleet.Close()
		// Goroutine-leak check: hung connections and their read/send loops
		// must all be gone shortly after Close.
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			if n := runtime.NumGoroutine(); n <= baseline+3 {
				break
			} else if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutines leaked after coordinator close: %d > baseline %d\n%s",
					n, baseline, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(20 * time.Millisecond)
		}
	})

	t.Run("one-shot", func(t *testing.T) {
		// A two-worker fleet (saboteur + one honest): the hanging worker
		// owns half the run's block, so it always soaks up at least one
		// job, and no earliest-fault cutoff can skip it.
		fleet, err := audit.StartChaosFleet([]*audit.ChaosPlan{{Name: "hang", HangRate: 1}, nil})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		res, dstats, err := s.AuditNodeDist("player1", audit.DistOptions{
			Backend: oneShot(fleet.Addrs, audit.CoordinatorConfig{
				JobTimeout: 500 * time.Millisecond, HedgeAfter: -1, MaxAttempts: 25,
				RetryBackoff: 5 * time.Millisecond, RetryMaxBackoff: 50 * time.Millisecond,
			}),
		})
		if err != nil {
			t.Fatalf("one-shot audit with hanging worker: %v", err)
		}
		compareVerdicts(t, "one-shot-worker-hang", serial, res)
		if dstats.Redispatches == 0 {
			t.Errorf("hanging worker caused no re-dispatches (stats %+v)", dstats)
		}
	})
}

// TestCoordinatorLocalFallback: a coordinator with an empty fleet
// degrades to local replay and still produces the serial verdict.
func TestCoordinatorLocalFallback(t *testing.T) {
	s := coordScenario(t, "aimbot")
	serial, err := s.AuditNode("player1")
	if err != nil {
		t.Fatal(err)
	}
	coord := testCoordinator(audit.CoordinatorConfig{})
	defer coord.Close()
	res, _, err := s.AuditNodeDist("player1", audit.DistOptions{Backend: coord.Backend()})
	if err != nil {
		t.Fatalf("audit with empty fleet: %v", err)
	}
	compareVerdicts(t, "local-fallback", serial, res)
	if got := coord.Stats().LocalFallbackEpochs; got == 0 {
		t.Error("empty fleet replayed no epochs through local fallback")
	}
}

// TestCoordinatorDeadFleetFails: with local fallback disabled and no
// worker that can finish an epoch, the audit must fail with a transport
// error (the exit-2 path), not hang and not fabricate a verdict. An
// unreachable fleet starves out at JobTimeout; a fleet consisting only of
// a crashing worker burns every epoch's attempts, which must surface as
// ErrRetriesExhausted both in the audit error and in DistStats.
func TestCoordinatorDeadFleetFails(t *testing.T) {
	s := coordScenario(t, "")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	t.Run("service-unreachable", func(t *testing.T) {
		coord := testCoordinator(audit.CoordinatorConfig{
			DisableLocalFallback: true,
			JobTimeout:           300 * time.Millisecond,
		})
		defer coord.Close()
		coord.AddWorker(dead)
		res, _, err := s.AuditNodeDist("player1", audit.DistOptions{Backend: coord.Backend()})
		if err == nil {
			t.Fatalf("audit against dead fleet returned a verdict: %+v", res)
		}
		if res != nil {
			t.Errorf("transport failure must not carry a Result, got %+v", res)
		}
	})

	t.Run("one-shot-retries-exhausted", func(t *testing.T) {
		crashAddr, _ := startCrashingWorker(t)
		res, dstats, err := s.AuditNodeDist("player1", audit.DistOptions{
			Backend: oneShot([]string{crashAddr}, audit.CoordinatorConfig{
				MaxAttempts: 3, JobTimeout: 5 * time.Second,
				RetryBackoff: time.Millisecond, RetryMaxBackoff: 10 * time.Millisecond,
			}),
		})
		if err == nil {
			t.Fatalf("audit with only a crashing worker returned a verdict: %+v", res)
		}
		if !errors.Is(err, audit.ErrRetriesExhausted) {
			t.Errorf("audit error does not wrap ErrRetriesExhausted: %v", err)
		}
		if dstats.RetriesExhausted == 0 {
			t.Errorf("DistStats did not count exhausted epochs (%+v)", dstats)
		}
	})
}

// TestCoordinatorWorkerDrain: a worker draining mid-audit answers with
// DistFrameDrain; its epochs must flow back to the queue and finish via
// local fallback, verdict unchanged.
func TestCoordinatorWorkerDrain(t *testing.T) {
	s := coordScenario(t, "aimbot")
	serial, err := s.AuditNode("player1")
	if err != nil {
		t.Fatal(err)
	}
	slowPlan := &audit.ChaosPlan{Name: "drain-slow", Seed: 7, SlowRate: 1, SlowCapDelay: 150 * time.Millisecond}
	fleet, err := audit.StartChaosFleet([]*audit.ChaosPlan{slowPlan})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	coord := testCoordinator(audit.CoordinatorConfig{})
	defer coord.Close()
	coord.AddWorker(fleet.Addrs[0])

	done := make(chan struct{})
	var res *audit.Result
	var auditErr error
	go func() {
		defer close(done)
		res, _, auditErr = s.AuditNodeDist("player1", audit.DistOptions{Backend: coord.Backend()})
	}()
	time.Sleep(120 * time.Millisecond)
	fleet.Close() // drains the worker mid-audit
	<-done
	if auditErr != nil {
		t.Fatalf("audit across worker drain: %v", auditErr)
	}
	compareVerdicts(t, "worker-drain", serial, res)
}

// tapBackend wraps a backend, rewrites each verdict through tap, and can
// force Run's return error — the late-transport-failure saboteur.
type tapBackend struct {
	inner  audit.EpochBackend
	tap    func(audit.EpochVerdict) audit.EpochVerdict
	runErr error
}

func (b *tapBackend) Run(sess audit.Session, jobs []*audit.EpochJob, skip func(int) bool, emit func(audit.EpochVerdict)) error {
	if err := b.inner.Run(sess, jobs, skip, func(v audit.EpochVerdict) { emit(b.tap(v)) }); err != nil {
		return err
	}
	return b.runErr
}

// reliableNetsim is a simulated fleet of two workers on a loss-free link.
func reliableNetsim() *audit.NetsimBackend {
	return &audit.NetsimBackend{Net: netsim.New(netsim.Config{BaseLatencyNs: 96_000, Seed: 5}), Workers: 2, MaxAttempts: 10}
}

// TestDistLateTransportFailureIgnored: transport failures past the
// earliest-fault cutoff — errored verdicts for later epochs and a backend
// that reports its workers lost after the final needed verdict — must not
// turn a caught cheater into an audit error.
func TestDistLateTransportFailureIgnored(t *testing.T) {
	s := coordScenario(t, "aimbot")
	serial, err := s.AuditNode("player1")
	if err != nil {
		t.Fatal(err)
	}
	if serial.Passed {
		t.Fatal("aimbot match unexpectedly passed the serial audit")
	}
	// Pass 1: learn the fault epoch from an honest run.
	var mu sync.Mutex
	faultEpoch := -1
	probe, _, err := s.AuditNodeDist("player1", audit.DistOptions{
		Backend: &tapBackend{inner: reliableNetsim(), tap: func(v audit.EpochVerdict) audit.EpochVerdict {
			if v.Fault != nil {
				mu.Lock()
				if faultEpoch < 0 || v.Index < faultEpoch {
					faultEpoch = v.Index
				}
				mu.Unlock()
			}
			return v
		}},
	})
	if err != nil || probe.Passed {
		t.Fatalf("probe audit: err=%v", err)
	}
	if faultEpoch < 0 {
		t.Fatal("probe audit emitted no faulting epoch")
	}
	// Pass 2: every epoch after the fault fails in transport, and Run
	// itself errors after the dust settles.
	res, _, err := s.AuditNodeDist("player1", audit.DistOptions{
		Backend: &tapBackend{
			inner: reliableNetsim(),
			tap: func(v audit.EpochVerdict) audit.EpochVerdict {
				if v.Index > faultEpoch {
					return audit.EpochVerdict{Index: v.Index, Err: errors.New("transport lost after the fault")}
				}
				return v
			},
			runErr: errors.New("backend: workers lost after final verdict"),
		},
	})
	if err != nil {
		t.Fatalf("late transport failure aborted the audit: %v", err)
	}
	compareVerdicts(t, "late-transport-failure", serial, res)
}
