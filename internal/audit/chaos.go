package audit

import (
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/wire"
)

// This file is the deterministic chaos-injection harness: a ChaosPlan is a
// seeded fault schedule an EpochWorker consults before serving each
// connection, frame and job, covering the adversarial surface the
// dispatch core (sched.go, behind the Coordinator's TCP driver) must
// survive — workers that crash mid-epoch, hang forever,
// run 10x slow, lie about verdicts, flap their connections, or sit behind
// a partition until it heals. Decisions are pure functions of (seed,
// arrival ordinal), so a plan is reproducible for a fixed dispatch order
// and never needs wall-clock randomness. The equivalence suite runs the
// full cheat catalog through a chaotic fleet and asserts the audit verdict
// is byte-identical to the serial engine's under every plan — faults in
// the fleet must never surface as faults in the machine being audited.

// ChaosAction is the fate a chaos plan assigns one job.
type ChaosAction int

// Per-job chaos actions.
const (
	// ChaosNone replays the job honestly.
	ChaosNone ChaosAction = iota
	// ChaosCrash closes the connection instead of replying — a worker
	// process dying mid-epoch.
	ChaosCrash
	// ChaosHang accepts the job and never replies, keeping the connection
	// open — the failure mode timeouts and hedging exist for, invisible to
	// crash detection.
	ChaosHang
	// ChaosSlow replays honestly but 10x slower (the replay's own wall time
	// again ×9, capped) — the straggler that hedging races.
	ChaosSlow
	// ChaosLie replays and then corrupts the verdict — the Byzantine worker
	// spot rechecks exist for.
	ChaosLie
)

// ChaosPlan is a seeded, deterministic fault schedule for one worker. The
// zero value is an honest worker; rates are per-job probabilities decided
// by a hash of (Seed, job ordinal), evaluated in the order crash, hang,
// slow, lie.
type ChaosPlan struct {
	// Name labels the plan in test output and logs.
	Name string
	// Seed drives every per-ordinal decision.
	Seed uint64
	// CrashRate, HangRate, SlowRate and LieRate are per-job fault
	// probabilities; their sum should stay below 1.
	CrashRate float64
	HangRate  float64
	SlowRate  float64
	LieRate   float64
	// SlowCapDelay bounds the extra delay a ChaosSlow job sleeps. <= 0
	// selects 2s.
	SlowCapDelay time.Duration
	// FlapEveryFrames drops the connection after every Nth frame read — a
	// link that works, then doesn't, then does. 0 disables.
	FlapEveryFrames int
	// RefuseFirstConns rejects the first N connection attempts outright — a
	// partition that heals once the coordinator has knocked N times.
	RefuseFirstConns int
	// CoordCrashEpochs asks the harness to kill the *coordinator* once N
	// epoch verdicts are durable in its journal, then restart it over the
	// same journal. Workers under such a plan stay honest: the fault being
	// injected is the coordinator's own death, and the journal replay is
	// what's under test. Interpreted by the test harness, not by
	// EpochWorker. 0 disables.
	CoordCrashEpochs int
}

// admitConn reports whether connection attempt connSeq (1-based) gets
// through the partition.
func (p *ChaosPlan) admitConn(connSeq int) bool {
	return connSeq > p.RefuseFirstConns
}

// admitFrame reports whether the connection survives past frame frameSeq
// (1-based); false flaps the link.
func (p *ChaosPlan) admitFrame(frameSeq int) bool {
	return p.FlapEveryFrames <= 0 || frameSeq%p.FlapEveryFrames != 0
}

// jobAction decides the fate of the worker's jobSeq-th job.
func (p *ChaosPlan) jobAction(jobSeq int64) ChaosAction {
	if p.CrashRate+p.HangRate+p.SlowRate+p.LieRate <= 0 {
		return ChaosNone
	}
	frac := float64(splitmix64(p.Seed^uint64(jobSeq)*0x9E3779B97F4A7C15)>>11) / float64(1<<53)
	switch {
	case frac < p.CrashRate:
		return ChaosCrash
	case frac < p.CrashRate+p.HangRate:
		return ChaosHang
	case frac < p.CrashRate+p.HangRate+p.SlowRate:
		return ChaosSlow
	case frac < p.CrashRate+p.HangRate+p.SlowRate+p.LieRate:
		return ChaosLie
	}
	return ChaosNone
}

// slowCap resolves the ChaosSlow delay bound.
func (p *ChaosPlan) slowCap() time.Duration {
	if p.SlowCapDelay > 0 {
		return p.SlowCapDelay
	}
	return 2 * time.Second
}

// corrupt is the lying worker's verdict: suppress any fault and inflate
// the stats — the most dangerous lie, because it turns a caught cheater
// into a clean machine unless the coordinator spot-rechecks. The replica
// the honest replay left is kept: the lie is in the verdict, not in the
// worker's state.
func (p *ChaosPlan) corrupt(r epochResult) epochResult {
	out := epochResult{stats: r.stats}
	out.stats.Instructions += 1_000_003
	return out
}

// ChaosPlans returns the canonical six-fault plan set the equivalence
// suite runs the cheat catalog under. Each plan perturbs a different
// recovery path; seeds differ so schedules do not correlate across plans.
func ChaosPlans() []*ChaosPlan {
	return []*ChaosPlan{
		{Name: "crash-at-epoch", Seed: 0xC0FFEE01, CrashRate: 0.35},
		{Name: "hang-forever", Seed: 0xC0FFEE02, HangRate: 0.30},
		{Name: "slow-10x", Seed: 0xC0FFEE03, SlowRate: 0.45, SlowCapDelay: 250 * time.Millisecond},
		{Name: "lying-verdict", Seed: 0xC0FFEE04, LieRate: 0.40},
		{Name: "connection-flap", Seed: 0xC0FFEE05, FlapEveryFrames: 7},
		{Name: "partition-heal", Seed: 0xC0FFEE06, RefuseFirstConns: 2},
	}
}

// CoordinatorKillPlans returns the coordinator-crash plan set: honest
// fleets whose harness SIGKILLs (in-process: Kill()s) the coordinator
// after N durable verdicts and restarts it over the same journal. The
// resume suite asserts the stitched-together audit is byte-identical to
// an uninterrupted one, durable epochs are never re-dispatched, and
// redispatch of in-flight epochs stays bounded.
func CoordinatorKillPlans() []*ChaosPlan {
	return []*ChaosPlan{
		{Name: "coord-kill-first-verdict", Seed: 0xDEAD0001, CoordCrashEpochs: 1},
		{Name: "coord-kill-mid-run", Seed: 0xDEAD0002, CoordCrashEpochs: 2},
	}
}

// ChaosFleet is a set of in-process loopback replay workers, each running
// its own fault plan (nil = honest). Tests point a Coordinator — long-
// running, or the one-shot TCPBackend — at Addrs.
type ChaosFleet struct {
	Addrs     []string
	workers   []*EpochWorker
	listeners []net.Listener
}

// StartChaosFleet starts one worker per plan on a loopback listener.
func StartChaosFleet(plans []*ChaosPlan) (*ChaosFleet, error) {
	f := &ChaosFleet{}
	for i, plan := range plans {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("audit: chaos fleet worker %d: %w", i, err)
		}
		w := &EpochWorker{Chaos: plan}
		go func() { _ = w.Serve(l) }()
		f.Addrs = append(f.Addrs, l.Addr().String())
		f.workers = append(f.workers, w)
		f.listeners = append(f.listeners, l)
	}
	return f, nil
}

// JobsServed sums the jobs the fleet's workers have accepted (including
// ones chaos then crashed or hung). The coordinator-kill suite uses the
// delta across a crash/restart to bound redispatch: epochs with durable
// verdicts must not be served again.
func (f *ChaosFleet) JobsServed() int64 {
	var n int64
	for _, w := range f.workers {
		n += w.jobSeq.Load()
	}
	return n
}

// Close tears the fleet down: listeners close, live connections are cut,
// hung executors unblock.
func (f *ChaosFleet) Close() {
	for _, l := range f.listeners {
		l.Close()
	}
	for _, w := range f.workers {
		w.Drain(10 * time.Millisecond)
	}
}

// StartVerdictFilterProxy fronts a worker with a TCP proxy that drops
// every verdict frame the keep filter rejects and forwards everything
// else untouched — chaos injection at the wire, not the worker. Its
// canonical use is stranding a run deterministically: keep every verdict
// except epoch index 0's (which precedes any possible fault, so every
// run needs it) and the run can never finish, however fast the replay,
// while later epochs' verdicts flow — the setup for killing a
// coordinator that provably has unfinished journaled work. Returns the
// proxy's listener (close it to stop serving) and dial address.
func StartVerdictFilterProxy(workerAddr string, keep func(*wire.AuditVerdict) bool) (net.Listener, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go func() {
		for {
			up, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer up.Close()
				down, err := net.Dial("tcp", workerAddr)
				if err != nil {
					return
				}
				defer down.Close()
				// Coordinator→worker: verbatim; ends (closing down, which
				// unblocks the filtering direction) when the dialer hangs up.
				go func() {
					_, _ = io.Copy(down, up)
					down.Close()
				}()
				for {
					kind, body, err := readDistFrame(down)
					if err != nil {
						return
					}
					if kind == wire.DistFrameMuxVerdict {
						if _, rest, err := wire.SplitMuxID(body); err == nil {
							if v, err := wire.ParseAuditVerdict(rest); err == nil && !keep(v) {
								continue
							}
						}
					}
					if err := writeDistFrames(up, distFrame{kind, body}); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l, l.Addr().String(), nil
}
