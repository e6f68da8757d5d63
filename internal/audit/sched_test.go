package audit

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
	"repro/internal/wire"
)

// The dispatch core tested as what it is: a state machine. Every test
// drives the scheduler's entry points directly with synthetic time — no
// sockets, no goroutines, no sleeps — and checks the decision it makes:
// the capped, deterministically jittered retry backoff; take's
// prefer-untried-live-worker placement (the property that guarantees an
// epoch eventually reaches an honest worker in any fleet that has one);
// blocks, stealing and flushing; hedging, job timeouts and reaping;
// starvation; and the delta base across a need-state.

// schedEpoch is the synthetic clock's origin.
var schedEpoch = time.Unix(1_000, 0)

func testScheduler(cfg CoordinatorConfig) *scheduler {
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	if cfg.RetryMaxBackoff == 0 {
		cfg.RetryMaxBackoff = 80 * time.Millisecond
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = time.Second
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = -1
	}
	cfg.BackoffSeed = 42
	cfg = cfg.withDefaults()
	return newScheduler(cfg)
}

// schedWorkers registers the named workers and attaches a connection to
// each one listed in live.
func schedWorkers(s *scheduler, live map[string]bool, addrs ...string) []*schedWorker {
	ws := make([]*schedWorker, len(addrs))
	for i, addr := range addrs {
		ws[i] = s.addWorker(addr)
		if live[addr] {
			s.attach(ws[i], schedEpoch)
		}
	}
	return ws
}

// schedTestRun adds a run of n unit-cost, non-boot epochs (epoch i starts
// at snapshot i+1 and ends at snapshot i+2) and records what the scheduler
// emits for it.
type schedTestRun struct {
	*schedRun
	emitted []EpochVerdict
}

func addTestRun(t *testing.T, s *scheduler, n int, delta bool) *schedTestRun {
	t.Helper()
	r := &schedTestRun{}
	r.schedRun = &schedRun{
		sess: Session{RefImage: &vm.Image{}},
		skip: func(int) bool { return false },
		emit: func(v EpochVerdict) { r.emitted = append(r.emitted, v) },
	}
	if delta {
		r.sess.deltaSrc = func(k uint32) (*snapshot.Delta, error) { return nil, errors.New("test: no deltas") }
	}
	jobs := make([]*EpochJob, n)
	for i := range jobs {
		jobs[i] = &EpochJob{Index: i, Cost: 100, StartSnap: uint32(i + 1), Entries: []tevlog.Entry{closingEntry(uint32(i + 2))}}
	}
	if _, err := s.addRun(r.schedRun, jobs, nil, schedEpoch); err != nil {
		t.Fatal(err)
	}
	return r
}

// closingEntry is the snapshot entry an epoch slice ends with, committing
// snapshot snap.
func closingEntry(snap uint32) tevlog.Entry {
	ev := &wire.EventContent{Kind: wire.EventSnapshot, SnapIdx: snap, Root: [32]byte{byte(snap)}}
	return tevlog.Entry{Type: tevlog.TypeSnapshot, Content: ev.Marshal()}
}

// shipAll drains next for w at now and returns the epoch indices shipped.
func shipAll(t *testing.T, s *scheduler, w *schedWorker, now time.Time) (shipped []int) {
	t.Helper()
	for {
		sh, _, failed := s.next(w, now)
		deliverAll(failed)
		if sh == nil {
			return shipped
		}
		shipped = append(shipped, sh.task.job.Index)
	}
}

func TestBackoffDelayEnvelope(t *testing.T) {
	s := testScheduler(CoordinatorConfig{})
	// The exponential step for attempt a is base·2^(a-1), capped; the
	// jittered delay must land in [step/2, step).
	for attempt := 1; attempt <= 10; attempt++ {
		step := 10 * time.Millisecond << (attempt - 1)
		if step > s.cfg.RetryMaxBackoff {
			step = s.cfg.RetryMaxBackoff
		}
		for index := 0; index < 16; index++ {
			d := s.backoffDelay(index, attempt)
			if d < step/2 || d >= step {
				t.Fatalf("backoffDelay(%d, %d) = %v, want in [%v, %v)", index, attempt, d, step/2, step)
			}
		}
	}
}

func TestBackoffDelayCap(t *testing.T) {
	s := testScheduler(CoordinatorConfig{})
	for attempt := 4; attempt <= 40; attempt++ {
		if d := s.backoffDelay(3, attempt); d >= s.cfg.RetryMaxBackoff {
			t.Fatalf("backoffDelay(3, %d) = %v breaches the %v cap", attempt, d, s.cfg.RetryMaxBackoff)
		}
	}
}

func TestBackoffDelayDeterministicJitter(t *testing.T) {
	s := testScheduler(CoordinatorConfig{})
	// Same seed, index and attempt → same delay, always.
	for index := 0; index < 8; index++ {
		for attempt := 1; attempt <= 4; attempt++ {
			if a, b := s.backoffDelay(index, attempt), s.backoffDelay(index, attempt); a != b {
				t.Fatalf("backoffDelay(%d, %d) not deterministic: %v vs %v", index, attempt, a, b)
			}
		}
	}
	// And the jitter does spread across indices: all-equal delays would
	// mean synchronized retry stampedes.
	seen := make(map[time.Duration]bool)
	for index := 0; index < 32; index++ {
		seen[s.backoffDelay(index, 3)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("jitter collapsed: 32 indices produced %d distinct delays", len(seen))
	}
}

// queuedTask puts one epoch of a fresh run on the shared queue (no worker
// is registered yet, so addRun queues instead of cutting blocks), marked
// as already tried on the given workers.
func queuedTask(t *testing.T, s *scheduler, tried ...string) *schedTask {
	t.Helper()
	task := addTestRun(t, s, 1, false).tasks[0]
	for _, addr := range tried {
		task.triedOn[addr] = true
	}
	return task
}

func TestTakeLockedPrefersUntriedLiveWorker(t *testing.T) {
	s := testScheduler(CoordinatorConfig{})
	task := queuedTask(t, s, "w1")
	ws := schedWorkers(s, map[string]bool{"w1": true, "w2": true}, "w1", "w2")

	picked, _, failed := s.take(ws[0], schedEpoch)
	if picked != nil || len(failed) != 0 {
		t.Fatalf("w1 (already tried) got the task while untried live w2 exists: picked=%v", picked)
	}
	if !task.queued {
		t.Fatal("deferred task must stay queued for the untried worker")
	}
	if picked, _, _ = s.take(ws[1], schedEpoch); picked != task {
		t.Fatalf("untried live w2 did not get the task: picked=%v", picked)
	}
	if !task.triedOn["w2"] || task.acct.Attempts != 1 {
		t.Fatalf("placement bookkeeping off: triedOn=%v attempts=%d", task.triedOn, task.acct.Attempts)
	}
}

func TestTakeLockedRetriesOnTriedWorkerWhenAlone(t *testing.T) {
	s := testScheduler(CoordinatorConfig{})
	task := queuedTask(t, s, "w1")
	// w2 is registered but dead: not "live untried".
	ws := schedWorkers(s, map[string]bool{"w1": true}, "w1", "w2")
	if picked, _, _ := s.take(ws[0], schedEpoch); picked != task {
		t.Fatal("with no live untried alternative, the tried worker must retry the task")
	}
}

func TestTakeLockedLocalPoolIgnoresPlacement(t *testing.T) {
	s := testScheduler(CoordinatorConfig{})
	task := queuedTask(t, s, "w1")
	// The local-fallback pool (w == nil) has no placement history to
	// respect: it may pick up any eligible task.
	if picked, _, _ := s.take(nil, schedEpoch); picked != task {
		t.Fatal("local pool must take the task regardless of triedOn")
	}
	if task.triedOn["local"] || len(task.triedOn) != 1 {
		t.Fatalf("local pickup must not record remote placement: triedOn=%v", task.triedOn)
	}
}

func TestTakeLockedHonorsEligibleAt(t *testing.T) {
	s := testScheduler(CoordinatorConfig{})
	task := queuedTask(t, s)
	task.eligibleAt = schedEpoch.Add(time.Minute)
	ws := schedWorkers(s, map[string]bool{"w1": true}, "w1")

	picked, nextAt, _ := s.take(ws[0], schedEpoch)
	if picked != nil {
		t.Fatal("backoff-delayed task dispatched before its eligibility")
	}
	if !nextAt.Equal(task.eligibleAt) {
		t.Fatalf("nextAt = %v, want the deferred task's eligibleAt %v", nextAt, task.eligibleAt)
	}
}

// TestSchedBlocksAndStealing: each worker drains its own contiguous block;
// a worker that runs dry steals the back half of the fullest block, and
// the stolen half stays contiguous.
func TestSchedBlocksAndStealing(t *testing.T) {
	s := testScheduler(CoordinatorConfig{Pipeline: 2})
	ws := schedWorkers(s, map[string]bool{"w1": true, "w2": true}, "w1", "w2")
	run := addTestRun(t, s, 12, false)

	if got := shipAll(t, s, ws[0], schedEpoch); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("w1 shipped %v, want the front of its own block [0 1]", got)
	}
	if got := shipAll(t, s, ws[1], schedEpoch); !slices.Equal(got, []int{6, 7}) {
		t.Fatalf("w2 shipped %v, want the front of its own block [6 7]", got)
	}
	// w2 answers everything it is given until its block is dry.
	now := schedEpoch
	answer := func(w *schedWorker, index int) {
		t.Helper()
		now = now.Add(time.Millisecond)
		out, ok := s.verdict(w, run.id, &wire.AuditVerdict{Index: uint64(index)}, 8, now)
		if !ok {
			t.Fatalf("verdict for epoch %d was not the first", index)
		}
		out.deliver()
	}
	for _, idx := range []int{6, 7} {
		answer(ws[1], idx)
	}
	if got := shipAll(t, s, ws[1], now); !slices.Equal(got, []int{8, 9}) {
		t.Fatalf("w2 shipped %v, want [8 9]", got)
	}
	answer(ws[1], 8)
	// One slot is free but epoch 9 is still in flight: w2 takes the rest of
	// its own block and must not steal yet.
	if got := shipAll(t, s, ws[1], now); !slices.Equal(got, []int{10}) {
		t.Fatalf("w2 shipped %v with a job in flight, want [10]", got)
	}
	answer(ws[1], 9)
	if got := shipAll(t, s, ws[1], now); !slices.Equal(got, []int{11}) {
		t.Fatalf("w2 shipped %v, want [11]", got)
	}
	answer(ws[1], 10)
	if got := shipAll(t, s, ws[1], now); len(got) != 0 {
		t.Fatalf("w2 stole %v while epoch 11 was in flight", got)
	}
	answer(ws[1], 11)
	// Dry and idle: w1 still holds [2 3 4 5]; the thief takes the back
	// half, contiguous and in order.
	if got := shipAll(t, s, ws[1], now); !slices.Equal(got, []int{4, 5}) {
		t.Fatalf("w2 stole %v, want the contiguous back half [4 5]", got)
	}
	for _, idx := range []int{0, 1} {
		answer(ws[0], idx)
	}
	if got := shipAll(t, s, ws[0], now); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("w1 shipped %v after the theft, want the front half [2 3]", got)
	}
}

// TestSchedDetachFlushesBlock: a detached worker's in-flight epochs requeue
// with backoff, and its unclaimed block returns to the shared queue at
// once, where the surviving worker picks it up in order.
func TestSchedDetachFlushesBlock(t *testing.T) {
	s := testScheduler(CoordinatorConfig{Pipeline: 1})
	ws := schedWorkers(s, map[string]bool{"w1": true, "w2": true}, "w1", "w2")
	run := addTestRun(t, s, 6, false)
	shipAll(t, s, ws[0], schedEpoch) // epoch 0 in flight on w1
	shipAll(t, s, ws[1], schedEpoch) // epoch 3 in flight on w2

	s.detach(ws[0], schedEpoch)
	if ws[0].live || len(ws[0].inflight) != 0 {
		t.Fatal("detach left connection state behind")
	}
	if got := s.reg.Counter("retries").Value(); got != 1 {
		t.Fatalf("retries = %d, want 1 (the in-flight epoch)", got)
	}
	lost := run.tasks[0]
	if !lost.queued || !lost.eligibleAt.After(schedEpoch) {
		t.Fatalf("in-flight epoch requeued without backoff: queued=%v eligibleAt=%v", lost.queued, lost.eligibleAt)
	}
	// w2 takes the flushed block off the shared queue, in order, ahead of
	// its own; the epoch the connection lost follows once its backoff has
	// passed.
	var got []int
	now := schedEpoch
	for round := 0; len(got) < 5 && round < 100; round++ {
		now = now.Add(time.Millisecond)
		for _, d := range append([]*schedDispatch(nil), ws[1].inflight...) {
			if out, ok := s.verdict(ws[1], run.id, &wire.AuditVerdict{Index: uint64(d.task.job.Index)}, 8, now); ok {
				out.deliver()
			}
		}
		got = append(got, shipAll(t, s, ws[1], now)...)
	}
	if len(got) != 5 || !slices.Equal(got[:2], []int{1, 2}) {
		t.Fatalf("w2 picked up %v after the detach, want the flushed block [1 2] first", got)
	}
	if !run.tasks[0].triedOn["w2"] || run.tasks[0].acct.Attempts != 2 {
		t.Fatalf("the lost epoch was not retried on w2: %+v", run.tasks[0])
	}
}

// TestSchedHedge: a dispatch older than HedgeAfter is hedged exactly once,
// the hedge prefers the untried worker, the first verdict wins and the
// duplicate only frees its slot.
func TestSchedHedge(t *testing.T) {
	s := testScheduler(CoordinatorConfig{Pipeline: 1, HedgeAfter: 100 * time.Millisecond})
	ws := schedWorkers(s, map[string]bool{"w1": true, "w2": true}, "w1", "w2")
	run := addTestRun(t, s, 1, false)
	if got := shipAll(t, s, ws[0], schedEpoch); !slices.Equal(got, []int{0}) {
		t.Fatalf("w1 shipped %v, want [0]", got)
	}
	_, wakeAt, _ := s.next(ws[0], schedEpoch)
	if want := schedEpoch.Add(100 * time.Millisecond); !wakeAt.Equal(want) {
		t.Fatalf("w1 wakes at %v, want the hedge deadline %v", wakeAt, want)
	}
	just := schedEpoch.Add(99 * time.Millisecond)
	s.next(ws[0], just)
	if got := shipAll(t, s, ws[1], just); len(got) != 0 {
		t.Fatalf("hedge fired early: w2 shipped %v", got)
	}
	at := schedEpoch.Add(100 * time.Millisecond)
	s.next(ws[0], at)
	if got := s.reg.Counter("hedges").Value(); got != 1 {
		t.Fatalf("hedges = %d at HedgeAfter, want 1", got)
	}
	if got := shipAll(t, s, ws[1], at); !slices.Equal(got, []int{0}) {
		t.Fatalf("w2 shipped %v, want the hedge [0]", got)
	}
	s.next(ws[0], at.Add(500*time.Millisecond))
	if got := s.reg.Counter("hedges").Value(); got != 1 {
		t.Fatalf("hedges = %d after a second scan, want still 1", got)
	}

	out, ok := s.verdict(ws[1], run.id, &wire.AuditVerdict{Index: 0, Instructions: 7}, 8, at)
	if !ok {
		t.Fatal("the hedge's verdict, arriving first, did not settle the epoch")
	}
	out.deliver()
	if _, ok := s.verdict(ws[0], run.id, &wire.AuditVerdict{Index: 0, Instructions: 9}, 8, at); ok {
		t.Fatal("the straggler's duplicate verdict settled the epoch a second time")
	}
	if len(ws[0].inflight) != 0 {
		t.Fatal("the duplicate verdict did not free the straggler's slot")
	}
	if len(run.emitted) != 1 || run.emitted[0].Stats.Instructions != 7 || run.emitted[0].Worker != "w2" || run.emitted[0].Attempts != 2 {
		t.Fatalf("emitted %+v, want the hedge's verdict once, from w2, attempts 2", run.emitted)
	}
	if !run.finished() {
		t.Fatal("run did not finish after its only epoch settled")
	}
}

// TestSchedJobTimeoutAndReaping: a dispatch older than JobTimeout requeues
// at once and counts against the connection; ConsecutiveTimeouts of them
// detach it, and a verdict in between resets the count.
func TestSchedJobTimeoutAndReaping(t *testing.T) {
	s := testScheduler(CoordinatorConfig{Pipeline: 1, JobTimeout: time.Second, ConsecutiveTimeouts: 2})
	ws := schedWorkers(s, map[string]bool{"w1": true}, "w1")
	run := addTestRun(t, s, 4, false)
	now := schedEpoch
	shipAll(t, s, ws[0], now) // epoch 0

	now = now.Add(time.Second - time.Nanosecond)
	if got := shipAll(t, s, ws[0], now); len(got) != 0 || ws[0].timeouts != 0 {
		t.Fatalf("timeout fired early: shipped %v, timeouts %d", got, ws[0].timeouts)
	}
	now = now.Add(time.Nanosecond)
	if got := shipAll(t, s, ws[0], now); !slices.Equal(got, []int{0}) {
		t.Fatalf("after the timeout w1 shipped %v, want the timed-out epoch again, at once [0]", got)
	}
	if ws[0].timeouts != 1 || !ws[0].live {
		t.Fatalf("after one timeout: timeouts=%d live=%v, want 1, live", ws[0].timeouts, ws[0].live)
	}
	if t0 := run.tasks[0]; t0.acct.Attempts != 2 || t0.inflight != 1 {
		t.Fatalf("timed-out epoch: attempts=%d inflight=%d, want 2 and 1", t0.acct.Attempts, t0.inflight)
	}
	if got := s.reg.Counter("retries").Value(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	// A verdict proves the connection alive: the count resets.
	out, _ := s.verdict(ws[0], run.id, &wire.AuditVerdict{Index: 0}, 8, now)
	out.deliver()
	if ws[0].timeouts != 0 {
		t.Fatalf("timeouts = %d after a verdict, want 0", ws[0].timeouts)
	}
	// Two timeouts in a row reap it.
	for i := 0; i < 2; i++ {
		if got := shipAll(t, s, ws[0], now); len(got) != 1 {
			t.Fatalf("round %d: w1 shipped %v, want one epoch", i, got)
		}
		now = now.Add(time.Second)
	}
	sh, _, _ := s.next(ws[0], now)
	if sh != nil || ws[0].live {
		t.Fatalf("after %d consecutive timeouts the connection must be reaped: shipment=%v live=%v", 2, sh, ws[0].live)
	}
	if s.liveConns != 0 {
		t.Fatalf("liveConns = %d after the reap, want 0", s.liveConns)
	}
}

// TestSchedStarvation: with local fallback off and no live connection,
// queued epochs — blocks included — fail once a full JobTimeout has passed,
// and not before; a connection attaching in between resets the clock.
func TestSchedStarvation(t *testing.T) {
	s := testScheduler(CoordinatorConfig{DisableLocalFallback: true, JobTimeout: time.Second})
	ws := schedWorkers(s, nil, "w1") // registered, never attached
	run := addTestRun(t, s, 3, false)

	if failed := s.starve(schedEpoch); len(failed) != 0 {
		t.Fatalf("starve failed %d epochs at once", len(failed))
	}
	s.attach(ws[0], schedEpoch.Add(500*time.Millisecond))
	s.starve(schedEpoch.Add(600 * time.Millisecond))
	s.detach(ws[0], schedEpoch.Add(700*time.Millisecond))
	if failed := s.starve(schedEpoch.Add(1100 * time.Millisecond)); len(failed) != 0 {
		t.Fatalf("starve failed %d epochs 1.1s in, though a connection was live at 0.6s", len(failed))
	}
	if failed := s.starve(schedEpoch.Add(2099 * time.Millisecond)); len(failed) != 0 {
		t.Fatalf("starve failed %d epochs before a full JobTimeout of starvation", len(failed))
	}
	failed := s.starve(schedEpoch.Add(2100 * time.Millisecond))
	if len(failed) != 3 {
		t.Fatalf("starve failed %d epochs at JobTimeout, want all 3", len(failed))
	}
	deliverAll(failed)
	if !run.finished() {
		t.Fatal("run did not finish after every epoch failed")
	}
	for _, v := range run.emitted {
		if v.Err == nil || errors.Is(v.Err, ErrRetriesExhausted) {
			t.Fatalf("starved epoch %d emitted err=%v, want an undispatchable error", v.Index, v.Err)
		}
	}
	// With local fallback on, starvation is the local pool's business.
	s2 := testScheduler(CoordinatorConfig{JobTimeout: time.Second})
	addTestRun(t, s2, 1, false)
	s2.starve(schedEpoch)
	if failed := s2.starve(schedEpoch.Add(time.Hour)); len(failed) != 0 {
		t.Fatal("starve failed epochs although local fallback is on")
	}
}

// TestSchedNeedStateReshipsFull: the base is where the last job shipped on
// the connection ends; a need-state invalidates it and the epoch goes out
// again at once, full — and the base is re-established by that full ship,
// so the next epoch chains again.
func TestSchedNeedStateReshipsFull(t *testing.T) {
	s := testScheduler(CoordinatorConfig{Pipeline: 2})
	ws := schedWorkers(s, map[string]bool{"w1": true}, "w1")
	run := addTestRun(t, s, 3, true)

	first, _, _ := s.next(ws[0], schedEpoch)
	second, _, _ := s.next(ws[0], schedEpoch)
	if first.delta || first.session == nil {
		t.Fatalf("first job of a run on a connection must ship the session and the full state: %+v", first)
	}
	if !second.delta || second.baseSnap != 2 || second.session != nil {
		t.Fatalf("second job must chain from snapshot 2, where the first ends, with no session: %+v", second)
	}

	at := schedEpoch.Add(time.Millisecond)
	s.needState(ws[0], run.id, 1, at)
	if got := s.reg.Counter("delta_fallbacks").Value(); got != 1 {
		t.Fatalf("delta_fallbacks = %d, want 1", got)
	}
	again, _, _ := s.next(ws[0], at)
	if again == nil || again.task.job.Index != 1 {
		t.Fatalf("need-state epoch was not re-shipped with zero delay: %+v", again)
	}
	if again.delta {
		t.Fatal("the re-ship after a need-state must carry the full state")
	}
	if got := s.reg.Counter("retries").Value(); got != 0 {
		t.Fatalf("retries = %d: a need-state is not a failure", got)
	}
	// Answer both; the full re-ship re-established the base at snapshot 3.
	for _, idx := range []uint64{0, 1} {
		out, _ := s.verdict(ws[0], run.id, &wire.AuditVerdict{Index: idx}, 8, at)
		out.deliver()
	}
	third, _, _ := s.next(ws[0], at)
	if third == nil || !third.delta || third.baseSnap != 3 {
		t.Fatalf("third job must chain from snapshot 3 again: %+v", third)
	}
	if v := run.emitted[1]; v.Index != 1 || v.DeltaFallbacks != 1 || v.Attempts != 2 {
		t.Fatalf("epoch 1 emitted %+v, want one delta fallback and two attempts", v)
	}
}

// TestSchedResumedEpochsNeverDispatch: verdicts durable in the journal come
// back as outcomes and only the remaining epochs enter the blocks.
func TestSchedResumedEpochsNeverDispatch(t *testing.T) {
	s := testScheduler(CoordinatorConfig{})
	ws := schedWorkers(s, map[string]bool{"w1": true}, "w1")
	run := &schedRun{sess: Session{RefImage: &vm.Image{}}, skip: func(int) bool { return false }, emit: func(EpochVerdict) {}}
	jobs := []*EpochJob{{Index: 0, Boot: true}, {Index: 1, StartSnap: 1}, {Index: 2, StartSnap: 2}}
	resumed := map[int][]byte{
		1: (&wire.AuditVerdict{Index: 1, Instructions: 5}).Marshal(),
		2: (&wire.AuditVerdict{Index: 7}).Marshal(), // wrong epoch: not trusted
	}
	stored, err := s.addRun(run, jobs, resumed, schedEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 1 || stored[0].ev.Index != 1 || stored[0].ev.Worker != "journal" || stored[0].ev.Stats.Instructions != 5 {
		t.Fatalf("stored outcomes = %+v, want epoch 1 from the journal", stored)
	}
	if got := shipAll(t, s, ws[0], schedEpoch); !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("dispatched %v, want only the epochs without a durable verdict [0 2]", got)
	}
	if got := s.reg.Value("journal_epochs_skipped"); got != 1 {
		t.Fatalf("journal_epochs_skipped = %d, want 1", got)
	}
}

// TestDeltaBaseSurvivalBound pins the scheduler's model of the worker's
// replicas to the worker: a run's replica survives deltaBaseSurvives jobs of
// other runs on the connection (each keeps one replica, its own run's), the
// tracker still chains across exactly that many, and ships full beyond.
func TestDeltaBaseSurvivalBound(t *testing.T) {
	wc := newWorkerConn()
	held := func(id uint64) bool {
		return slices.ContainsFunc(wc.held, func(h heldReplica) bool { return h.sessID == id })
	}
	keep := func(id uint64) { wc.keep(id, Session{RefImage: &vm.Image{}}, &Replay{}) }
	keep(1) // the run's last job
	for other := uint64(2); other <= 1+deltaBaseSurvives; other++ {
		keep(other)
	}
	if !held(1) {
		t.Fatalf("replica evicted after only %d jobs of other runs", deltaBaseSurvives)
	}
	keep(100)
	if held(1) {
		t.Fatalf("replica survived %d jobs of other runs: the bound is loose, not wrong — tighten it", deltaBaseSurvives+1)
	}

	tr := &deltaTracker{}
	tr.noteShipped(&EpochJob{StartSnap: 1, Entries: []tevlog.Entry{closingEntry(2)}}, 10)
	next := &EpochJob{StartSnap: 2}
	if _, _, ok := tr.chainFrom(next, 10+1+deltaBaseSurvives); !ok {
		t.Fatalf("tracker gave up the base after %d jobs of other runs", deltaBaseSurvives)
	}
	if _, _, ok := tr.chainFrom(next, 10+2+deltaBaseSurvives); ok {
		t.Fatalf("tracker still chains after %d jobs of other runs; the worker has evicted the replica", deltaBaseSurvives+1)
	}
}

// TestSchedForgetsFinishedRuns: a connection carries one run after another
// for as long as the coordinator lives, so what the scheduler keeps per run
// and connection — the session sent, the delta base — goes with the run.
func TestSchedForgetsFinishedRuns(t *testing.T) {
	s := testScheduler(CoordinatorConfig{Pipeline: 2})
	ws := schedWorkers(s, map[string]bool{"w1": true}, "w1")
	for n := 0; n < 5; n++ {
		run := addTestRun(t, s, 3, true)
		for !run.finished() {
			sh, _, failed := s.next(ws[0], schedEpoch)
			deliverAll(failed)
			if sh == nil {
				t.Fatalf("run %d stalled with %d of %d epochs settled", n, run.settled.Load(), run.total)
			}
			if out, ok := s.verdict(ws[0], run.id, &wire.AuditVerdict{Index: uint64(sh.task.job.Index)}, 8, schedEpoch); ok {
				out.deliver()
			}
		}
		if err := s.removeRun(run.schedRun); err != nil {
			t.Fatal(err)
		}
	}
	if len(ws[0].sentRuns) != 0 || len(ws[0].trackers) != 0 {
		t.Fatalf("after 5 finished runs the connection still holds %d sent sessions and %d delta trackers",
			len(ws[0].sentRuns), len(ws[0].trackers))
	}
}

// TestSchedSessionEnds: removing a run owes a session end, once, to each
// live connection that was sent the run's session — not to one whose
// connection died holding it, and not to one that never saw it.
func TestSchedSessionEnds(t *testing.T) {
	s := testScheduler(CoordinatorConfig{Pipeline: 4})
	ws := schedWorkers(s, map[string]bool{"sent": true, "dropped": true}, "sent", "dropped", "idle")
	run := addTestRun(t, s, 6, false)
	for _, w := range ws[:2] {
		if shipped := shipAll(t, s, w, schedEpoch); len(shipped) == 0 {
			t.Fatalf("%s shipped nothing", w.addr)
		}
	}
	s.detach(ws[1], schedEpoch)
	s.attach(ws[2], schedEpoch)
	if err := s.removeRun(run.schedRun); err != nil {
		t.Fatal(err)
	}
	want := []distFrame{{wire.DistFrameMuxSessionEnd, wire.AppendMuxID(run.id, nil)}}
	if got := s.sessionEnds(ws[0]); !reflect.DeepEqual(got, want) {
		t.Fatalf("session ends owed to the connection that holds the session: %+v, want %+v", got, want)
	}
	for _, w := range ws {
		if got := s.sessionEnds(w); got != nil {
			t.Errorf("%s: session ends %+v owed after the first call", w.addr, got)
		}
	}
}
