package audit

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// This file is the one dispatch core: the scheduling state every remote
// backend shares, as a state machine with no goroutines, no sockets and no
// clock of its own. Every entry point takes the current time, mutates the
// state, and returns what the caller must do next — a shipment to put on
// the wire, outcomes to hand to the router — so the same policy runs under
// the TCP driver's mutex on the wall clock (Coordinator) and
// single-threaded on netsim's virtual clock (NetsimBackend). The policy,
// spelled out in docs/DISPATCH_PROTOCOL.md: contiguous cost-weighted blocks
// per worker with back-half stealing, so delta chains stay empty or short;
// one FIFO queue, served first, for retries, hedges, need-state re-ships
// and departed workers' blocks, preferring workers that have not tried the
// epoch; capped exponential backoff with deterministic jitter after a
// connection failure; one hedge at HedgeAfter; an immediate re-dispatch at
// JobTimeout, with ConsecutiveTimeouts of those reaping the connection;
// starvation failure at JobTimeout when nothing is live and local fallback
// is off; and a delta base per (connection, run), set at ship to where the
// job ends and reset by a need-state.

// ErrRetriesExhausted reports an epoch that burned through its dispatch
// retry budget without a verdict. It surfaces in DistStats.RetriesExhausted
// and, when the epoch was needed for the merge, in the audit error.
var ErrRetriesExhausted = errors.New("audit: epoch dispatch retry budget exhausted")

// schedTask is one epoch job in the scheduler. Once done flips true
// nothing mutates the task again.
type schedTask struct {
	run *schedRun
	job *EpochJob

	encOnce sync.Once
	enc     []byte

	inflight   int
	queued     bool // waiting in a block or on the shared queue
	hedged     bool
	done       bool
	eligibleAt time.Time
	triedOn    map[string]bool
	// acct accumulates the dispatch accounting the task's verdict is
	// emitted with: Attempts, WireBytes and the full/delta split.
	acct EpochVerdict
}

// frame returns the cached wire encoding of the job, so a re-dispatch
// never re-encodes.
func (t *schedTask) frame() []byte {
	t.encOnce.Do(func() { t.enc = jobToWire(t.job).Marshal() })
	return t.enc
}

// schedBlock is a contiguous range of one run's not-yet-dispatched epochs
// reserved for one worker.
type schedBlock struct {
	owner *schedWorker
	tasks []*schedTask
}

// schedRun is one audit's jobs in the scheduler. A task counts toward
// settled only after its emit (if any) returned, so done closes strictly
// after every verdict reached the router.
type schedRun struct {
	id    uint64
	sess  Session
	frame []byte // the encoded session, shipped once per connection
	skip  func(int) bool
	emit  func(EpochVerdict)
	// key is the run's stable journal identity; journal is nil when the
	// run's events are not written ahead.
	key     [32]byte
	journal *Journal

	tasks  map[int]*schedTask
	blocks []schedBlock
	total  int
	err    error

	settled atomic.Int64
	done    chan struct{}
}

// finishSettle records n tasks fully finished (verdict emitted, skipped,
// or failed) and completes the run when the last one lands.
func (r *schedRun) finishSettle(n int64) {
	if n > 0 && r.settled.Add(n) == int64(r.total) {
		close(r.done)
	}
}

// finished reports whether every task of the run has settled.
func (r *schedRun) finished() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// nextBlocked pops the next first-dispatch task for worker w: the front of
// w's own block, or — when that is empty and w may steal — the back half
// of the fullest remaining block, adopted as w's new block (the stolen half
// stays contiguous, so the thief starts one new delta chain instead of
// paying a full state per stolen job). A block whose owner has no live
// connection is taken whole: nobody is coming for its front half.
func (r *schedRun) nextBlocked(w *schedWorker, steal bool) *schedTask {
	own := -1
	for i := range r.blocks {
		if r.blocks[i].owner == w {
			own = i
		}
	}
	if own < 0 {
		own = len(r.blocks)
		r.blocks = append(r.blocks, schedBlock{owner: w})
	}
	if len(r.blocks[own].tasks) == 0 {
		if !steal {
			return nil
		}
		best, bestLen := -1, 0
		for i := range r.blocks {
			if n := len(r.blocks[i].tasks); n > bestLen {
				best, bestLen = i, n
			}
		}
		if best < 0 {
			return nil
		}
		cut := bestLen / 2
		if !r.blocks[best].owner.live {
			cut = 0
		}
		r.blocks[own].tasks = append([]*schedTask(nil), r.blocks[best].tasks[cut:]...)
		r.blocks[best].tasks = r.blocks[best].tasks[:cut]
	}
	t := r.blocks[own].tasks[0]
	r.blocks[own].tasks = r.blocks[own].tasks[1:]
	return t
}

// costBlocks slices positions 0..len(jobs)-1 into one contiguous block per
// worker, weighted by each job's estimated replay cost: a worker's block
// covers roughly total/workers instructions, not len(jobs)/workers epochs,
// so a recording whose snapshot cadence produced one hot epoch does not
// serialize the fleet behind it. Blocks stay contiguous to preserve delta
// chain affinity. Jobs with no cost estimate (Cost 0 everywhere) fall back
// to the equal epoch-count split.
func costBlocks(jobs []*EpochJob, workers int) [][]int {
	blocks := make([][]int, workers)
	var total uint64
	for _, j := range jobs {
		total += j.Cost
	}
	if total == 0 {
		for i := range blocks {
			lo, hi := i*len(jobs)/workers, (i+1)*len(jobs)/workers
			for pos := lo; pos < hi; pos++ {
				blocks[i] = append(blocks[i], pos)
			}
		}
		return blocks
	}
	w := 0
	var cum uint64
	for pos, j := range jobs {
		// Assign by the job's cost midpoint: a job spanning a boundary goes
		// to whichever side holds more of it.
		mid := cum + j.Cost/2
		for w+1 < workers && mid >= uint64(w+1)*total/uint64(workers) {
			w++
		}
		blocks[w] = append(blocks[w], pos)
		cum += j.Cost
	}
	return blocks
}

// schedDispatch is one outstanding job on one worker connection.
type schedDispatch struct {
	task   *schedTask
	sentAt time.Time
}

// schedWorker is the scheduler's view of one worker: whether a connection
// is attached and, per connection, what is in flight on it, which runs'
// sessions it has seen and where its replica of each run rests.
type schedWorker struct {
	addr string
	live bool
	// gen counts attaches, so a driver can tell its connection from a
	// later one after the scheduler reaped it.
	gen uint64

	inflight []*schedDispatch // at most Pipeline entries, oldest first
	shipped  int              // jobs released to this connection so far
	sentRuns map[uint64]struct{}
	trackers map[uint64]*deltaTracker
	timeouts int
	// ended are the removed runs whose sessions this connection was sent
	// and not yet told the end of (sessionEnds).
	ended []uint64

	activeSince time.Time
	busy        time.Duration
}

// add and drop maintain the busy-time accounting: a connection is busy
// while it has at least one job in flight.
func (w *schedWorker) add(d *schedDispatch, now time.Time) {
	if len(w.inflight) == 0 {
		w.activeSince = now
	}
	w.inflight = append(w.inflight, d)
}

func (w *schedWorker) drop(d *schedDispatch, now time.Time) {
	w.inflight = slices.DeleteFunc(w.inflight, func(e *schedDispatch) bool { return e == d })
	d.task.inflight--
	if len(w.inflight) == 0 {
		w.busy += now.Sub(w.activeSince)
	}
}

// shipment is one job the scheduler released to a worker connection. The
// driver encodes it outside whatever lock guards the scheduler, reports the
// job's bytes through shipped, and writes the frames.
type shipment struct {
	task    *schedTask
	session []byte // non-nil: the connection has not seen the run's session yet
	// delta asks for a delta-encoded frame chained from (baseSnap,
	// baseRoot); frames clears it when the delta source fails.
	delta    bool
	baseSnap uint32
	baseRoot [32]byte
}

// frames renders the shipment: the session frame when due, then the job —
// the delta chain the scheduler planned, or the cached full-state frame. n
// is the job body's size, for shipped.
func (sh *shipment) frames() (fs []distFrame, n int) {
	t, id := sh.task, sh.task.run.id
	if sh.session != nil {
		fs = append(fs, distFrame{wire.DistFrameMuxSession, wire.AppendMuxID(id, sh.session)})
	}
	if sh.delta {
		if body, err := deltaFrame(t.run.sess.deltaSrc, t.job, sh.baseSnap, sh.baseRoot); err == nil {
			return append(fs, distFrame{wire.DistFrameMuxDeltaJob, wire.AppendMuxID(id, body)}), len(body)
		}
		sh.delta = false
	}
	return append(fs, distFrame{wire.DistFrameMuxJob, wire.AppendMuxID(id, t.frame())}), len(t.frame())
}

// outcome is one settled epoch on its way to the router. The driver
// delivers it outside its lock: spot rechecks replay locally and must not
// stall the fleet.
type outcome struct {
	run *schedRun
	ev  EpochVerdict
	// enc, on journaled runs, is the verdict's wire encoding, written ahead
	// of the emit: once the router sees the verdict it may settle the audit,
	// and a crash after that must find it durable. Nil for failures and for
	// verdicts that came out of the journal.
	enc []byte
}

// deliver journals (when asked), emits and settles the outcome.
func (o outcome) deliver() {
	if o.enc != nil {
		o.run.journal.verdictEmitted(o.run.key, o.ev.Index, o.enc)
	}
	o.run.emit(o.ev)
	o.run.finishSettle(1)
}

// deliverAll delivers outcomes in order.
func deliverAll(outs []outcome) {
	for _, o := range outs {
		o.deliver()
	}
}

// scheduler is the dispatch state machine. It is not safe for concurrent
// use; the driver serializes calls.
type scheduler struct {
	cfg CoordinatorConfig
	reg *metrics.Registry // cfg.Metrics
	// notify, when set, is called whenever work may have become available
	// to a connection other than the one being served (the TCP driver wakes
	// its parked senders).
	notify func()

	queue        []*schedTask
	runs         map[uint64]*schedRun
	order        []*schedRun    // active runs, oldest first
	fleet        []*schedWorker // registered workers, in registration order
	liveConns    int
	nextRun      uint64
	retiredBusy  time.Duration
	starvedSince time.Time
	closed       bool
}

// newScheduler takes a configuration with its defaults applied.
func newScheduler(cfg CoordinatorConfig) *scheduler {
	return &scheduler{cfg: cfg, reg: cfg.Metrics, runs: make(map[uint64]*schedRun)}
}

func (s *scheduler) wake() {
	if s.notify != nil {
		s.notify()
	}
}

// depth is the number of epochs waiting for a dispatch.
func (s *scheduler) depth() int {
	n := len(s.queue)
	for _, run := range s.order {
		for i := range run.blocks {
			n += len(run.blocks[i].tasks)
		}
	}
	return n
}

// fleet --------------------------------------------------------------------

// addWorker registers a worker under a name the driver keeps unique.
func (s *scheduler) addWorker(addr string) *schedWorker {
	w := &schedWorker{addr: addr}
	s.fleet = append(s.fleet, w)
	s.reg.Gauge("workers_registered").Add(1)
	return w
}

// removeWorker unregisters a worker: its outstanding epochs requeue and
// its unclaimed blocks return to the shared queue.
func (s *scheduler) removeWorker(w *schedWorker, now time.Time) {
	s.detach(w, now)
	s.flushBlocks(w, now)
	s.fleet = slices.DeleteFunc(s.fleet, func(f *schedWorker) bool { return f == w })
	s.retiredBusy += w.busy
	s.reg.Gauge("workers_registered").Add(-1)
}

// attach records a fresh connection to w: nothing in flight, no session
// sent, no state held.
func (s *scheduler) attach(w *schedWorker, now time.Time) {
	w.live = true
	w.gen++
	w.inflight, w.shipped = nil, 0
	w.sentRuns = make(map[uint64]struct{})
	w.trackers = make(map[uint64]*deltaTracker)
	w.ended = nil
	w.timeouts = 0
	s.liveConns++
	s.reg.Gauge("workers_live").Add(1)
	s.wake()
}

// detach drops w's connection: outstanding epochs requeue with backoff
// (this connection just failed them) and the worker's unclaimed blocks
// return to the shared queue, so still-live connections pick them up.
// Idempotent; safe when no connection is attached.
func (s *scheduler) detach(w *schedWorker, now time.Time) {
	if !w.live {
		return
	}
	w.live = false
	for len(w.inflight) > 0 {
		t := w.inflight[0].task
		w.drop(w.inflight[0], now)
		s.requeue(t, s.backoffDelay(t.job.Index, t.acct.Attempts), "retries", now)
	}
	s.flushBlocks(w, now)
	s.liveConns--
	s.reg.Gauge("workers_live").Add(-1)
	s.wake()
}

// flushBlocks moves the unclaimed blocks of owner (nil: of every worker)
// to the shared queue, in order.
func (s *scheduler) flushBlocks(owner *schedWorker, now time.Time) {
	for _, run := range s.order {
		for i := range run.blocks {
			b := &run.blocks[i]
			if owner != nil && b.owner != owner {
				continue
			}
			for _, t := range b.tasks {
				t.eligibleAt = now
				s.queue = append(s.queue, t)
			}
			b.tasks = nil
		}
	}
}

// runs ---------------------------------------------------------------------

// addRun puts one audit's epochs into the scheduler. Epochs whose verdicts
// are durable in the journal (resumed) never dispatch: their stored
// verdicts come back as outcomes and flow through the router like a
// worker's — spot rechecks included, so a tampered journal is caught like
// a lying worker. The rest are cut into one cost-weighted block per
// registered worker, or queued when the fleet is empty.
func (s *scheduler) addRun(run *schedRun, jobs []*EpochJob, resumed map[int][]byte, now time.Time) ([]outcome, error) {
	if s.closed {
		return nil, errors.New("audit: coordinator is closed")
	}
	s.nextRun++
	run.id = s.nextRun
	run.frame = sessionToWire(run.sess).Marshal()
	run.tasks = make(map[int]*schedTask, len(jobs))
	run.total = len(jobs)
	run.done = make(chan struct{})
	var stored []outcome
	var fresh []*EpochJob
	for _, job := range jobs {
		t := &schedTask{run: run, job: job, eligibleAt: now, triedOn: make(map[string]bool)}
		t.acct.Index = job.Index
		run.tasks[job.Index] = t
		if enc, ok := resumed[job.Index]; ok {
			if v, err := wire.ParseAuditVerdict(enc); err == nil && int(v.Index) == job.Index {
				t.done = true
				r := verdictFromWire(v)
				s.reg.Counter("journal_epochs_skipped").Inc()
				stored = append(stored, outcome{run: run, ev: EpochVerdict{
					Index: job.Index, Stats: r.stats, Fault: r.fault, Worker: "journal"}})
				continue
			}
		}
		t.queued = true
		fresh = append(fresh, job)
	}
	if len(s.fleet) == 0 {
		for _, job := range fresh {
			s.queue = append(s.queue, run.tasks[job.Index])
		}
	} else {
		for i, positions := range costBlocks(fresh, len(s.fleet)) {
			b := schedBlock{owner: s.fleet[i]}
			for _, pos := range positions {
				b.tasks = append(b.tasks, run.tasks[fresh[pos].Index])
			}
			run.blocks = append(run.blocks, b)
		}
	}
	s.runs[run.id] = run
	s.order = append(s.order, run)
	s.reg.Gauge("queue_depth").Set(int64(s.depth()))
	s.wake()
	return stored, nil
}

// removeRun forgets a finished run, on every connection too, and returns
// its error. Each live connection that was sent the run's session owes
// the worker a session end, which its sender picks up (sessionEnds).
func (s *scheduler) removeRun(run *schedRun) error {
	delete(s.runs, run.id)
	for _, w := range s.fleet {
		if _, sent := w.sentRuns[run.id]; sent && w.live {
			w.ended = append(w.ended, run.id)
			s.wake()
		}
		delete(w.sentRuns, run.id)
		delete(w.trackers, run.id)
	}
	s.order = slices.DeleteFunc(s.order, func(r *schedRun) bool { return r == run })
	return run.err
}

// sessionEnds returns the session-end frames due on w's connection, one
// per run removed since the last call whose session the connection holds,
// and forgets them.
func (s *scheduler) sessionEnds(w *schedWorker) []distFrame {
	var fs []distFrame
	for _, id := range w.ended {
		fs = append(fs, distFrame{wire.DistFrameMuxSessionEnd, wire.AppendMuxID(id, nil)})
	}
	w.ended = nil
	return fs
}

// shutdown fails every pending epoch's run with cause and drops every
// connection. Nothing dispatches afterwards.
func (s *scheduler) shutdown(cause error, now time.Time) {
	s.closed = true
	for _, w := range s.fleet {
		s.detach(w, now)
		s.retiredBusy += w.busy
	}
	s.fleet = nil
	for _, run := range s.order {
		run.err = cause
		var n int64
		for _, t := range run.tasks {
			if !t.done {
				t.done, t.queued = true, false
				n++
			}
		}
		run.blocks = nil
		run.finishSettle(n)
	}
	s.queue = nil
	s.reg.Gauge("queue_depth").Set(0)
	s.wake()
}

// queueing -----------------------------------------------------------------

// backoffDelay is the capped exponential re-dispatch delay before attempt
// n+1 of epoch index, with deterministic jitter in [1/2, 1) of the
// exponential step.
func (s *scheduler) backoffDelay(index, attempt int) time.Duration {
	d := s.cfg.RetryBackoff
	for i := 1; i < attempt && d < s.cfg.RetryMaxBackoff; i++ {
		d *= 2
	}
	if d > s.cfg.RetryMaxBackoff {
		d = s.cfg.RetryMaxBackoff
	}
	frac := float64(splitmix64(s.cfg.BackoffSeed^uint64(index)<<20^uint64(attempt))>>11) / float64(1<<53)
	return d/2 + time.Duration(frac*float64(d/2))
}

// requeue returns a task to the shared queue after delay. counter names
// the metric charged for the requeue ("" for hedges and need-states).
func (s *scheduler) requeue(t *schedTask, delay time.Duration, counter string, now time.Time) {
	if s.closed || t.done || t.queued {
		return
	}
	t.queued = true
	t.eligibleAt = now.Add(delay)
	s.queue = append(s.queue, t)
	s.reg.Gauge("queue_depth").Set(int64(s.depth()))
	if counter != "" {
		s.reg.Counter(counter).Inc()
	}
	s.wake()
}

// fail settles a task with an error verdict for the driver to deliver.
func (s *scheduler) fail(t *schedTask, err error, counter string) outcome {
	t.done, t.queued = true, false
	if counter != "" {
		s.reg.Counter(counter).Inc()
	}
	o := outcome{run: t.run, ev: t.acct}
	o.ev.Worker, o.ev.Err = "(exhausted)", err
	return o
}

func (s *scheduler) exhaustedErr(t *schedTask) error {
	return fmt.Errorf("audit: epoch %d exhausted %d dispatch attempts: %w",
		t.job.Index, s.cfg.MaxAttempts, ErrRetriesExhausted)
}

// settleSkipped retires a task past the earliest-fault cutoff: it can no
// longer affect the merged verdict. With a dispatch still in flight the
// outstanding verdict (or its timeout) resolves it instead.
func (s *scheduler) settleSkipped(t *schedTask) {
	t.queued = false
	if t.inflight == 0 {
		t.done = true
		t.run.finishSettle(1)
	}
}

// take pops the next dispatchable task for worker w (nil for the
// local-fallback pool, which ignores placement history). The shared queue
// goes first — its epochs are ones somebody is already waiting on — and
// placement there prefers workers that have not tried the task: as long as
// some other live worker is untried, the task waits for it, which
// guarantees an epoch eventually reaches an honest worker in any fleet
// that has one. First dispatches then come from the runs' blocks, oldest
// run first: w's own block and, once nothing of w's is in flight (a full
// pipeline is not out of work, and must not strip the block of a peer a
// dial away from attaching), a stolen one. The local pool takes block
// fronts one at a time, leaving the blocks standing for when the fleet
// attaches. take settles skippable tasks, returns exhausted ones as
// failed, and reports the earliest future eligibility on the queue.
func (s *scheduler) take(w *schedWorker, now time.Time) (picked *schedTask, nextAt time.Time, failed []outcome) {
	claim := func(t *schedTask) *schedTask {
		s.reg.Gauge("queue_depth").Set(int64(s.depth()))
		t.queued = false
		t.acct.Attempts++
		if w != nil {
			t.triedOn[w.addr] = true
		}
		return t
	}
	out := s.queue[:0]
	for i, t := range s.queue {
		keep := false
		switch {
		case t.done || !t.queued:
		case t.run.skip(t.job.Index):
			s.settleSkipped(t)
		case t.eligibleAt.After(now):
			keep = true
			if nextAt.IsZero() || t.eligibleAt.Before(nextAt) {
				nextAt = t.eligibleAt
			}
		case t.acct.Attempts >= s.cfg.MaxAttempts:
			t.queued = false
			if t.inflight == 0 {
				failed = append(failed, s.fail(t, s.exhaustedErr(t), "retries_exhausted"))
			}
		case w != nil && t.triedOn[w.addr] && s.hasUntriedLive(t, w):
			keep = true
		default:
			s.queue = append(out, s.queue[i+1:]...)
			return claim(t), nextAt, failed
		}
		if keep {
			out = append(out, t)
		}
	}
	s.queue = out
	for _, run := range s.order {
		for {
			var t *schedTask
			if w != nil {
				t = run.nextBlocked(w, len(w.inflight) == 0)
			} else {
				for i := range run.blocks {
					if b := &run.blocks[i]; len(b.tasks) > 0 {
						t, b.tasks = b.tasks[0], b.tasks[1:]
						break
					}
				}
			}
			if t == nil {
				break
			}
			if run.skip(t.job.Index) {
				s.settleSkipped(t)
				continue
			}
			return claim(t), nextAt, failed
		}
	}
	s.reg.Gauge("queue_depth").Set(int64(s.depth()))
	return nil, nextAt, failed
}

// hasUntriedLive reports whether a live worker other than asking has not
// yet tried the task.
func (s *scheduler) hasUntriedLive(t *schedTask, asking *schedWorker) bool {
	for _, w := range s.fleet {
		if w != asking && w.live && !t.triedOn[w.addr] {
			return true
		}
	}
	return false
}

// connections --------------------------------------------------------------

// next is the sender's step for connection w: enforce the deadlines of
// what is in flight, then — when the pipeline has room — release the next
// job. It returns the shipment (nil: nothing to send), when w must wake
// for a deadline or eligibility (zero: never), and the epochs that
// exhausted their budget. The scan may reap the connection as hung; the
// driver checks w.live afterwards.
func (s *scheduler) next(w *schedWorker, now time.Time) (sh *shipment, wakeAt time.Time, failed []outcome) {
	failed = s.scan(w, now)
	if !w.live {
		return nil, time.Time{}, failed
	}
	if len(w.inflight) < s.cfg.Pipeline {
		t, nextAt, more := s.take(w, now)
		failed = append(failed, more...)
		wakeAt = nextAt
		if t != nil {
			sh = s.ship(w, t, now)
		}
	}
	for _, d := range w.inflight {
		deadline := d.sentAt.Add(s.cfg.JobTimeout)
		if s.cfg.HedgeAfter > 0 && !d.task.hedged {
			if h := d.sentAt.Add(s.cfg.HedgeAfter); h.Before(deadline) {
				deadline = h
			}
		}
		if wakeAt.IsZero() || deadline.Before(wakeAt) {
			wakeAt = deadline
		}
	}
	return sh, wakeAt, failed
}

// scan enforces per-dispatch deadlines on w's connection: a job past
// JobTimeout requeues at once (and counts toward reaping the connection as
// hung); a job past HedgeAfter with no second copy in flight hedges.
func (s *scheduler) scan(w *schedWorker, now time.Time) (failed []outcome) {
	for i := 0; i < len(w.inflight); {
		d := w.inflight[i]
		t := d.task
		switch age := now.Sub(d.sentAt); {
		case age >= s.cfg.JobTimeout:
			w.drop(d, now) // the next dispatch slides into slot i
			w.timeouts++
			if t.done {
				continue
			}
			if t.acct.Attempts >= s.cfg.MaxAttempts && t.inflight == 0 && !t.queued {
				failed = append(failed, s.fail(t, s.exhaustedErr(t), "retries_exhausted"))
			} else {
				s.requeue(t, 0, "retries", now)
			}
			continue
		case s.cfg.HedgeAfter > 0 && age >= s.cfg.HedgeAfter && !t.hedged &&
			!t.done && !t.queued && t.inflight == 1 && t.acct.Attempts < s.cfg.MaxAttempts:
			t.hedged = true
			s.reg.Counter("hedges").Inc()
			s.requeue(t, 0, "", now)
		}
		i++
	}
	if w.timeouts >= s.cfg.ConsecutiveTimeouts {
		// A connection that keeps accepting jobs and never answers is
		// hung, not slow: reap it so the driver replaces it.
		s.detach(w, now)
	}
	return failed
}

// ship records t as in flight on w and plans its encoding: delta-chained
// from the connection's tracked base when the run has a delta source and
// the base can anchor the chain, full otherwise. Either way the worker's
// replica of the run will rest where the job ends, so the base advances
// here.
func (s *scheduler) ship(w *schedWorker, t *schedTask, now time.Time) *shipment {
	run := t.run
	t.inflight++
	w.shipped++
	w.add(&schedDispatch{task: t, sentAt: now}, now)
	sh := &shipment{task: t}
	if _, ok := w.sentRuns[run.id]; !ok {
		w.sentRuns[run.id] = struct{}{}
		sh.session = run.frame
	}
	if run.sess.deltaSrc != nil {
		tr := w.trackers[run.id]
		if tr == nil {
			tr = &deltaTracker{}
			w.trackers[run.id] = tr
		}
		sh.baseSnap, sh.baseRoot, sh.delta = tr.chainFrom(t.job, w.shipped)
		tr.noteShipped(t.job, w.shipped)
	}
	return sh
}

// shipped charges the bytes of an encoded job frame to its task, before the
// frame goes out.
func (s *scheduler) shipped(sh *shipment, n int) {
	acct := &sh.task.acct
	acct.WireBytes += n
	if sh.delta {
		acct.WireBytesDelta += n
		acct.DeltaShipped++
	} else {
		acct.WireBytesFull += n
	}
}

// answered frees w's dispatch slot for an epoch it replied to — a reply
// also proves the connection alive — and returns the epoch's task, or nil
// when the run or epoch is not (or no longer) known.
func (s *scheduler) answered(w *schedWorker, runID uint64, index int, now time.Time) *schedTask {
	for _, d := range w.inflight {
		if d.task.run.id == runID && d.task.job.Index == index {
			w.drop(d, now)
			w.timeouts = 0
			s.wake() // a pipeline slot freed
			break
		}
	}
	if run := s.runs[runID]; run != nil {
		return run.tasks[index]
	}
	return nil
}

// reply feeds one frame a worker sent back on w's connection into the
// scheduler and returns the outcome to deliver, if it settled an epoch. An
// error — a drain notice, a worker-side protocol error, a frame no worker
// sends — means the connection is over, and the driver detaches.
func (s *scheduler) reply(w *schedWorker, kind wire.DistFrameKind, body []byte, now time.Time) (out outcome, ok bool, err error) {
	switch kind {
	case wire.DistFrameMuxVerdict, wire.DistFrameMuxNeedState:
		runID, rest, err := wire.SplitMuxID(body)
		if err != nil {
			return out, false, err
		}
		if kind == wire.DistFrameMuxNeedState {
			idx, err := wire.ParseNeedState(rest)
			if err == nil {
				s.needState(w, runID, int(idx), now)
			}
			return out, false, err
		}
		v, err := wire.ParseAuditVerdict(rest)
		if err != nil {
			return out, false, err
		}
		out, ok = s.verdict(w, runID, v, len(rest), now)
		return out, ok, nil
	case wire.DistFrameMuxSessionOK, wire.DistFramePong:
		// Liveness was the point; the driver's deadline reset is the work.
		return out, false, nil
	case wire.DistFrameDrain:
		// Dropping the connection redistributes its outstanding epochs;
		// the redial discovers whether the worker comes back.
		s.reg.Counter("drains").Inc()
		return out, false, errors.New("audit: worker is draining")
	case wire.DistFrameError:
		return out, false, fmt.Errorf("audit: worker reported: %s", body)
	}
	return out, false, fmt.Errorf("audit: coordinator got unexpected frame kind %d", kind)
}

// verdict hands a worker's verdict to its run: first verdict wins, a
// hedge's or straggler's duplicate only clears the dispatch slot. nbytes is
// the verdict frame's size, for the wire accounting.
func (s *scheduler) verdict(w *schedWorker, runID uint64, v *wire.AuditVerdict, nbytes int, now time.Time) (outcome, bool) {
	t := s.answered(w, runID, int(v.Index), now)
	if t == nil {
		return outcome{}, false
	}
	if !t.done {
		t.acct.WireBytes += nbytes
	}
	return s.settle(t, w.addr, verdictFromWire(v), v.Marshal)
}

// settle records the first result for t — from a worker or from local
// replay — and returns the outcome to deliver; later results are dropped.
func (s *scheduler) settle(t *schedTask, worker string, r epochResult, enc func() []byte) (outcome, bool) {
	if t.done {
		return outcome{}, false
	}
	t.done, t.queued = true, false
	s.reg.Counter("epochs_done").Inc()
	o := outcome{run: t.run, ev: t.acct}
	o.ev.Worker, o.ev.Stats, o.ev.Fault = worker, r.stats, r.fault
	if t.run.journal != nil {
		o.enc = enc()
	}
	return o, true
}

// needState handles a worker's need-state notice: it no longer holds the
// base a delta-encoded dispatch chained from (cache eviction, or a
// restarted worker behind the same address). The connection's model of
// that run's worker state is invalidated and the epoch requeues with no
// backoff — the re-dispatch ships the full state.
func (s *scheduler) needState(w *schedWorker, runID uint64, index int, now time.Time) {
	t := s.answered(w, runID, index, now)
	if tr := w.trackers[runID]; tr != nil {
		tr.invalidate()
	}
	if t != nil && !t.done {
		t.acct.DeltaFallbacks++
		s.reg.Counter("delta_fallbacks").Inc()
		s.requeue(t, 0, "", now)
	}
}

// local fallback and starvation --------------------------------------------

// takeLocal is the idle step, for while no worker connection is live: it
// pops a task for in-process replay or, with local fallback off, fails the
// queue once it has starved (nextAt is then when that will be).
func (s *scheduler) takeLocal(now time.Time) (t *schedTask, nextAt time.Time, failed []outcome) {
	if s.cfg.DisableLocalFallback || s.closed || s.liveConns > 0 {
		failed = s.starve(now)
		if at := s.starvedSince.Add(s.cfg.JobTimeout); !s.starvedSince.IsZero() && at.After(now) {
			nextAt = at
		}
		return nil, nextAt, failed
	}
	t, nextAt, failed = s.take(nil, now)
	if t != nil {
		t.inflight++
	}
	return t, nextAt, failed
}

// localDone settles a locally replayed task, unless a worker's verdict
// won the race.
func (s *scheduler) localDone(t *schedTask, r epochResult) (outcome, bool) {
	s.reg.Counter("local_fallback_epochs").Inc()
	t.inflight--
	return s.settle(t, "local-fallback", r, verdictToWire(t.job.Index, r).Marshal)
}

// starve fails queued epochs that nothing can ever dispatch: local
// fallback disabled and no live connection for a full JobTimeout. Without
// it an audit against a dead fleet would block forever instead of
// surfacing a transport error.
func (s *scheduler) starve(now time.Time) (failed []outcome) {
	if s.closed || !s.cfg.DisableLocalFallback || s.liveConns > 0 {
		s.starvedSince = time.Time{}
		return nil
	}
	if s.starvedSince.IsZero() {
		s.starvedSince = now
	}
	if now.Sub(s.starvedSince) < s.cfg.JobTimeout {
		return nil
	}
	// No connection is live, so nothing is in flight anywhere: everything
	// still waiting is undispatchable.
	s.flushBlocks(nil, now)
	for _, t := range s.queue {
		if !t.done && t.queued {
			failed = append(failed, s.fail(t,
				fmt.Errorf("audit: epoch %d undispatchable: no live workers and local fallback is disabled", t.job.Index), ""))
		}
	}
	s.queue = nil
	s.reg.Gauge("queue_depth").Set(0)
	return failed
}

// busyNs is the cumulative time connections had at least one job in
// flight, summed across the fleet, as of now.
func (s *scheduler) busyNs(now time.Time) int64 {
	busy := s.retiredBusy
	for _, w := range s.fleet {
		busy += w.busy
		if w.live && len(w.inflight) > 0 {
			busy += now.Sub(w.activeSince)
		}
	}
	return int64(busy)
}
