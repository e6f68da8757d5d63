package audit

import (
	"sync"
	"testing"

	"repro/internal/logcomp"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/wire"
)

// OpenJournalFS is OpenJournal over a caller-chosen filesystem, for the
// external tests that put a waltest.FS under a coordinator's journal.
var OpenJournalFS = openJournal

// ContainerSource feeds a compressed log container to an audit as its
// Source. A header the reader refuses is the source's first error, so the
// audit reports it as the CheckLog fault it reports for a container cut
// mid-column.
func ContainerSource(compressed []byte) logcomp.EntrySource {
	r, err := logcomp.NewEntryReader(compressed)
	if err != nil {
		return errSource{err}
	}
	return r
}

// errSource is an EntrySource that fails at once.
type errSource struct{ err error }

func (s errSource) Next() (tevlog.Entry, error) { return tevlog.Entry{}, s.err }
func (s errSource) Close() error                { return nil }

// SpotCheckResults is SpotCheckParallel that also returns the Result of
// every pick it audited, by position in the policy's picks (nil: not
// audited). Picks past the one that stopped the pass may or may not have
// been audited by another worker; callers compare the prefix.
func (a *Auditor) SpotCheckResults(src SegmentSource, policy SpotPolicy, workers int) (*SpotCheckOutcome, []*Result, error) {
	var mu sync.Mutex
	var results []*Result
	out, err := a.spotCheck(src, policy, workers, func(i int, res *Result) {
		mu.Lock()
		defer mu.Unlock()
		for len(results) <= i {
			results = append(results, nil)
		}
		results[i] = res
	})
	return out, results, err
}

// cutJobs is the router's cut of entries as a backend receives it: the
// epoch jobs with their entries collected, start states not yet
// materialized. Only a chain fault stops the cut, so a log the syntactic
// check rejects is still cut whole.
func (a *Auditor) cutJobs(node sig.NodeID, entries []tevlog.Entry, materialize func(uint32) (*snapshot.Restored, error)) []*EpochJob {
	jobs, _, _ := a.runPipeline(node, 0, &sliceSource{entries: entries}, nil,
		EngineOptions{Materialize: materialize}, max(len(entries), 1), collected)
	return jobs
}

// WorkerJobs cuts node's log into the epoch jobs the dist engine ships,
// their start states materialized, and returns them with the session a
// worker replays them under.
func (a *Auditor) WorkerJobs(node sig.NodeID, entries []tevlog.Entry, materialize func(uint32) (*snapshot.Restored, error)) (Session, []*EpochJob, error) {
	jobs := a.cutJobs(node, entries, materialize)
	for _, j := range jobs {
		if j.Boot {
			continue
		}
		var err error
		if j.Start, err = materialize(j.StartSnap); err != nil {
			return Session{}, nil, err
		}
	}
	return a.session(node), jobs, nil
}

// RunKey is the journal's identity of a run of jobs under sess.
func RunKey(sess Session, jobs []*EpochJob) [32]byte { return runKeyFor(sess, jobs) }

// ReplayFromScratch is the verdict of an epoch replayed on a replica booted
// for it alone (runEpochJob).
func ReplayFromScratch(sess Session, job *EpochJob) (ReplayStats, *FaultReport) {
	r, _ := runEpochJob(sess, job, nil, nil)
	return r.stats, r.fault
}

// DeltaJob is the delta job the scheduler ships for job, chained from the
// base through src, as the worker parses it.
func DeltaJob(src func(k uint32) (*snapshot.Delta, error), job *EpochJob, baseSnap uint32, baseRoot [32]byte) (*wire.AuditDeltaJob, error) {
	body, err := deltaFrame(src, job, baseSnap, baseRoot)
	if err != nil {
		return nil, err
	}
	return wire.ParseAuditDeltaJob(body)
}

// TestWorker is the worker side of one connection with no socket, goroutine
// or clock (workerConn), replaying honestly.
type TestWorker struct{ c *workerConn }

func NewTestWorker() *TestWorker { return &TestWorker{newWorkerConn()} }

// WorkerAnswer is what a worker answered a job with: a need-state, or a
// verdict.
type WorkerAnswer struct {
	NeedState bool
	Stats     ReplayStats
	Fault     *FaultReport
}

// Holding counts the sessions registered and the replicas held on the
// worker's live connections.
func (w *EpochWorker) Holding() (sessions, replicas int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, c := range w.conns {
		c.mu.Lock()
		sessions += len(c.sessions)
		replicas += len(c.held)
		c.mu.Unlock()
	}
	return sessions, replicas
}

// Held is the number of replicas the connection holds.
func (w *TestWorker) Held() int { return len(w.c.held) }

// Register registers sess on the connection as session id.
func (w *TestWorker) Register(id uint64, sess Session) error {
	_, _, err := w.c.accept(wire.DistFrameMuxSession, wire.AppendMuxID(id, sessionToWire(sess).Marshal()))
	return err
}

// Full ships job to session id with its full start state.
func (w *TestWorker) Full(t testing.TB, id uint64, job *EpochJob) WorkerAnswer {
	t.Helper()
	return w.send(t, wire.DistFrameMuxJob, wire.AppendMuxID(id, jobToWire(job).Marshal()))
}

// Delta ships dj to session id.
func (w *TestWorker) Delta(t testing.TB, id uint64, dj *wire.AuditDeltaJob) WorkerAnswer {
	t.Helper()
	return w.send(t, wire.DistFrameMuxDeltaJob, wire.AppendMuxID(id, dj.Marshal()))
}

func (w *TestWorker) send(t testing.TB, kind wire.DistFrameKind, body []byte) WorkerAnswer {
	t.Helper()
	_, work, err := w.c.accept(kind, body)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := w.c.execute(work, replayHonestly)
	_, rest, err := wire.SplitMuxID(f.body)
	if err != nil {
		t.Fatal(err)
	}
	if f.kind == wire.DistFrameMuxNeedState {
		return WorkerAnswer{NeedState: true}
	}
	v, err := wire.ParseAuditVerdict(rest)
	if err != nil {
		t.Fatal(err)
	}
	r := verdictFromWire(v)
	return WorkerAnswer{Stats: r.stats, Fault: r.fault}
}
