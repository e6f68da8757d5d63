package audit

// Delta-shipped job dispatch. A worker connection keeps, per run, the
// replica its last job of that run ended on when the replay itself verified
// it at the epoch's closing snapshot (workerConn). The scheduler tracks that
// snapshot and ships the run's next job on the connection as a chain of
// snapshot deltas from it (wire.AuditDeltaJob): empty for the next epoch in
// line, the increments in between for a later one. The worker writes the
// chain's pages over its replica, checking each step against the root the
// step claims and the chain's end against the root the log committed
// (rollDelta), and replays on that replica as if the full state had
// arrived. A worker that does not hold the base answers need-state and the
// scheduler re-ships the full-state frame. A doctored chain — a lying
// coordinator — fails a root check on the worker before any replay work is
// spent and surfaces as the same snapshot-check fault a corrupt full state
// would.

import (
	"fmt"

	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/wire"
)

// maxDeltaChain bounds the steps a single delta job may carry; a longer
// gap ships as a full state instead (the chain would approach full-state
// size anyway, and a lost worker should not trigger unbounded rebuilds).
const maxDeltaChain = 64

// heldReplicas bounds the replicas a worker connection keeps between jobs,
// one per run, the least recently used evicted first. Each is a copy of the
// guest's memory.
const heldReplicas = 4

// deltaBaseSurvives is how many jobs of other runs a connection may carry
// after a run's last job before that run's replica must be presumed
// evicted: each job leaves at most one replica, its own run's, so the
// run's stays among the heldReplicas most recently used for heldReplicas-1
// of them.
const deltaBaseSurvives = heldReplicas - 1

// deltaTracker is the scheduler's record, per (connection, run), of the
// snapshot the worker's replica of the run rests at. A connection replays a
// run's jobs in arrival order, so the base is set when a job ships, to the
// snapshot the job ends at (epochEnd): unless the epoch faults, that is
// where the worker's replica will rest when the next job arrives.
type deltaTracker struct {
	haveBase bool
	baseSnap uint32
	baseRoot [32]byte
	// shippedAt is the connection's job count when this run last shipped on
	// it — the last time the worker used the run's replica.
	shippedAt int
}

// chainFrom reports the base a delta-encoded frame for job — the seq-th
// job on the connection — would chain from, or ok false when the job must
// ship full: boot jobs carry no state, and a base that is missing, ahead
// of the job, more than maxDeltaChain behind it, or buried under more than
// deltaBaseSurvives jobs of other runs cannot anchor a chain.
func (t *deltaTracker) chainFrom(job *EpochJob, seq int) (snap uint32, root [32]byte, ok bool) {
	if job.Boot || !t.haveBase || job.StartSnap < t.baseSnap || job.StartSnap-t.baseSnap > maxDeltaChain ||
		seq-t.shippedAt-1 > deltaBaseSurvives {
		return 0, root, false
	}
	return t.baseSnap, t.baseRoot, true
}

// noteShipped records that job shipped as the seq-th job on the connection:
// whichever encoding carried it, the worker's replica of the run will rest
// at the job's closing snapshot, the new base. A tail epoch ends at no
// snapshot and leaves no replica.
func (t *deltaTracker) noteShipped(job *EpochJob, seq int) {
	t.baseSnap, t.baseRoot, t.haveBase = epochEnd(job)
	t.shippedAt = seq
}

// deltaFrame builds the delta-encoded frame body for job, chaining from
// the given base through src. A source error means the job ships full.
func deltaFrame(src func(k uint32) (*snapshot.Delta, error), job *EpochJob, baseSnap uint32, baseRoot [32]byte) ([]byte, error) {
	wj := &wire.AuditDeltaJob{
		Index: uint64(job.Index), StartSnap: job.StartSnap, StartSeq: job.StartSeq,
		StartRoot: job.StartRoot, BaseSnap: baseSnap, BaseRoot: baseRoot,
		Entries: job.Entries,
	}
	for k := baseSnap + 1; k <= job.StartSnap; k++ {
		d, err := src(k)
		if err != nil {
			return nil, fmt.Errorf("audit: delta source for snapshot %d: %w", k, err)
		}
		wj.Steps = append(wj.Steps, wire.DeltaStepFromDelta(d))
	}
	return wj.Marshal(), nil
}

// epochEnd extracts the terminal snapshot boundary of an epoch job: the
// snapshot index and committed root of the job's final entry. Epoch slices
// end at the snapshot entry committing their end state; jobs that do not
// (the tail past the last snapshot) report ok false.
func epochEnd(job *EpochJob) (snap uint32, root [32]byte, ok bool) {
	if job == nil || len(job.Entries) == 0 {
		return 0, root, false
	}
	e := &job.Entries[len(job.Entries)-1]
	if e.Type != tevlog.TypeSnapshot {
		return 0, root, false
	}
	ev, err := wire.ParseEvent(e.Content)
	if err != nil {
		return 0, root, false
	}
	return ev.SnapIdx, ev.Root, true
}

// invalidate forgets the tracked base after a need-state: the
// scheduler's model of the worker's replica was wrong.
func (t *deltaTracker) invalidate() { t.haveBase = false }

// rollDelta moves held, the session's replica resting at the job's base
// snapshot, through the job's delta chain: each step's pages and blobs are
// written over it with Replay.Advance and the state compared with the root
// the step claims, and the root the chain ends at is compared with the one
// the log committed at the job's start. A base root other than the one the
// replica verified at that snapshot, a step that fails its check and a
// chain that ends elsewhere are the snapshot-check fault a corrupt full
// state gets, raised before any replay work; the replica is spent then.
func rollDelta(sess Session, held *Replay, wj *wire.AuditDeltaJob) *FaultReport {
	fault := func(format string, args ...any) *FaultReport {
		return &FaultReport{Node: sess.Node, Check: CheckSnapshot, EntrySeq: wj.StartSeq, Detail: fmt.Sprintf(format, args...)}
	}
	root := held.endRoot
	if root != wj.BaseRoot {
		return fault("delta base root %x, the replica verified %x at snapshot %d", wj.BaseRoot[:8], root[:8], wj.BaseSnap)
	}
	for i := range wj.Steps {
		step := &wj.Steps[i]
		inc, err := step.Increment()
		if err == nil {
			err = held.Advance([]*snapshot.Snapshot{inc}, step.ToRoot)
		}
		if err != nil {
			return fault("delta step %d/%d: %v", i+1, len(wj.Steps), err)
		}
		root = step.ToRoot
	}
	if root != wj.StartRoot {
		return fault("delta chain ends at root %x, log committed %x", root[:8], wj.StartRoot[:8])
	}
	return nil
}
