package audit

// Delta-shipped job dispatch. After the first full-state job of a run on
// a connection, the scheduler tracks which snapshot's state the worker
// holds and ships subsequent jobs as chains of proof-carrying snapshot
// deltas (wire.AuditDeltaJob); the worker folds the chain onto its cached,
// previously-verified state, checks every step against the committed
// roots, and replays as if the full state had arrived. A worker that no
// longer holds the base answers need-state and the scheduler re-ships the
// full-state frame. A doctored chain — a lying coordinator — fails fold
// verification on the worker before any replay work is spent and surfaces
// as the same snapshot-check fault a corrupt full state would.

import (
	"errors"
	"fmt"

	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/wire"
)

// maxDeltaChain bounds the steps a single delta job may carry; a longer
// gap ships as a full state instead (the chain would approach full-state
// size anyway, and a lost worker should not trigger unbounded rebuilds).
const maxDeltaChain = 64

// stateCacheSize bounds the verified start states a worker retains per
// connection for delta-job reconstruction.
const stateCacheSize = 8

// deltaBaseSurvives is how many jobs of other runs a connection may carry
// after a run's last job before that run's base must be presumed evicted:
// every job leaves at most two states in the worker's LRU (its verified
// start and end), and the base is one of the run's own two newest.
const deltaBaseSurvives = (stateCacheSize - 2) / 2

// deltaTracker is the scheduler's record, per (connection, run), of the
// newest snapshot state the worker is known to hold. The base moves at two
// moments only: when a job ships (noteFull — either encoding leaves the
// worker holding the job's start state) and when a fault-free verdict
// comes back (noteEnd — the worker cached the verified end state).
type deltaTracker struct {
	haveBase bool
	baseSnap uint32
	baseRoot [32]byte
	// shippedAt is the connection's job count when this run last shipped on
	// it — the last time the worker's LRU saw the base's neighbourhood.
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

// noteFull records that job shipped as the seq-th job on the connection:
// whichever encoding carried it, the worker ends up holding its start
// state, which becomes the new base (boot jobs leave the worker with no
// reusable state and reset nothing).
func (t *deltaTracker) noteFull(job *EpochJob, seq int) {
	if job.Boot {
		return
	}
	t.haveBase, t.shippedAt = true, seq
	t.baseSnap = job.StartSnap
	t.baseRoot = job.StartRoot
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

// noteEnd advances the tracked base past a fault-free verdict: the worker
// replayed the epoch through its terminal snapshot entry and cached the
// verified end state (workerConn.execute), so the next contiguous job on
// this connection ships as an empty delta chain — no state bytes at all.
// The base only moves forward; a late verdict for an earlier epoch cannot
// drag it back.
func (t *deltaTracker) noteEnd(job *EpochJob) {
	snap, root, ok := epochEnd(job)
	if !ok || (t.haveBase && snap < t.baseSnap) {
		return
	}
	t.haveBase, t.baseSnap, t.baseRoot = true, snap, root
}

// invalidate forgets the tracked base after a need-state: the
// scheduler's model of the worker's cache was wrong.
func (t *deltaTracker) invalidate() { t.haveBase = false }

// stateCache is a worker's small LRU of start states keyed by their
// committed root. States enter after their job's start verification seeded
// them; lookups refresh recency. It is confined to one connection-serving
// goroutine, so no locking.
type stateCache struct {
	order [][32]byte
	m     map[[32]byte]*snapshot.Restored
}

func newStateCache() *stateCache {
	return &stateCache{m: make(map[[32]byte]*snapshot.Restored, stateCacheSize)}
}

func (c *stateCache) touch(root [32]byte) {
	for i, r := range c.order {
		if r == root {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = root
			return
		}
	}
	c.order = append(c.order, root)
}

func (c *stateCache) get(root [32]byte) (*snapshot.Restored, bool) {
	s, ok := c.m[root]
	if ok {
		c.touch(root)
	}
	return s, ok
}

func (c *stateCache) put(s *snapshot.Restored) {
	if s == nil {
		return
	}
	if _, ok := c.m[s.Root]; !ok && len(c.order) >= stateCacheSize {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.m, oldest)
	}
	c.m[s.Root] = s
	c.touch(s.Root)
}

// resolveDeltaJob reconstructs a delta job's start state from the
// connection's cache: fold every step with proof verification, check the
// final root against the job's committed start root, and cache the result
// for future chains. A missing base returns errNeedState (the worker asks
// for a full re-ship); a chain that fails verification returns the
// snapshot-check fault the verdict carries — the lying coordinator is
// caught here, before replay.
var errNeedState = errors.New("audit: delta base state not cached")

func resolveDeltaJob(sess Session, wj *wire.AuditDeltaJob, cache *stateCache) (*EpochJob, *FaultReport, error) {
	cur, ok := cache.get(wj.BaseRoot)
	if !ok {
		return nil, nil, errNeedState
	}
	for i := range wj.Steps {
		d, err := wj.Steps[i].Delta()
		if err == nil {
			cur, err = snapshot.ApplyDelta(cur, d)
		}
		if err != nil {
			return nil, &FaultReport{
				Node: sess.Node, Check: CheckSnapshot, EntrySeq: wj.StartSeq,
				Detail: fmt.Sprintf("delta step %d/%d: %v", i+1, len(wj.Steps), err),
			}, nil
		}
	}
	if cur.Root != wj.StartRoot {
		return nil, &FaultReport{
			Node: sess.Node, Check: CheckSnapshot, EntrySeq: wj.StartSeq,
			Detail: fmt.Sprintf("delta chain ends at root %x, log committed %x", cur.Root[:8], wj.StartRoot[:8]),
		}, nil
	}
	// Only the chain's end enters the cache: with the end state execute adds
	// after the replay, a job leaves at most two states behind, which is
	// what lets the scheduler bound how long a base survives
	// (deltaBaseSurvives).
	cache.put(cur)
	return &EpochJob{
		Index: int(wj.Index), StartSnap: wj.StartSnap, StartSeq: wj.StartSeq,
		StartRoot: wj.StartRoot, Start: cur, Entries: wj.Entries,
	}, nil, nil
}
