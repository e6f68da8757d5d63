package audit

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
)

// Spot-check policies (§3.5). Spot checking trades completeness for
// efficiency: a fault is detected only if it manifests in an inspected
// segment. The paper sketches policies — inspect a random sample, always
// inspect high-leverage segments (initialization), or work backwards from
// suspicious results; this file provides the machinery and the policies so
// their detection probability can be measured (see the spot-check
// experiments).

// SegmentSource lets a policy enumerate and audit a machine's segments
// without binding to a particular monitor implementation.
type SegmentSource interface {
	// Segments returns the snapshot points delimiting segments.
	Segments() ([]SnapshotPoint, error)
	// Chunk assembles the audit request for segments [from, from+k).
	Chunk(from, k int) (ChunkRequest, error)
}

// RollSource is a SegmentSource that hands out the parts of a chunk one by
// one, which is what lets a spot check keep a replica between picks: a
// worker whose replica rests at snapshot point a audits a pick that starts
// at point b >= a from the pick's window and the increments (a, b], and
// boots a new replica (ReplicaStart) only for its first pick or one that
// starts before a. Chunk(from, k) is Window(from, k) with the state at point
// from as its Start.
//
// The pass asks ahead of the audit for what it expects a worker to need and
// the worker asks again for what it does need, so what ReplicaStart and
// IncrementRange read should be remembered (MonitorSource and ArchiveSource
// do, and the archive's increment source does). Like Chunk, all three must
// tolerate concurrent calls, and all three answer a request outside the
// snapshot points with the error Chunk answers it with.
type RollSource interface {
	SegmentSource
	// CanRoll reports whether IncrementRange has increments to hand out; a
	// source that says no is audited through Chunk alone.
	CanRoll() bool
	// Window is Chunk without the start state: Start is nil.
	Window(from, k int) (ChunkRequest, error)
	// ReplicaStart returns the state at snapshot point from as a replica
	// is booted from it: where the state is a fold of the source's
	// increments, the increments and the snapshot index, read and folded
	// by the boot itself straight into the replica's memory; otherwise the
	// full state.
	ReplicaStart(from int) (ReplicaStart, error)
	// IncrementRange returns the snapshot increments after point after, up
	// to and including point upTo, oldest first; none when the two are equal.
	IncrementRange(after, upTo int) ([]*snapshot.Snapshot, error)
}

// checkSegments is what every source method says about a request for
// segments [from, from+k) of a log with the given number of snapshot points:
// an error unless from is a point, k is at least minK and point from+k
// exists.
func checkSegments(from, k, minK, points int) error {
	if from < 0 || k < minK || from > points-1 || k > points-1-from {
		return fmt.Errorf("audit: segments [%d,%d+%d) outside the %d snapshot points of the log", from, from, k, points)
	}
	return nil
}

// MonitorSource adapts the common case: an auditor talking to a machine
// that exposes its log, snapshots and collected authenticators.
type MonitorSource struct {
	Node    sig.NodeID
	NodeIdx uint32
	Entries []tevlog.Entry
	Auths   []tevlog.Authenticator
	// Materialize returns the machine state at snapshot index k. It may be
	// nil when Increments is set: states are then folded from the increments.
	Materialize func(k int) (*snapshot.Restored, error)
	// Increments, when set, hands out the machine's snapshot increments one
	// at a time, and a spot check then rolls its replicas forward between
	// picks (RollSource) instead of asking Materialize for every pick's
	// state.
	Increments snapshot.IncrementSource

	points []SnapshotPoint

	// states memoizes Materialize per snapshot index. Folding a full state
	// out of the increment chain costs O(state) per call, and chunks that
	// share a starting snapshot — overlapping policies, repeated passes over
	// the same source, serial-then-parallel sweeps, two workers' first
	// picks — would otherwise each pay it from scratch. A spot check over
	// Increments alone folds no state here: each worker boots its first
	// replica from the increments and rolls from there. Every Chunk call,
	// and ReplicaStart with Materialize set, fills the memo. Audits never
	// mutate a Restored (replicas copy the memory at boot), so sharing one
	// per index is safe under concurrent calls.
	states flight[*snapshot.Restored]
}

// Segments implements SegmentSource.
func (m *MonitorSource) Segments() ([]SnapshotPoint, error) {
	if m.points == nil {
		pts, err := FindSnapshots(m.Entries)
		if err != nil {
			return nil, err
		}
		m.points = pts
	}
	return m.points, nil
}

// Chunk implements SegmentSource.
func (m *MonitorSource) Chunk(from, k int) (ChunkRequest, error) {
	req, err := m.Window(from, k)
	if err != nil {
		return ChunkRequest{}, err
	}
	if req.Start, err = m.StartState(from); err != nil {
		return ChunkRequest{}, err
	}
	return req, nil
}

// CanRoll implements RollSource.
func (m *MonitorSource) CanRoll() bool { return m.Increments != nil }

// pointsFor returns the snapshot points once checkSegments has passed the
// request for segments [from, from+k).
func (m *MonitorSource) pointsFor(from, k, minK int) ([]SnapshotPoint, error) {
	pts, err := m.Segments()
	if err == nil {
		err = checkSegments(from, k, minK, len(pts))
	}
	return pts, err
}

// Window implements RollSource.
func (m *MonitorSource) Window(from, k int) (ChunkRequest, error) {
	pts, err := m.pointsFor(from, k, 1)
	if err != nil {
		return ChunkRequest{}, err
	}
	start, end := pts[from], pts[from+k]
	return ChunkRequest{
		Node: m.Node, NodeIdx: m.NodeIdx,
		StartRoot: start.Root, PrevHash: start.EntryHash,
		Entries: m.Entries[start.EntryIndex+1 : end.EntryIndex+1],
		Auths:   m.Auths,
	}, nil
}

// ReplicaStart implements RollSource: the increments when Materialize is
// nil, the memoized state Materialize returns otherwise.
func (m *MonitorSource) ReplicaStart(from int) (ReplicaStart, error) {
	if m.Materialize == nil && m.Increments != nil {
		pts, err := m.pointsFor(from, 0, 0)
		if err != nil {
			return ReplicaStart{}, err
		}
		return ReplicaStart{Incs: m.Increments, Index: int(pts[from].SnapIdx)}, nil
	}
	st, err := m.StartState(from)
	return ReplicaStart{State: st}, err
}

// StartState returns the full machine state at snapshot point from, the
// Start of Chunk(from, k).
func (m *MonitorSource) StartState(from int) (*snapshot.Restored, error) {
	pts, err := m.pointsFor(from, 0, 0)
	if err != nil {
		return nil, err
	}
	at := int(pts[from].SnapIdx)
	return m.states.do(at, func() (*snapshot.Restored, error) {
		if m.Materialize == nil && m.Increments != nil {
			return snapshot.MaterializeFrom(m.Increments, at)
		}
		return m.Materialize(at)
	})
}

// IncrementRange implements RollSource.
func (m *MonitorSource) IncrementRange(after, upTo int) ([]*snapshot.Snapshot, error) {
	pts, err := m.pointsFor(after, upTo-after, 0)
	if err == nil && m.Increments == nil {
		err = fmt.Errorf("audit: %s: no increment source", m.Node)
	}
	if err != nil {
		return nil, err
	}
	return snapshot.IncrementRange(m.Increments, int(pts[after].SnapIdx), int(pts[upTo].SnapIdx))
}

// SpotPolicy selects which segments to inspect out of n available.
type SpotPolicy interface {
	// Pick returns the segment indices to audit, each in [0, n).
	Pick(n int) []int
}

// RandomSample inspects Fraction of segments, chosen by a seeded PRNG
// (deterministic for reproducibility). Fraction is in 1/256 units.
type RandomSample struct {
	Fraction256 int
	Seed        uint64
}

// Pick implements SpotPolicy.
func (p RandomSample) Pick(n int) []int {
	rng := p.Seed
	if rng == 0 {
		rng = 0x9E3779B97F4A7C15
	}
	var out []int
	for i := 0; i < n; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		if int(rng&0xFF) < p.Fraction256 {
			out = append(out, i)
		}
	}
	return out
}

// RecentFirst inspects the last K segments — the "work backwards from
// suspicious results" policy.
type RecentFirst struct{ K int }

// Pick implements SpotPolicy.
func (p RecentFirst) Pick(n int) []int {
	k := p.K
	if k > n {
		k = n
	}
	out := make([]int, 0, k)
	for i := n - k; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// InitializationPlus always inspects the first segment (where faults have
// the longest-lived effects: initialization, key generation) and samples
// the rest.
type InitializationPlus struct{ Rest SpotPolicy }

// Pick implements SpotPolicy.
func (p InitializationPlus) Pick(n int) []int {
	if n == 0 {
		return nil
	}
	seen := map[int]bool{0: true}
	out := []int{0}
	if p.Rest != nil {
		for _, i := range p.Rest.Pick(n) {
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	return out
}

// SpotCheckOutcome summarizes a policy run.
type SpotCheckOutcome struct {
	SegmentsTotal   int
	SegmentsChecked int
	FaultFound      bool
	FirstFault      *FaultReport
}

// SpotCheck applies a policy: it audits each selected 1-segment chunk and
// stops at the first fault. Accuracy is unconditional — an honest machine
// passes any subset; completeness holds only if a faulty segment is among
// the inspected ones (§4.7).
func (a *Auditor) SpotCheck(src SegmentSource, policy SpotPolicy) (*SpotCheckOutcome, error) {
	return a.SpotCheckParallel(src, policy, 1)
}

// SpotCheckParallel is SpotCheck with the selected chunks audited
// concurrently on up to workers goroutines (<= 0 selects runtime.GOMAXPROCS(0)).
// Every chunk starts from a snapshot verified against the root the log
// committed there and is checked for itself, so the outcome is deterministic
// and identical to the serial pass: the first fault in policy order is
// reported, and SegmentsChecked counts the chunks the serial pass would have
// inspected before stopping there; a source error is returned if the serial
// pass would have reached it.
//
// What differs between picks is how a worker comes by that verified start.
// Its first pick, a pick that starts before the snapshot its replica rests
// at, and every pick of a source that is no RollSource (or cannot roll) is
// audited from scratch, on a new replica booted in one pass over the start
// state (bootReplay): where the state is a fold of the source's increments,
// they are read newest first and folded straight into the replica's memory,
// each page copied once and its leaf hashed as soon as no older increment
// can overwrite it, and the tree's interior is folded once at the end; a
// full state a source materialized is copied and hashed the same way. After
// that the worker holds a replica resting at the closing snapshot a of the
// pick it just passed — a state the replay itself verified against the
// committed root —
// and for a pick starting at b >= a it reads the increments (a, b], writes
// their pages over the replica, folds exactly those pages into the tree it
// holds and compares the digest with the root committed at b
// (Replay.Advance): the cost of what the guest wrote in between, not of its
// memory, and with b == a (adjacent picks, full coverage) nothing is read at
// all. The digest covers every page, so a rolled start that passes is bit
// for bit the folded one and the verdict, the Result and every fault text
// are the from-scratch audit's. What changes is which bytes are looked at: a
// rolled pick does not read the increments at or below a, so damage there is
// reported by the picks that start below it — the first pick of each worker
// folds down to increment 0 — and not by this one.
//
// Assembling a pick — reading its window and whatever its start needs — is
// a stage of its own: while the workers audit, one more goroutine assembles
// the picks that follow, in pick order, so that a worker finds its next
// window decoded and its increments read and verified. For the first pick of
// each worker it reads increment 0, the full capture and the largest read of
// any fold that reaches it, before the window, while the worker reads the
// newer increments and folds them into its replica (or, from a source that
// materializes states, it has the state materialized); it folds no state
// itself. It cannot know which worker will take a pick: it reads ahead for
// the one that rests at the end of the pick workers before, which is exact
// with one worker, and a worker that rests
// elsewhere asks the source itself for the increments after its own
// position, never applying an older page over a newer one. No pick more than
// workers past the last one of the audited-and-passed prefix is assembled,
// which bounds the picks assembled and not yet audited, and the work done
// past a fault, to workers+1. With one P there is nobody to hand anything to:
// no goroutine is started and picks are assembled and audited in turn. The
// segment source must tolerate concurrent calls (MonitorSource and
// ArchiveSource do: audits run against a quiesced log and snapshot store).
func (a *Auditor) SpotCheckParallel(src SegmentSource, policy SpotPolicy, workers int) (*SpotCheckOutcome, error) {
	return a.spotCheck(src, policy, workers, nil)
}

// spotCheck is SpotCheckParallel; observe, if set, is told the Result of
// every pick a worker audits (tests compare them with a from-scratch pass).
func (a *Auditor) spotCheck(src SegmentSource, policy SpotPolicy, workers int, observe func(i int, res *Result)) (*SpotCheckOutcome, error) {
	pts, err := src.Segments()
	if err != nil {
		return nil, err
	}
	nSegments := len(pts) - 1
	if nSegments < 0 {
		nSegments = 0
	}
	out := &SpotCheckOutcome{SegmentsTotal: nSegments}
	var picks []int
	for _, idx := range policy.Pick(nSegments) {
		if idx >= 0 && idx < nSegments {
			picks = append(picks, idx)
		}
	}
	workers = workersOrDefault(workers)
	if workers > len(picks) {
		workers = len(picks)
	}
	st := &spotStage{
		a: a, src: src, pts: pts, picks: picks, workers: workers, observe: observe,
		passed: make([]bool, len(picks)), cutoff: len(picks),
	}
	if roll, ok := src.(RollSource); ok && roll.CanRoll() {
		st.roll = roll
	}
	st.cond.L = &st.mu
	var wg sync.WaitGroup
	if runtime.GOMAXPROCS(0) > 1 {
		start := func(fn func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn()
			}()
		}
		if workers < len(picks) {
			start(st.assembleAhead)
		}
		for w := 1; w < workers; w++ {
			start(st.work)
		}
	}
	st.work()
	wg.Wait()
	if st.cutoff == len(picks) {
		out.SegmentsChecked = len(picks)
		return out, nil
	}
	if st.err != nil {
		return nil, st.err
	}
	out.SegmentsChecked = st.cutoff + 1
	out.FaultFound = true
	out.FirstFault = st.fault
	return out, nil
}

// spotStage is the state of one SpotCheckParallel: who audits which pick,
// which chunks are assembled, and where the pass stops. Picks are named by
// their position in picks throughout.
type spotStage struct {
	a   *Auditor
	src SegmentSource
	// roll is src when it hands out increments: workers then keep their
	// replicas between picks, and a pick's assembly is its window alone.
	roll    RollSource
	pts     []SnapshotPoint
	picks   []int
	workers int
	observe func(i int, res *Result)

	// chunks holds every pick's one assembly, whoever asked for it first:
	// the goroutine running ahead, or the worker that got there before it.
	chunks flight[*assembledChunk]
	// next is the next pick no worker has taken.
	next atomic.Int64

	mu   sync.Mutex
	cond sync.Cond
	// passed[i] is set when pick i was audited without a fault; committed is
	// the length of the all-passed prefix.
	passed    []bool
	committed int
	// cutoff is the lowest pick that faulted or could not be assembled
	// (len(picks): none so far), fault or err what it reported. Picks above
	// it are no longer started; picks below it all run to completion, since
	// one of them may yet lower it.
	cutoff int
	fault  *FaultReport
	err    error
}

// assembledChunk is what the source returned for one pick: its Chunk, or
// from a source that rolls its Window.
type assembledChunk struct {
	req ChunkRequest
	err error
}

// chunk assembles pick i, or waits for whoever already is. The source's
// error is part of the memoized value: a flight forgets a failure, and the
// pass must report what the source said the one time it was asked.
func (st *spotStage) chunk(i int) *assembledChunk {
	c, _ := st.chunks.do(i, func() (*assembledChunk, error) {
		assemble := st.src.Chunk
		if st.roll != nil {
			assemble = st.roll.Window
		}
		req, err := assemble(st.picks[i], 1)
		return &assembledChunk{req: req, err: err}, nil
	})
	return c
}

// admit waits until pick i is at most ahead picks past the passed prefix
// and reports whether it is still wanted: false once a lower pick has
// stopped the pass.
func (st *spotStage) admit(i, ahead int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i <= st.cutoff && i > st.committed+ahead {
		st.cond.Wait()
	}
	return i <= st.cutoff
}

// pass records that pick i was audited without a fault.
func (st *spotStage) pass(i int) {
	st.mu.Lock()
	st.passed[i] = true
	for st.committed < len(st.passed) && st.passed[st.committed] {
		st.committed++
	}
	st.mu.Unlock()
	st.cond.Broadcast()
}

// stop records that pick i faulted or could not be assembled.
func (st *spotStage) stop(i int, fault *FaultReport, err error) {
	st.mu.Lock()
	if i < st.cutoff {
		st.cutoff, st.fault, st.err = i, fault, err
	}
	st.mu.Unlock()
	st.cond.Broadcast()
}

// work audits picks, taking the next untaken one each time, until none is
// left or wanted. The workers of a pass hold picks committed .. committed +
// workers - 1 at most. Over a source that rolls, the worker keeps the
// replica of the pick it last passed and moves it to the next pick's start
// when that lies at or after the point it rests at.
func (st *spotStage) work() {
	var rp *Replay // resting at snapshot point at
	var at int
	for {
		i := int(st.next.Add(1)) - 1
		if i >= len(st.picks) || !st.admit(i, st.workers-1) {
			return
		}
		c := st.chunk(i)
		if c.err != nil {
			st.stop(i, nil, c.err)
			return
		}
		req, pick := c.req, st.picks[i]
		// This worker was the request's only reader: let go of the decoded
		// window (the source keeps the states and increments, not the pass).
		c.req = ChunkRequest{}
		var err error
		rp, err = st.startOn(rp, at, pick, &req)
		var source sourceError
		if errors.As(err, &source) {
			st.stop(i, nil, source.error)
			return
		}
		res, _, held := st.a.auditChunkOn(rp, err, req)
		if st.observe != nil {
			st.observe(i, res)
		}
		if !res.Passed {
			st.stop(i, res.Fault, nil)
			return
		}
		rp = nil
		if st.roll != nil {
			// The window the source cut ends at point pick+1; keep the
			// replica only if that is the snapshot it verified last.
			if snap, ok := held.restingAt(); ok && snap == st.pts[pick+1].SnapIdx {
				rp, at = held, pick+1
			}
		}
		st.pass(i)
	}
}

// startOn brings a replica to the start of pick, the pick req was cut for,
// and checks it against req.StartRoot: rp, resting at point at, is rolled
// there by the increments in between when it can be (Replay.Advance);
// otherwise a new replica is booted from the source's start state. A failed
// check is the returned error, and so is a source that could not hand over
// what the move needs, as a sourceError.
func (st *spotStage) startOn(rp *Replay, at, pick int, req *ChunkRequest) (*Replay, error) {
	start := ReplicaStart{State: req.Start}
	var incs []*snapshot.Snapshot
	if st.roll != nil {
		var err error
		if rp != nil && at <= pick {
			incs, err = st.roll.IncrementRange(at, pick)
		} else {
			rp = nil
			start, err = st.roll.ReplicaStart(pick)
		}
		if err != nil {
			return nil, sourceError{err}
		}
	}
	return startReplica(req.Node, rp, incs, start, req.StartRoot, st.a.RNGSeed)
}

// assembleAhead assembles every pick in pick order, at most one past what
// the workers can hold, and stops at the first that cannot be assembled: the
// serial pass would not look beyond it either. A pick a worker is already
// assembling is waited for, not assembled again and not overtaken, so with
// one worker Chunk is never called twice at once — this goroutine assembles
// pick i+1 while the worker audits pick i, and a source that was written for
// the serial pass sees calls that follow one another as they always did. (A
// RollSource is asked for a pick's parts by this goroutine and by the worker
// both, and has said it tolerates that.)
func (st *spotStage) assembleAhead() {
	for j := 0; j < len(st.picks) && st.admit(j, st.workers); j++ {
		// The start first: a worker's first pick waits on the read of
		// increment 0 longest, and needs its window only after its boot.
		if st.roll != nil && st.readAhead(j) != nil {
			// The worker that takes pick j asks again and reports what it is
			// told; past an unreadable state there is nothing to prepare.
			return
		}
		if c := st.chunk(j); c.err != nil {
			st.stop(j, nil, c.err)
			return
		}
	}
}

// readAhead has the source read, verify and remember what the worker that
// takes pick j will ask it for, so that no state is folded that nobody
// boots from: the increments since the end of the pick workers before it if
// that worker is expected to hold a replica resting at or before pick j's
// start; otherwise, for a boot from increments, increment 0, which the
// worker's fold reaches last, and for a source that materializes states, the
// state.
//
// Increment 0 is read without knowing whether the fold will reach it: that
// takes reading the newer increments first, and then its read would no
// longer overlap theirs. When the newer increments cover every page, the
// read is wasted and the source keeps what it read, as the archive keeps an
// increment it read ahead for a fold that stopped above it. Its error is
// not the pass's either: the worker's fold asks again if it needs the
// increment and reports what it is told, so the assembly goes on.
func (st *spotStage) readAhead(j int) error {
	pick := st.picks[j]
	if j >= st.workers {
		if at := st.picks[j-st.workers] + 1; at <= pick {
			_, err := st.roll.IncrementRange(at, pick)
			return err
		}
	}
	start, err := st.roll.ReplicaStart(pick)
	if err == nil && start.Incs != nil {
		_, _ = start.Incs.Increment(0)
	}
	return err
}
