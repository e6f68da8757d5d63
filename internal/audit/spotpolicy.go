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
// without binding to a particular monitor implementation: the snapshot
// points that delimit them, the window of log a pick replays, and the
// snapshot increments whose fold is the state a pick starts from. A spot
// check boots a worker's replica from the increments and rolls it forward by
// the increments between its picks (SpotCheckParallel). All three methods
// must tolerate concurrent calls.
type SegmentSource interface {
	// Segments returns the snapshot points delimiting segments.
	Segments() ([]SnapshotPoint, error)
	// Window assembles the audit request for segments [from, from+k)
	// without its start state: Start is nil. A request outside the snapshot
	// points is an error.
	Window(from, k int) (ChunkRequest, error)
	// IncrementSource returns the machine's snapshot increments: the state
	// at point i of Segments is their fold up to snapshot index SnapIdx. A
	// spot check reads ahead of its workers what it expects them to need
	// and they read again what they do need, so a source whose reads are
	// costly should remember them, as the archive's does. A source without
	// increments returns nil, and no spot check runs over it.
	IncrementSource() snapshot.IncrementSource
}

// checkSegments is what Window says about a request for segments
// [from, from+k) of a log with the given number of snapshot points: an
// error unless from is a point, k is at least 1 and point from+k exists.
func checkSegments(from, k, points int) error {
	if from < 0 || k < 1 || from > points-1 || k > points-1-from {
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
	// Increments hands out the machine's snapshot increments one at a time
	// (a *snapshot.Store is such a source).
	Increments snapshot.IncrementSource

	points []SnapshotPoint
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

// Window implements SegmentSource.
func (m *MonitorSource) Window(from, k int) (ChunkRequest, error) {
	pts, err := m.Segments()
	if err == nil {
		err = checkSegments(from, k, len(pts))
	}
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

// IncrementSource implements SegmentSource: Increments.
func (m *MonitorSource) IncrementSource() snapshot.IncrementSource { return m.Increments }

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
	k := min(p.K, n)
	if k <= 0 {
		return nil
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

// SpotCheckParallel applies a policy: it audits each selected 1-segment
// chunk and stops at the first fault. Accuracy is unconditional — an honest
// machine passes any subset; completeness holds only if a faulty segment is
// among the inspected ones (§4.7). The chunks are audited concurrently on up
// to workers goroutines (<= 0 selects runtime.GOMAXPROCS(0); 1 is the serial
// pass). Every chunk starts from a snapshot verified against the root the log
// committed there and is checked for itself, so the outcome is deterministic
// and identical to the serial pass: the first fault in policy order is
// reported, and SegmentsChecked counts the chunks the serial pass would have
// inspected before stopping there; a source error is returned if the serial
// pass would have reached it.
//
// What differs between picks is how a worker comes by that verified start.
// Its first pick, and a pick that starts before the snapshot its replica
// rests at, is audited on a new replica booted in one pass over the
// source's increments (bootReplay): they are read newest first and folded
// straight into the replica's memory, each page copied once and its leaf
// hashed as soon as no older increment can overwrite it, and the tree's
// interior is folded once at the end. After that the worker holds a replica
// resting at the closing snapshot a of the pick it just passed — a state the
// replay itself verified against the committed root —
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
// Assembling a pick — reading its window and the increments its start needs
// — is a stage of its own: while the workers audit, one more goroutine
// assembles the picks that follow, in pick order, so that a worker finds its
// next window decoded and its increments read and verified. For the first
// pick of each worker it reads increment 0, the full capture and the largest
// read of any fold that reaches it, before the window, while the worker
// reads the newer increments and folds them into its replica; it folds no
// state itself. It cannot know which worker will take a pick: it reads ahead
// for the one that rests at the end of the pick workers before, which is
// exact with one worker, and a worker that rests
// elsewhere asks the source itself for the increments after its own
// position, never applying an older page over a newer one. No pick more than
// workers past the last one of the audited-and-passed prefix is assembled,
// which bounds the picks assembled and not yet audited, and the work done
// past a fault, to workers+1. With one P there is nobody to hand anything to:
// no goroutine is started and picks are assembled and audited in turn. The
// segment source must tolerate concurrent calls (MonitorSource and
// ArchiveSource do: audits run against a quiesced log and snapshot store),
// and must hand out increments: over a source without them the pass returns
// an error.
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
	incs := src.IncrementSource()
	if incs == nil {
		return nil, errors.New("audit: the segment source hands out no snapshot increments")
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
		a: a, src: src, incs: incs, pts: pts, picks: picks, workers: workers, observe: observe,
		chunks: make([]assembledChunk, len(picks)),
		passed: make([]bool, len(picks)), cutoff: len(picks),
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
// which windows are read, and where the pass stops. Picks are named by
// their position in picks throughout.
type spotStage struct {
	a       *Auditor
	src     SegmentSource
	incs    snapshot.IncrementSource // src's: every replica boots and rolls on them
	pts     []SnapshotPoint
	picks   []int
	workers int
	observe func(i int, res *Result)

	// chunks[i] is pick i's one window, read by whoever asked for it first:
	// the goroutine running ahead, or the worker that got there before it.
	chunks []assembledChunk
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

// assembledChunk is what the source returned for one pick's Window, asked
// once: whoever comes second waits in once.Do for the first.
type assembledChunk struct {
	once sync.Once
	req  ChunkRequest
	err  error
}

// chunk reads pick i's window, or waits for whoever already is. The
// source's error is kept with the window: the pass must report what the
// source said the one time it was asked.
func (st *spotStage) chunk(i int) *assembledChunk {
	c := &st.chunks[i]
	c.once.Do(func() { c.req, c.err = st.src.Window(st.picks[i], 1) })
	return c
}

// increments reads the source's increments after snapshot point a, up to
// and including point b, oldest first; none when the two are equal.
func (st *spotStage) increments(a, b int) ([]*snapshot.Snapshot, error) {
	return snapshot.IncrementRange(st.incs, int(st.pts[a].SnapIdx), int(st.pts[b].SnapIdx))
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
// workers - 1 at most. The worker keeps the replica of the pick it last
// passed and moves it to the next pick's start when that lies at or after
// the point it rests at.
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
		// window (the increment source keeps what it read, not the pass).
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
		// The window the source cut ends at point pick+1; keep the replica
		// only if that is the snapshot it verified last.
		rp = nil
		if snap, ok := held.restingAt(); ok && snap == st.pts[pick+1].SnapIdx {
			rp, at = held, pick+1
		}
		st.pass(i)
	}
}

// startOn brings a replica to the start of pick, the pick req was cut for,
// and checks it against req.StartRoot: rp, resting at point at, is rolled
// there by the increments in between when it can be (Replay.Advance);
// otherwise a new replica is booted from the source's increments. A failed
// check is the returned error, and so is a source that could not hand over
// what the move needs, as a sourceError.
func (st *spotStage) startOn(rp *Replay, at, pick int, req *ChunkRequest) (*Replay, error) {
	var incs []*snapshot.Snapshot
	if rp != nil && at <= pick {
		var err error
		if incs, err = st.increments(at, pick); err != nil {
			return nil, sourceError{err}
		}
	} else {
		rp = nil
	}
	start := ReplicaStart{Incs: st.incs, Index: int(st.pts[pick].SnapIdx)}
	return startReplica(req.Node, rp, incs, start, req.StartRoot, st.a.RNGSeed)
}

// assembleAhead assembles every pick in pick order, at most one past what
// the workers can hold, and stops at the first that cannot be assembled: the
// serial pass would not look beyond it either. A pick a worker is already
// assembling is waited for, not assembled again and not overtaken, so with
// one worker Window is never called twice at once — this goroutine
// assembles pick i+1 while the worker audits pick i. (The increment source
// is asked for a pick's increments by this goroutine and by the worker
// both, and has said it tolerates that.)
func (st *spotStage) assembleAhead() {
	for j := 0; j < len(st.picks) && st.admit(j, st.workers); j++ {
		// The start first: a worker's first pick waits on the read of
		// increment 0 longest, and needs its window only after its boot.
		if st.readAhead(j) != nil {
			// The worker that takes pick j asks again and reports what it is
			// told; past an unreadable increment there is nothing to prepare.
			return
		}
		if c := st.chunk(j); c.err != nil {
			st.stop(j, nil, c.err)
			return
		}
	}
}

// readAhead has the increment source read, verify and remember what the
// worker that takes pick j will ask it for, so that no state is folded that
// nobody boots from: the increments since the end of the pick workers before
// it if that worker is expected to hold a replica resting at or before pick
// j's start; otherwise increment 0, which a boot's fold reaches last.
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
			_, err := st.increments(at, pick)
			return err
		}
	}
	_, _ = st.incs.Increment(0)
	return nil
}
