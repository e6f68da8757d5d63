package audit

import (
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

// MonitorSource adapts the common case: an auditor talking to a machine
// that exposes its log, snapshots and collected authenticators.
type MonitorSource struct {
	Node    sig.NodeID
	NodeIdx uint32
	Entries []tevlog.Entry
	Auths   []tevlog.Authenticator
	// Materialize returns the machine state at snapshot index k.
	Materialize func(k int) (*snapshot.Restored, error)

	points []SnapshotPoint

	// states memoizes Materialize per snapshot index. Folding a full state
	// out of the increment chain costs O(state) per call, and chunks that
	// share a starting snapshot — overlapping policies, repeated passes over
	// the same source, serial-then-parallel sweeps, two workers' first
	// requests — would otherwise each pay it from scratch. Audits never
	// mutate a Restored (replicas copy the memory at boot), so sharing one
	// per index is safe under concurrent Chunk calls.
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
	pts, err := m.Segments()
	if err != nil {
		return ChunkRequest{}, err
	}
	start := pts[from]
	end := pts[from+k]
	at := int(start.SnapIdx)
	restored, err := m.states.do(at, func() (*snapshot.Restored, error) { return m.Materialize(at) })
	if err != nil {
		return ChunkRequest{}, err
	}
	return ChunkRequest{
		Node: m.Node, NodeIdx: m.NodeIdx,
		Start: restored, StartRoot: start.Root, PrevHash: start.EntryHash,
		Entries: m.Entries[start.EntryIndex+1 : end.EntryIndex+1],
		Auths:   m.Auths,
	}, nil
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
// Chunks are independent — each starts from its own verified snapshot — so
// the outcome is deterministic and identical to the serial pass: the first
// fault in policy order is reported, and SegmentsChecked counts the chunks
// the serial pass would have inspected before stopping there; a Chunk error
// is returned if the serial pass would have reached it.
//
// Assembling a chunk — reading its window, folding and hash-verifying its
// start state — is a stage of its own: while the workers audit, one more
// goroutine assembles the picks that follow, in pick order, so that a
// worker finds its next chunk ready. No pick more than workers past the
// last one of the audited-and-passed prefix is assembled, which bounds the
// chunks assembled and not yet audited, and the work done past a fault, to
// workers+1. With one P there is nobody to hand anything to: no goroutine
// is started and chunks are assembled and audited in turn. The segment
// source must tolerate concurrent Chunk calls (MonitorSource and
// ArchiveSource do: audits run against a quiesced log and snapshot store).
func (a *Auditor) SpotCheckParallel(src SegmentSource, policy SpotPolicy, workers int) (*SpotCheckOutcome, error) {
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
		a: a, src: src, picks: picks, workers: workers,
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
// which chunks are assembled, and where the pass stops. Picks are named by
// their position in picks throughout.
type spotStage struct {
	a       *Auditor
	src     SegmentSource
	picks   []int
	workers int

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

// assembledChunk is what SegmentSource.Chunk returned for one pick.
type assembledChunk struct {
	req ChunkRequest
	err error
}

// chunk assembles pick i, or waits for whoever already is. The source's
// error is part of the memoized value: a flight forgets a failure, and the
// pass must report what the source said the one time it was asked.
func (st *spotStage) chunk(i int) *assembledChunk {
	c, _ := st.chunks.do(i, func() (*assembledChunk, error) {
		req, err := st.src.Chunk(st.picks[i], 1)
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
// workers - 1 at most.
func (st *spotStage) work() {
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
		res, _ := st.a.auditChunk(c.req)
		// This worker was the request's only reader: let go of the decoded
		// window (the source keeps the start state, not the pass).
		c.req = ChunkRequest{}
		if !res.Passed {
			st.stop(i, res.Fault, nil)
			return
		}
		st.pass(i)
	}
}

// assembleAhead assembles every pick in pick order, at most one past what
// the workers can hold, and stops at the first that cannot be assembled: the
// serial pass would not look beyond it either. A pick a worker is already
// assembling is waited for, not assembled again and not overtaken, so with
// one worker Chunk is never called twice at once — this goroutine assembles
// pick i+1 while the worker audits pick i, and a source that was written for
// the serial pass sees calls that follow one another as they always did.
func (st *spotStage) assembleAhead() {
	for j := 0; j < len(st.picks) && st.admit(j, st.workers); j++ {
		if c := st.chunk(j); c.err != nil {
			st.stop(j, nil, c.err)
			return
		}
	}
}
