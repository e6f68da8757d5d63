package audit

import (
	"sync"

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
	// the same source, serial-then-parallel sweeps — would otherwise each
	// pay it from scratch. Audits never mutate a Restored (replicas copy the
	// memory at boot), so sharing one per index is safe under concurrent
	// Chunk calls.
	mu     sync.Mutex
	states map[int]*snapshot.Restored
}

// materialize returns the memoized state for snapshot index k, folding it
// on first use.
func (m *MonitorSource) materialize(k int) (*snapshot.Restored, error) {
	m.mu.Lock()
	st, ok := m.states[k]
	m.mu.Unlock()
	if ok {
		return st, nil
	}
	// Fold outside the lock: concurrent first requests for distinct indices
	// must not serialize. A duplicated fold for the same index only wastes
	// work; both results are identical.
	st, err := m.Materialize(k)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.states == nil {
		m.states = make(map[int]*snapshot.Restored)
	}
	m.states[k] = st
	m.mu.Unlock()
	return st, nil
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
	restored, err := m.materialize(int(start.SnapIdx))
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
// the serial pass would have inspected before stopping there. The segment
// source must tolerate concurrent Chunk calls (MonitorSource does: audits
// run against a quiesced log and snapshot store).
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
	results := make([]*Result, len(picks))
	errs := make([]error, len(picks))
	cutoff := runPool(len(picks), workers, func(i int) bool {
		req, cerr := src.Chunk(picks[i], 1)
		if cerr != nil {
			errs[i] = cerr
			return true
		}
		results[i], _ = a.auditChunk(req)
		return !results[i].Passed
	})
	if cutoff == len(picks) {
		out.SegmentsChecked = len(picks)
		return out, nil
	}
	if errs[cutoff] != nil {
		return nil, errs[cutoff]
	}
	out.SegmentsChecked = cutoff + 1
	out.FaultFound = true
	out.FirstFault = results[cutoff].Fault
	return out, nil
}
