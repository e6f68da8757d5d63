package audit

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sig"
	"repro/internal/snapshot"
)

// This file is the remote half of the epoch pipeline (stream.go): runJobs
// takes the jobs routeStream cut and collected whole, once the chain and
// syntactic checks have finished clean, and fans their replay, the
// dominant cost, out over an EpochBackend — simulated network workers, or
// real TCP workers behind a coordinator. Chain verification and the
// syntactic check stay on the coordinator (they are cheap, sequential
// passes).
//
// Trust model: workers are UNTRUSTED. The coordinator (a) materializes
// every epoch's starting state from its own snapshot source and verifies
// it against the root the audited log committed — a worker never chooses
// what state an epoch replays from; (b) re-replays a configurable fraction
// of epochs locally and compares verdicts, so a worker that lies about an
// outcome is caught with probability ≥ the spot fraction per lie; and
// (c) merges verdicts under the same earliest-fault cutoff as the
// in-process epochs (epochMerge), so the conclusion is byte-identical to
// the serial engine's whenever workers are honest — and equal to the
// coordinator's own replay of every spot-rechecked epoch regardless.

// DistOptions configures the distributed full audit. The shared knobs
// (Workers, Materialize, SpotRecheck*, DeltaJobs, DeltaSource) live in the
// embedded EngineOptions; Backend selects where epochs replay.
type DistOptions struct {
	EngineOptions
	// Backend executes epoch jobs. Nil replays the epochs in-process, on
	// the epoch pipeline's own workers.
	Backend EpochBackend
}

// DistStats reports how a distributed audit ran.
type DistStats struct {
	// Epochs is the number of replay epochs the router cut the log into.
	Epochs int
	// Dispatched counts epochs handed to the backend (epochs whose start
	// state already failed coordinator-side verification never ship).
	Dispatched int
	// CoordinatorFaults counts epochs that faulted on the coordinator
	// before dispatch (materialization or start-root verification).
	CoordinatorFaults int
	// Redispatches counts dispatch attempts beyond each epoch's first —
	// crash retries and straggler re-dispatches.
	Redispatches int
	// SpotRechecked counts epochs the coordinator re-replayed locally.
	SpotRechecked int
	// SpotMismatches counts rechecked epochs whose worker verdict diverged
	// from the coordinator's own replay — lying (or broken) workers. The
	// coordinator's verdict wins.
	SpotMismatches int
	// RetriesExhausted counts epochs that burned through their dispatch
	// retry budget (ErrRetriesExhausted). Nonzero with a clean verdict
	// means the exhausted epochs were past the earliest-fault cutoff.
	RetriesExhausted int
	// WireBytes is the total job+verdict payload shipped (0 in-process).
	WireBytes int
	// WireBytesFull and WireBytesDelta split the shipped job payload by
	// encoding: full-state AuditJob frames vs delta-shipped AuditDeltaJob
	// frames. Verdict bytes count toward WireBytes only.
	WireBytesFull  int
	WireBytesDelta int
	// DeltaJobsShipped counts jobs that went out delta-encoded;
	// DeltaFallbacks counts full-state re-ships after a worker reported a
	// missing base state (cache eviction, reconnect).
	DeltaJobsShipped int
	DeltaFallbacks   int
	// PrepWallNs is coordinator time spent materializing and root-verifying
	// start states before dispatch (remote backends only).
	PrepWallNs int64
	// MergeWallNs is coordinator time spent folding verdicts into the final
	// result after the backend finished.
	MergeWallNs int64
}

// splitmix64 is the deterministic spot-selection hash.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// spotSelected reports whether epoch i is re-replayed locally.
func (o *EngineOptions) spotSelected(i int) bool {
	if o.SpotRecheckFraction <= 0 {
		return false
	}
	if o.SpotRecheckFraction >= 1 {
		return true
	}
	return float64(splitmix64(o.SpotRecheckSeed^uint64(i))>>11)/float64(1<<53) < o.SpotRecheckFraction
}

// prepareStart materializes and root-verifies a non-boot job's starting
// state on the coordinator, setting job.Start. A failure is the epoch's
// verdict — byte-identical to the fault the in-process engine reports —
// and the job never ships.
func prepareStart(node sig.NodeID, job *EpochJob, materialize func(snapIdx uint32) (*snapshot.Restored, error)) *FaultReport {
	restored, fault := materializeStart(node, job, materialize)
	if fault != nil {
		return fault
	}
	lh := &snapshot.LiveStateHasher{}
	if verr := lh.SeedVerify(restored, job.StartRoot); verr != nil {
		return &FaultReport{
			Node: node, Check: CheckSnapshot, EntrySeq: job.StartSeq, Detail: verr.Error(),
		}
	}
	job.Start = restored
	return nil
}

// sameEpochResult reports whether a worker verdict matches the
// coordinator's own replay of the same epoch.
func sameEpochResult(local epochResult, v EpochVerdict) bool {
	if local.stats != v.Stats {
		return false
	}
	if (local.fault == nil) != (v.Fault == nil) {
		return false
	}
	if local.fault == nil {
		return true
	}
	return *local.fault == *v.Fault
}

// epochResult carries one epoch's outcome back to the merge step.
type epochResult struct {
	stats ReplayStats
	fault *FaultReport
}

func addStats(dst *ReplayStats, s ReplayStats) {
	dst.Instructions += s.Instructions
	dst.EntriesConsumed += s.EntriesConsumed
	dst.SendsMatched += s.SendsMatched
	dst.NondetsConsumed += s.NondetsConsumed
	dst.EventsInjected += s.EventsInjected
	dst.SnapshotsVerified += s.SnapshotsVerified
}

// epochMerge is the earliest-fault merge every epoch engine shares. Epochs
// report in any order and from any goroutine; the verdict is the serial
// replay's: the fault of the lowest faulting epoch, with the replay stats
// summed over that epoch and every one below it (or over all epochs on a
// pass). The cutoff is the lowest faulting epoch recorded so far; an epoch
// above it can no longer change the verdict (skip).
type epochMerge struct {
	mu      sync.Mutex
	results map[int]epochResult
	errs    map[int]error
	cutoff  atomic.Int64
}

func newEpochMerge() *epochMerge {
	m := &epochMerge{results: make(map[int]epochResult), errs: make(map[int]error)}
	m.cutoff.Store(math.MaxInt64)
	return m
}

// record stores epoch i's outcome. The first outcome recorded for an epoch
// wins (a hedged or re-dispatched epoch may report twice); a fault lowers
// the cutoff to i.
func (m *epochMerge) record(i int, r epochResult) {
	m.mu.Lock()
	_, dup := m.results[i]
	if !dup {
		m.results[i] = r
		delete(m.errs, i)
	}
	m.mu.Unlock()
	if dup || r.fault == nil {
		return
	}
	for {
		cur := m.cutoff.Load()
		if int64(i) >= cur || m.cutoff.CompareAndSwap(cur, int64(i)) {
			return
		}
	}
}

// fail notes that epoch i could not be replayed anywhere (a transport
// failure). It is kept only while the epoch has no outcome.
func (m *epochMerge) fail(i int, err error) {
	m.mu.Lock()
	if _, done := m.results[i]; !done {
		m.errs[i] = err
	}
	m.mu.Unlock()
}

// skip reports that epoch i is above the cutoff: its outcome cannot change
// the verdict.
func (m *epochMerge) skip(i int) bool { return int64(i) > m.cutoff.Load() }

// verdict merges epochs 0..n-1 once every report is in. The verdict needs
// every epoch up to the cutoff (all of them on a pass); if one of those has
// no outcome, missing is the first such epoch and err the transport failure
// noted for it, if any, and the stats and fault are zero. Otherwise missing
// is -1.
func (m *epochMerge) verdict(n int) (stats ReplayStats, fault *FaultReport, missing int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	last := n - 1
	if c := m.cutoff.Load(); c < int64(n) {
		last = int(c)
		fault = m.results[last].fault
	}
	for i := 0; i <= last; i++ {
		r, ok := m.results[i]
		if !ok {
			return ReplayStats{}, nil, i, m.errs[i]
		}
		addStats(&stats, r.stats)
	}
	return stats, fault, -1, nil
}

// runJobs dispatches the router's epoch jobs (jobs[i].Index == i) to a
// remote backend and merges verdicts under the earliest-fault cutoff
// (epochMerge). The merged (stats, fault) pair is identical to a serial
// replay of the same epochs whenever verdicts are honest; spot-rechecked
// epochs are guaranteed it regardless.
func (a *Auditor) runJobs(node sig.NodeID, jobs []*EpochJob, be EpochBackend, opts EngineOptions) (ReplayStats, *FaultReport, DistStats, error) {
	sess := a.session(node)
	dstats := DistStats{Epochs: len(jobs)}

	if opts.DeltaJobs {
		sess.deltaSrc = opts.DeltaSource
	}

	merge := newEpochMerge()

	// Jobs ship self-contained: materialize and root-verify every start on
	// the coordinator, Workers at a time. Failures are verdicts.
	prepStart := time.Now()
	faults := make([]*FaultReport, len(jobs))
	var wg sync.WaitGroup
	slots := make(chan struct{}, workersOrDefault(opts.Workers))
	for i, job := range jobs {
		if job.Boot {
			continue
		}
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			faults[i] = prepareStart(node, job, opts.Materialize)
		}()
	}
	wg.Wait()
	var dispatch []*EpochJob
	for i, job := range jobs {
		if faults[i] != nil {
			dstats.CoordinatorFaults++
			merge.record(i, epochResult{fault: faults[i]})
			continue
		}
		dispatch = append(dispatch, job)
	}
	dstats.PrepWallNs = time.Since(prepStart).Nanoseconds()
	dstats.Dispatched = len(dispatch)

	var mu sync.Mutex // guards dstats while the backend runs
	emit := func(v EpochVerdict) {
		mu.Lock()
		dstats.WireBytes += v.WireBytes
		dstats.WireBytesFull += v.WireBytesFull
		dstats.WireBytesDelta += v.WireBytesDelta
		dstats.DeltaJobsShipped += v.DeltaShipped
		dstats.DeltaFallbacks += v.DeltaFallbacks
		if v.Attempts > 1 {
			dstats.Redispatches += v.Attempts - 1
		}
		if v.Err != nil && errors.Is(v.Err, ErrRetriesExhausted) {
			dstats.RetriesExhausted++
		}
		mu.Unlock()
		if v.Err != nil {
			merge.fail(v.Index, v.Err)
			return
		}
		if opts.spotSelected(v.Index) {
			// Re-replay locally before trusting the worker: the local
			// verdict is authoritative, so a lie can never steer the cutoff
			// or the merged result for a rechecked epoch.
			local, _ := runEpochJob(sess, jobs[v.Index], nil, opts.Materialize)
			mu.Lock()
			dstats.SpotRechecked++
			if !sameEpochResult(local, v) {
				dstats.SpotMismatches++
			}
			mu.Unlock()
			merge.record(v.Index, local)
			return
		}
		merge.record(v.Index, epochResult{stats: v.Stats, fault: v.Fault})
	}

	// A backend Run error is not immediately fatal: transport failures that
	// only touched epochs past the earliest-fault cutoff cannot change the
	// verdict, so the error is held until the merge decides whether a
	// needed epoch actually went missing.
	var backendErr error
	if len(dispatch) > 0 {
		if err := be.Run(sess, dispatch, merge.skip, emit); err != nil {
			backendErr = fmt.Errorf("audit: epoch backend: %w", err)
		}
	}

	mergeStart := time.Now()
	// A transport-failed epoch the verdict needs means the audit is
	// incomplete — an error, never a silent verdict.
	merged, fault, missing, err := merge.verdict(len(jobs))
	dstats.MergeWallNs = time.Since(mergeStart).Nanoseconds()
	switch {
	case missing < 0:
		return merged, fault, dstats, nil
	case err != nil:
		return ReplayStats{}, nil, dstats, fmt.Errorf("audit: epoch %d undecided after transport failure: %w", missing, err)
	case backendErr != nil:
		return ReplayStats{}, nil, dstats, backendErr
	default:
		return ReplayStats{}, nil, dstats, fmt.Errorf("audit: backend returned no verdict for epoch %d", missing)
	}
}
