package audit

import (
	"sync"
	"sync/atomic"

	"repro/internal/sig"
	"repro/internal/tevlog"
)

// This file implements the epoch-parallel audit engine. A tamper-evident
// log is naturally partitioned by its snapshot entries (§4.4): each
// snapshot commits a state root, so the segment between two snapshots is
// independently verifiable — replay it from the earlier snapshot's state
// and check the later root (§3.5 uses exactly this structure for spot
// checking). A full audit is therefore a fan-out: verify the chain and
// syntax once, then replay every inter-snapshot epoch concurrently.
//
// Soundness matches the serial audit's: epoch i starts from a state the
// engine verifies against the root committed at snapshot i (so the machine
// cannot hand the auditor a state it never committed to), and epoch i's
// replay re-derives the root committed at snapshot i+1. If every epoch
// passes, the serial replay would have passed; if the machine's execution
// diverged anywhere, the earliest affected epoch faults, and the engine
// reports that epoch's fault — the same check, entry, and landmark the
// serial replay reports.
//
// The engine is the dist router (auditDist, runJobs) on the in-process
// PoolBackend; this file holds the partition rule and the pool.

// epochResult carries one epoch's outcome back to the merge step.
type epochResult struct {
	stats ReplayStats
	fault *FaultReport
}

// SemanticCheckParallel runs only the semantic (replay) stage of a full
// audit on the epoch-parallel engine, returning the merged replay stats
// and the earliest fault (nil if the execution replays cleanly). It is the
// stage the parallel engine runs after log verification and the syntactic
// check; experiments time it directly against the serial replay.
func (a *Auditor) SemanticCheckParallel(node sig.NodeID, entries []tevlog.Entry, opts EngineOptions) (ReplayStats, *FaultReport) {
	jobs := a.partition(entries, opts)
	be := &PoolBackend{Workers: opts.Workers, Materialize: opts.Materialize}
	stats, fault, _, err := a.runJobs(node, jobs, be, opts)
	if err != nil {
		// The in-process pool never reports transport failures; this guards
		// a future backend misrouted through the parallel entry point.
		return stats, &FaultReport{Node: node, Check: CheckSemantic, Detail: err.Error()}
	}
	return stats, fault
}

// partition slices the log into epoch jobs at snapshot entries. It returns
// a single boot epoch (the serial layout) when the log has no snapshots,
// the snapshot scan fails (replay will fault on the malformed entry), or no
// Materialize source is available.
func (a *Auditor) partition(entries []tevlog.Entry, opts EngineOptions) []*EpochJob {
	whole := []*EpochJob{{Boot: true, Entries: entries}}
	if opts.Materialize == nil || len(entries) == 0 {
		return whole
	}
	points, err := FindSnapshots(entries)
	if err != nil || len(points) == 0 {
		return whole
	}
	jobs := make([]*EpochJob, 0, len(points)+1)
	jobs = append(jobs, &EpochJob{Boot: true, Entries: entries[:points[0].EntryIndex+1], Cost: points[0].ICount})
	for i := 1; i < len(points); i++ {
		jobs = append(jobs, &EpochJob{
			StartSnap: points[i-1].SnapIdx,
			StartRoot: points[i-1].Root,
			StartSeq:  points[i-1].Seq,
			Entries:   entries[points[i-1].EntryIndex+1 : points[i].EntryIndex+1],
			Cost:      points[i].ICount - points[i-1].ICount,
		})
	}
	last := points[len(points)-1]
	if tail := entries[last.EntryIndex+1:]; len(tail) > 0 {
		// No snapshot closes the tail, so its landmark span is unknown;
		// estimate from the log's instructions-per-entry rate so far.
		cost := last.ICount / uint64(last.EntryIndex+1) * uint64(len(tail))
		jobs = append(jobs, &EpochJob{
			StartSnap: last.SnapIdx, StartRoot: last.Root, StartSeq: last.Seq,
			Entries: tail, Cost: cost,
		})
	}
	for i, j := range jobs {
		j.Index = i
	}
	return jobs
}

// replayFull is the shared serial semantic check: one replay of the whole
// log from the reference image, i.e. a single boot epoch.
func (a *Auditor) replayFull(res *Result, node sig.NodeID, entries []tevlog.Entry) *Result {
	r, _ := runEpochJob(a.session(node), &EpochJob{Boot: true, Entries: entries}, nil, nil)
	res.Replay = r.stats
	if r.fault != nil {
		res.Fault = r.fault
		return res
	}
	res.Passed = true
	return res
}

func addStats(dst *ReplayStats, s ReplayStats) {
	dst.Instructions += s.Instructions
	dst.EntriesConsumed += s.EntriesConsumed
	dst.SendsMatched += s.SendsMatched
	dst.NondetsConsumed += s.NondetsConsumed
	dst.EventsInjected += s.EventsInjected
	dst.SnapshotsVerified += s.SnapshotsVerified
}

// runPool runs fn(0..n-1) on up to workers goroutines, handing out
// indices in order, and returns when every call has. A caller that may
// drop work past the earliest fault asks its epochMerge (skip) when an
// index comes up.
func runPool(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
