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

// epochResult carries one epoch's outcome back to the merge step.
type epochResult struct {
	stats ReplayStats
	fault *FaultReport
}

// auditParallel checks an entire execution from boot like auditSerial —
// log verification, syntactic check, semantic replay — but partitions the
// replay at snapshot boundaries and runs the epochs concurrently on a
// bounded worker pool: it is the dist engine with no backend, which is the
// in-process pool. The merged Result carries the serial audit's verdict:
// the same pass/fail, and on failure the fault of the earliest faulting
// epoch (identical check and entry seq to the serial replay's). Replay
// stats are the deterministic sum over the epochs the serial audit would
// have executed. It backs Audit's EngineParallel.
func (a *Auditor) auditParallel(node sig.NodeID, nodeIdx uint32, entries []tevlog.Entry, auths []tevlog.Authenticator, opts EngineOptions) (*Result, tevlog.SigStats) {
	res, _, sigs, err := a.auditDist(node, nodeIdx, entries, auths, DistOptions{EngineOptions: opts})
	if err != nil {
		// The in-process pool never reports transport failures; this guards
		// a backend change that lets one through.
		return &Result{Node: node, Fault: &FaultReport{Node: node, Check: CheckSemantic, Detail: err.Error()}}, sigs
	}
	return res, sigs
}

// SemanticCheckParallel runs only the semantic (replay) stage of a full
// audit on the epoch-parallel engine, returning the merged replay stats
// and the earliest fault (nil if the execution replays cleanly). It is the
// stage the parallel engine runs after log verification and the syntactic
// check; experiments time it directly against the serial replay.
func (a *Auditor) SemanticCheckParallel(node sig.NodeID, entries []tevlog.Entry, opts EngineOptions) (ReplayStats, *FaultReport) {
	jobs := a.partition(entries, opts)
	be := &PoolBackend{Workers: opts.Workers, Materialize: opts.Materialize}
	stats, fault, _, err := a.runJobs(node, jobs, be, EngineOptions{Materialize: opts.Materialize})
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

// runPool runs jobs 0..n-1 on up to workers goroutines, handing out
// indices in order. A job returning true requests a cutoff at its index:
// jobs with higher indices not yet started are skipped (their work cannot
// affect the merged verdict), while every job below the final cutoff is
// guaranteed to have run to completion. Returns the lowest cutoff index,
// or n if no job requested one.
func runPool(n, workers int, fn func(i int) bool) int {
	var cutoff atomic.Int64
	cutoff.Store(int64(n))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				if i > cutoff.Load() {
					continue
				}
				if fn(int(i)) {
					for {
						cur := cutoff.Load()
						if i >= cur || cutoff.CompareAndSwap(cur, i) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	return int(cutoff.Load())
}
