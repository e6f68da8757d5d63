package experiments

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/dbapp"
	"repro/internal/game"
	"repro/internal/logcomp"
	"repro/internal/metrics"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
	"repro/internal/wire"
)

// This file is the audit-throughput experiment behind BENCH_audit.json: a
// worker-count ablation of the epoch-parallel audit engine plus the
// primitive rates (Merkle state hashing, signature verification) that
// bound it. Future PRs regress against the emitted numbers.

// AuditWorkerRow is one worker count of the replay ablation.
type AuditWorkerRow struct {
	Workers      int     `json:"workers"`
	WallNs       int64   `json:"wall_ns"`
	Speedup      float64 `json:"speedup_vs_serial"`
	MInstrPerSec float64 `json:"minstr_per_sec"`
	VerdictMatch bool    `json:"verdict_match"`
}

// AuditBenchResult aggregates audit-engine throughput: serial vs parallel
// full-log replay, parallel spot checking, Merkle root hashing, and
// authenticator signature verification.
type AuditBenchResult struct {
	CPUs int `json:"cpus"`

	// Full-audit replay over a recorded match with periodic snapshots.
	LogEntries          int              `json:"log_entries"`
	LogBytes            int              `json:"log_bytes"`
	ReplayedInstr       uint64           `json:"replayed_instructions"`
	SerialWallNs        int64            `json:"serial_wall_ns"`
	SerialEntriesPerSec float64          `json:"serial_entries_per_sec"`
	SerialMInstrPerSec  float64          `json:"serial_minstr_per_sec"`
	Workers             []AuditWorkerRow `json:"workers_ablation"`
	// ParallelMInstrPerSec is the best replay throughput over the worker
	// ablation — the headline rate a multi-core auditor sustains.
	ParallelMInstrPerSec float64 `json:"parallel_minstr_per_sec"`

	// Predecode ablation: the same serial audit with the interpreter forced
	// onto the careful Step path (no predecoded sprint). The speedup is the
	// factor the predecode cache buys on real replay, and the verdict must
	// not depend on which path executed.
	NoPredecodeWallNs     int64   `json:"serial_nopredecode_wall_ns"`
	PredecodeSpeedup      float64 `json:"predecode_speedup_vs_step"`
	PredecodeVerdictMatch bool    `json:"predecode_verdict_match"`

	// Fusion ablation: the same serial audit with the superinstruction
	// fusion pass disabled — the sprint loop still runs over predecoded
	// pages, but every cached instruction retires with its own dispatch.
	// The verdict must not depend on whether pairs were fused.
	//
	// The CI-gated speedup is measured on the stage fusion actually
	// touches — the semantic replay — as the ratio of min-of-five replay
	// walls with fusion off vs on: the end-to-end audit wall also spends
	// time in chain verification and signature checks, which both dilute
	// the ratio and dominate its run-to-run noise on a quick-scale log.
	// FusedPairs counts fused pairs retired by the fusion-on replay (a
	// quad counts as two) and FusedQuads the quad superinstructions; each
	// fused pair saves one dispatch and each quad one more, so dispatches
	// per retired instruction is (ICount - FusedPairs - FusedQuads) /
	// ICount.
	NoFusionWallNs     int64   `json:"serial_nofusion_wall_ns"`
	FusionSpeedup      float64 `json:"fusion_speedup_vs_predecode"`
	FusionVerdictMatch bool    `json:"fusion_verdict_match"`
	FusedPairs         uint64  `json:"fused_pairs_retired"`
	FusedQuads         uint64  `json:"fused_quads_retired"`
	DispatchesPerInstr float64 `json:"dispatches_per_instruction"`

	// Streaming pipeline (decode ∥ chain-verify ∥ replay) against the
	// materializing pipeline (decompress, rechain, then parallel audit)
	// over the same compressed container, at StreamWorkers workers.
	CompressedBytes     int     `json:"compressed_bytes"`
	MaterializedWallNs  int64   `json:"materialized_wall_ns"`
	StreamWallNs        int64   `json:"stream_wall_ns"`
	StreamSpeedup       float64 `json:"stream_speedup_vs_materialized"`
	StreamWorkers       int     `json:"stream_workers"`
	StreamWindow        int     `json:"stream_window"`
	StreamPeakResident  int     `json:"stream_peak_resident_entries"`
	StreamEpochs        int     `json:"stream_epochs"`
	StreamVerdictMatch  bool    `json:"stream_verdict_match"`
	StreamEntriesPerSec float64 `json:"stream_entries_per_sec"`

	// Archive-backed audit: the same streaming audit reading epoch
	// segments and snapshot increments from a disk archive
	// (internal/archive) instead of an in-memory container. Cold is the
	// first pass after open — every segment read, hashed and decoded off
	// disk; warm is a second pass over the same open archive, with
	// increments memoized. The verdict must be byte-identical to the
	// in-memory stream audit.
	ArchiveBytes             int64   `json:"archive_bytes"`
	ArchiveColdWallNs        int64   `json:"archive_cold_wall_ns"`
	ArchiveWarmWallNs        int64   `json:"archive_warm_wall_ns"`
	ArchiveColdEntriesPerSec float64 `json:"archive_cold_entries_per_sec"`
	ArchiveWarmEntriesPerSec float64 `json:"archive_warm_entries_per_sec"`
	ArchiveVerdictMatch      bool    `json:"archive_verdict_match"`

	// Distributed dispatch: the same full audit with epochs shipped to
	// loopback TCP workers, against the in-process pool at the same
	// fan-out. The overhead ratio is what the wire codec, coordinator-side
	// root verification and verdict merge cost on top of local replay; the
	// merge and prep walls break the coordinator's share out.
	DistWorkers       int     `json:"dist_workers"`
	DistEpochs        int     `json:"dist_epochs"`
	DistWallNs        int64   `json:"dist_wall_ns"`
	DistLocalWallNs   int64   `json:"dist_local_same_workers_wall_ns"`
	DistOverheadRatio float64 `json:"dist_overhead_ratio"`
	DistPrepWallNs    int64   `json:"dist_prep_wall_ns"`
	DistMergeWallNs   int64   `json:"dist_merge_wall_ns"`
	DistJobBytes      int     `json:"dist_job_bytes"`
	DistRedispatches  int     `json:"dist_redispatches"`
	DistVerdictMatch  bool    `json:"dist_verdict_match"`

	// Long-running coordinator service: the same loopback fleet behind the
	// elastic epoch queue, several audits in flight concurrently through one
	// multiplexed, session-cached connection per worker. Epochs/sec is the
	// sustained rate of the shared queue; utilization is the fraction of
	// fleet-time connections had at least one job in flight.
	CoordWorkers          int     `json:"coord_workers"`
	CoordRuns             int     `json:"coord_concurrent_audits"`
	CoordWallNs           int64   `json:"coord_wall_ns"`
	CoordEpochsDone       int64   `json:"coord_epochs_done"`
	CoordEpochsPerSec     float64 `json:"coord_epochs_per_sec"`
	CoordFleetUtilization float64 `json:"coord_fleet_utilization"`
	CoordRetries          int64   `json:"coord_retries"`
	CoordVerdictMatch     bool    `json:"coord_verdict_match"`

	// Journaled crash-resume: a journaled coordinator whose only worker
	// (behind a verdict-filter proxy) never answers for epoch 0 is killed
	// once CoordResumeKillAfter later verdicts are durable; a fresh
	// coordinator over the same journal and an honest fleet then finishes
	// the audit. The gated rows are the epochs the successor emitted from
	// the journal without re-dispatching, the verdict match against the
	// serial engine, and the wall-clock ratio an uninterrupted journaled
	// run pays over an identical un-journaled one (the fsync-batched WAL
	// overhead).
	CoordResumeKillAfter      int     `json:"coord_resume_kill_after_verdicts"`
	CoordResumeRunsResumed    int64   `json:"coord_resume_runs_resumed"`
	CoordResumeEpochsSkipped  int64   `json:"coord_resume_epochs_skipped"`
	CoordResumeVerdictMatch   bool    `json:"coord_resume_verdict_match"`
	CoordJournalBytes         int64   `json:"coord_journal_bytes"`
	CoordJournaledWallNs      int64   `json:"coord_journaled_wall_ns"`
	CoordUnjournaledWallNs    int64   `json:"coord_unjournaled_wall_ns"`
	CoordJournalOverheadRatio float64 `json:"coord_journal_overhead_ratio"`

	// Delta-shipped dispatch: a denser-snapshot recording of the same match
	// audited twice over the same loopback fleet — full-state jobs vs
	// proof-carrying dirty-page increments — so the byte reduction is
	// measured on identical work. The fold-verify wall is what a stateless
	// worker pays to reconstruct and check the entire snapshot chain from
	// deltas alone, before any replay runs.
	DeltaDistEpochs       int     `json:"delta_dist_epochs"`
	DeltaJobBytesFull     int     `json:"dist_job_bytes_full_state"`
	DeltaJobBytes         int     `json:"dist_job_bytes_delta"`
	DeltaBytesReduction   float64 `json:"delta_bytes_reduction_vs_full"`
	DeltaJobsShipped      int     `json:"delta_jobs_shipped"`
	DeltaFallbacks        int     `json:"delta_fallbacks"`
	DeltaDistWallNs       int64   `json:"delta_dist_wall_ns"`
	DeltaFoldedSnapshots  int     `json:"delta_folded_snapshots"`
	DeltaFoldVerifyWallNs int64   `json:"delta_fold_verify_wall_ns"`
	DeltaVerdictMatch     bool    `json:"delta_verdict_match"`

	// Spot-checking every segment of the minisql log, serial vs parallel.
	SpotSegments       int   `json:"spot_segments"`
	SpotSerialWallNs   int64 `json:"spot_serial_wall_ns"`
	SpotParallelWallNs int64 `json:"spot_parallel_wall_ns"`
	SpotWorkers        int   `json:"spot_workers"`

	// Merkle snapshot-root hashing throughput.
	MerkleBytes        int     `json:"merkle_bytes"`
	MerkleSerialGBps   float64 `json:"merkle_serial_gb_per_sec"`
	MerkleParallelGBps float64 `json:"merkle_parallel_gb_per_sec"`
	MerkleWorkers      int     `json:"merkle_workers"`

	// Incremental (live-tree) snapshot verification vs a full rehash of the
	// same state: what one snapshot entry costs the replay. The incremental
	// fold touches only the dirty pages and the union of their root paths,
	// so its cost scales with IncVerifyDirtyPages, not IncVerifyStatePages.
	IncVerifyStatePages      int     `json:"inc_verify_state_pages"`
	IncVerifyDirtyPages      int     `json:"inc_verify_dirty_pages"`
	MerkleFullVerifyNs       int64   `json:"merkle_full_verify_ns_per_snapshot"`
	MerkleIncVerifyNs        int64   `json:"merkle_inc_verify_ns_per_snapshot"`
	MerkleIncSpeedup         float64 `json:"merkle_inc_speedup_vs_full"`
	MerkleFullVerifiesPerSec float64 `json:"merkle_full_verifies_per_sec"`
	MerkleIncVerifiesPerSec  float64 `json:"merkle_inc_verifies_per_sec"`

	// RSA authenticator verification rate (DefaultKeyBits keys).
	VerifyOpsPerSec float64 `json:"rsa_verify_ops_per_sec"`
	VerifyKeyBits   int     `json:"rsa_key_bits"`
}

// auditWorkerCounts is the ablation grid.
var auditWorkerCounts = []int{1, 2, 4, 8}

// AuditBenchOptions selects audit-experiment ablations.
type AuditBenchOptions struct {
	// DisableFusion runs every audit in the experiment with
	// superinstruction fusion off (avm-bench's -nofusion flag), for A/B
	// comparison of whole bench runs. The fusion ablation row then
	// compares two fusion-off replays and reports ~1.0x.
	DisableFusion bool
}

// RunAuditBench measures the audit engine end to end at every worker count
// and the primitive rates underneath it.
func RunAuditBench(scale Scale) (*AuditBenchResult, error) {
	return RunAuditBenchWith(scale, AuditBenchOptions{})
}

// RunAuditBenchWith is RunAuditBench with explicit ablation options.
func RunAuditBenchWith(scale Scale, opts AuditBenchOptions) (*AuditBenchResult, error) {
	res := &AuditBenchResult{CPUs: runtime.NumCPU()}

	// --- full-audit replay ablation on a recorded match ---
	s, err := game.NewScenario(game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 1234, SnapshotEveryNs: scale.GameNs / 8, FakeSignatures: true,
		AuditDisableFusion: opts.DisableFusion,
	})
	if err != nil {
		return nil, err
	}
	s.Run(scale.GameNs)
	target := s.Player(1)
	res.LogEntries = target.Log.Len()
	res.LogBytes = target.TotalLogBytes()

	var serial *audit.Result
	serialWall := stopwatch(func() {
		serial, err = s.AuditNode(target.Node())
	})
	if err != nil {
		return nil, err
	}
	if !serial.Passed {
		return nil, fmt.Errorf("auditbench: serial audit failed: %v", serial.Fault)
	}
	res.SerialWallNs = serialWall.Nanoseconds()
	res.ReplayedInstr = serial.Replay.Instructions
	if sec := serialWall.Seconds(); sec > 0 {
		res.SerialEntriesPerSec = float64(res.LogEntries) / sec
		res.SerialMInstrPerSec = float64(res.ReplayedInstr) / sec / 1e6
	}

	for _, w := range auditWorkerCounts {
		var par *audit.Result
		wall := stopwatch(func() {
			par, err = s.AuditNodeParallel(target.Node(), w)
		})
		if err != nil {
			return nil, err
		}
		row := AuditWorkerRow{
			Workers:      w,
			WallNs:       wall.Nanoseconds(),
			VerdictMatch: par.Passed == serial.Passed && par.Replay == serial.Replay,
		}
		if wall > 0 {
			row.Speedup = float64(serialWall) / float64(wall)
			row.MInstrPerSec = float64(res.ReplayedInstr) / wall.Seconds() / 1e6
		}
		if row.MInstrPerSec > res.ParallelMInstrPerSec {
			res.ParallelMInstrPerSec = row.MInstrPerSec
		}
		res.Workers = append(res.Workers, row)
	}

	// --- predecode ablation: the same serial audit on the Step path ---
	target1, auths1, ablAuditor, err := s.AuditInputs(target.Node())
	if err != nil {
		return nil, err
	}
	ablAuditor.DisablePredecode = true
	var noPre *audit.Result
	noPreWall := stopwatch(func() {
		noPre, _, err = ablAuditor.Audit(audit.AuditRequest{
			Node: target.Node(), NodeIdx: uint32(target1.Index()), Entries: target1.Log.Entries(), Auths: auths1})
	})
	if err != nil {
		return nil, err
	}
	res.NoPredecodeWallNs = noPreWall.Nanoseconds()
	res.PredecodeVerdictMatch = noPre.Passed == serial.Passed && noPre.Replay == serial.Replay
	if serialWall > 0 {
		res.PredecodeSpeedup = float64(noPreWall) / float64(serialWall)
	}

	// --- fusion ablation: predecoded sprint without superinstructions ---
	targetF, authsF, fusAuditor, err := s.AuditInputs(target.Node())
	if err != nil {
		return nil, err
	}
	fusAuditor.DisableFusion = true
	var noFus *audit.Result
	noFusWall := stopwatch(func() {
		noFus, _, err = fusAuditor.Audit(audit.AuditRequest{
			Node: target.Node(), NodeIdx: uint32(targetF.Index()), Entries: targetF.Log.Entries(), Auths: authsF})
	})
	if err != nil {
		return nil, err
	}
	res.NoFusionWallNs = noFusWall.Nanoseconds()
	res.FusionVerdictMatch = noFus.Passed == serial.Passed && noFus.Replay == serial.Replay
	// The gated speedup compares bare semantic replays of the same log —
	// the only stage fusion touches — taking the min of five walls on
	// each side to damp scheduler noise. The last fusion-on replay also
	// supplies the dispatch counters (the verdict paths above never expose
	// the machine).
	replayWall := func(disable bool) (time.Duration, *vm.Machine, error) {
		best := time.Duration(1<<63 - 1)
		var mach *vm.Machine
		for i := 0; i < 5; i++ {
			rp, err := audit.NewReplayFromImage(target.Node(), fusAuditor.RefImage, fusAuditor.RNGSeed)
			if err != nil {
				return 0, nil, err
			}
			rp.Machine().DisableFusion = disable
			wall := stopwatch(func() {
				rp.Feed(targetF.Log.Entries())
				rp.Close()
				rp.Run()
			})
			if f := rp.Fault(); f != nil {
				return 0, nil, fmt.Errorf("auditbench: fusion replay faulted: %v", f)
			}
			if wall < best {
				best = wall
			}
			mach = rp.Machine()
		}
		return best, mach, nil
	}
	fusReplayWall, fusMach, err := replayWall(opts.DisableFusion)
	if err != nil {
		return nil, err
	}
	noFusReplayWall, _, err := replayWall(true)
	if err != nil {
		return nil, err
	}
	if fusReplayWall > 0 {
		res.FusionSpeedup = float64(noFusReplayWall) / float64(fusReplayWall)
	}
	res.FusedPairs = fusMach.FusedPairs
	res.FusedQuads = fusMach.FusedQuads
	if ic := fusMach.ICount; ic > 0 {
		res.DispatchesPerInstr = float64(ic-res.FusedPairs-res.FusedQuads) / float64(ic)
	}

	// --- streaming vs materializing pipeline over the compressed log ---
	target2, auths, auditor, err := s.AuditInputs(target.Node())
	if err != nil {
		return nil, err
	}
	compressed := logcomp.CompressEntries(target2.Log.Entries())
	res.CompressedBytes = len(compressed)
	res.StreamWorkers = runtime.NumCPU()
	res.StreamWindow = audit.DefaultStreamWindow
	materialize := func(snapIdx uint32) (*snapshot.Restored, error) {
		return target2.Snaps.Materialize(int(snapIdx))
	}
	var matRes *audit.Result
	matWall := stopwatch(func() {
		decoded, derr := logcomp.DecompressEntries(compressed)
		if derr != nil {
			err = derr
			return
		}
		if rerr := tevlog.Rechain(tevlog.Hash{}, decoded); rerr != nil {
			err = rerr
			return
		}
		matRes, _, err = auditor.Audit(audit.AuditRequest{
			Node: target.Node(), NodeIdx: uint32(target2.Index()), Engine: audit.EngineParallel,
			Entries: decoded, Auths: auths,
			Options: audit.EngineOptions{Workers: res.StreamWorkers, Materialize: materialize}})
	})
	if err != nil {
		return nil, err
	}
	res.MaterializedWallNs = matWall.Nanoseconds()
	var streamRes *audit.Result
	var streamStats audit.StreamStats
	streamWall := stopwatch(func() {
		var astats audit.AuditStats
		streamRes, astats, err = auditor.Audit(audit.AuditRequest{
			Node: target.Node(), NodeIdx: uint32(target2.Index()), Engine: audit.EngineStream,
			Compressed: compressed, Auths: auths,
			Options: audit.EngineOptions{Workers: res.StreamWorkers, Window: res.StreamWindow, Materialize: materialize}})
		streamStats = astats.Stream
	})
	if err != nil {
		return nil, err
	}
	res.StreamWallNs = streamWall.Nanoseconds()
	if streamWall > 0 {
		res.StreamSpeedup = float64(matWall) / float64(streamWall)
		res.StreamEntriesPerSec = float64(streamStats.Entries) / streamWall.Seconds()
	}
	res.StreamPeakResident = streamStats.PeakResidentEntries
	res.StreamEpochs = streamStats.Epochs
	res.StreamVerdictMatch = streamRes.Passed == matRes.Passed && streamRes.Replay == matRes.Replay &&
		streamRes.Syntactic == matRes.Syntactic
	if !streamRes.Passed {
		return nil, fmt.Errorf("auditbench: streaming audit failed: %v", streamRes.Fault)
	}

	// --- archive-backed audit: the stream pipeline reading off disk ---
	archDir, err := os.MkdirTemp("", "avm-bench-archive-")
	if err != nil {
		return nil, fmt.Errorf("auditbench: archive dir: %w", err)
	}
	defer os.RemoveAll(archDir)
	arcW, err := archive.Open(archDir)
	if err != nil {
		return nil, err
	}
	archNode := string(target.Node())
	sfArch := target2.Snaps.File()
	if err := arcW.WriteRecording(archNode, target2.Log.All(), &sfArch); err != nil {
		return nil, err
	}
	if err := arcW.Close(); err != nil {
		return nil, err
	}
	arc, err := archive.Open(archDir)
	if err != nil {
		return nil, err
	}
	defer arc.Close()
	res.ArchiveBytes = arc.Bytes()
	incSrc, err := arc.IncrementSource(archNode)
	if err != nil {
		return nil, err
	}
	archMaterialize := func(snapIdx uint32) (*snapshot.Restored, error) {
		return snapshot.MaterializeFrom(incSrc, int(snapIdx))
	}
	archAudit := func() (*audit.Result, audit.StreamStats, error) {
		src, serr := arc.EntrySource(archNode)
		if serr != nil {
			return nil, audit.StreamStats{}, serr
		}
		r, stats, aerr := auditor.Audit(audit.AuditRequest{
			Node: target.Node(), NodeIdx: uint32(target2.Index()),
			Engine: audit.EngineStream, Source: src, Auths: auths,
			Options: audit.EngineOptions{
				Workers: res.StreamWorkers, Window: res.StreamWindow,
				Materialize: archMaterialize,
			},
		})
		return r, stats.Stream, aerr
	}
	var archRes *audit.Result
	coldWall := stopwatch(func() {
		archRes, _, err = archAudit()
	})
	if err != nil {
		return nil, fmt.Errorf("auditbench: archive cold audit: %w", err)
	}
	coldMatch := archRes.Passed == streamRes.Passed && archRes.Replay == streamRes.Replay &&
		archRes.Syntactic == streamRes.Syntactic
	warmWall := stopwatch(func() {
		archRes, _, err = archAudit()
	})
	if err != nil {
		return nil, fmt.Errorf("auditbench: archive warm audit: %w", err)
	}
	res.ArchiveColdWallNs = coldWall.Nanoseconds()
	res.ArchiveWarmWallNs = warmWall.Nanoseconds()
	if coldWall > 0 {
		res.ArchiveColdEntriesPerSec = float64(res.LogEntries) / coldWall.Seconds()
	}
	if warmWall > 0 {
		res.ArchiveWarmEntriesPerSec = float64(res.LogEntries) / warmWall.Seconds()
	}
	res.ArchiveVerdictMatch = coldMatch &&
		archRes.Passed == streamRes.Passed && archRes.Replay == streamRes.Replay &&
		archRes.Syntactic == streamRes.Syntactic
	if !archRes.Passed {
		return nil, fmt.Errorf("auditbench: archive-backed audit failed: %v", archRes.Fault)
	}

	// --- distributed dispatch over loopback TCP workers ---
	res.DistWorkers = 3
	var listeners []net.Listener
	var addrs []string
	for i := 0; i < res.DistWorkers; i++ {
		l, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return nil, fmt.Errorf("auditbench: worker listener: %w", lerr)
		}
		listeners = append(listeners, l)
		addrs = append(addrs, l.Addr().String())
		go func() { _ = (&audit.EpochWorker{}).Serve(l) }() // returns when the deferred Close below ends Accept
	}
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	target3, auths3, distAuditor, err := s.AuditInputs(target.Node())
	if err != nil {
		return nil, err
	}
	entries3 := target3.Log.Entries()
	var localRes *audit.Result
	localWall := stopwatch(func() {
		localRes, _, err = distAuditor.Audit(audit.AuditRequest{
			Node: target.Node(), NodeIdx: uint32(target3.Index()), Engine: audit.EngineParallel,
			Entries: entries3, Auths: auths3,
			Options: audit.EngineOptions{Workers: res.DistWorkers, Materialize: materialize}})
	})
	if err != nil {
		return nil, err
	}
	res.DistLocalWallNs = localWall.Nanoseconds()
	// distAudit runs one audit of node's log through the one-shot TCP
	// backend over the loopback fleet, one job in flight per connection —
	// what these rows have always measured: on loopback there is no
	// round-trip to hide, and an unpipelined connection ships the cheapest
	// delta chains (the verdict advances the base before the next ship).
	distAudit := func(a *audit.Auditor, node sig.NodeID, idx int, entries []tevlog.Entry, auths []tevlog.Authenticator, opts audit.EngineOptions) (*audit.Result, audit.DistStats, error) {
		r, astats, aerr := a.Audit(audit.AuditRequest{
			Node: node, NodeIdx: uint32(idx), Engine: audit.EngineDist, Entries: entries, Auths: auths,
			Options: opts, Backend: &audit.TCPBackend{Addrs: addrs, Config: audit.CoordinatorConfig{Pipeline: 1}},
		})
		return r, astats.Dist, aerr
	}
	var distRes *audit.Result
	var dstats audit.DistStats
	distWall := stopwatch(func() {
		distRes, dstats, err = distAudit(distAuditor, target.Node(), target3.Index(), entries3, auths3,
			audit.EngineOptions{Materialize: materialize, Workers: res.DistWorkers})
	})
	if err != nil {
		return nil, fmt.Errorf("auditbench: distributed audit: %w", err)
	}
	res.DistWallNs = distWall.Nanoseconds()
	res.DistEpochs = dstats.Epochs
	res.DistPrepWallNs = dstats.PrepWallNs
	res.DistMergeWallNs = dstats.MergeWallNs
	res.DistJobBytes = dstats.WireBytes
	res.DistRedispatches = dstats.Redispatches
	res.DistVerdictMatch = distRes.Passed == localRes.Passed && distRes.Replay == localRes.Replay &&
		distRes.Syntactic == localRes.Syntactic &&
		distRes.Passed == serial.Passed && distRes.Replay == serial.Replay
	if localWall > 0 {
		res.DistOverheadRatio = float64(distWall) / float64(localWall)
	}
	if !distRes.Passed {
		return nil, fmt.Errorf("auditbench: distributed audit failed: %v", distRes.Fault)
	}

	// --- coordinator service over the same loopback fleet ---
	// Several audits of the same log run concurrently through one shared
	// epoch queue; local fallback is disabled so every epoch crosses the
	// wire and the utilization figure names what the fleet actually did.
	res.CoordWorkers = res.DistWorkers
	res.CoordRuns = 3
	coord := audit.NewCoordinator(audit.CoordinatorConfig{
		Pipeline: 2, JobTimeout: 2 * time.Minute, DisableLocalFallback: true,
	})
	for _, a := range addrs {
		coord.AddWorker(a)
	}
	// Wait for the fleet to attach so the measurement starts with live
	// connections rather than timing the initial dials.
	for deadline := time.Now().Add(10 * time.Second); coord.Stats().WorkersLive < res.CoordWorkers &&
		time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	coordResults := make([]*audit.Result, res.CoordRuns)
	coordErrs := make([]error, res.CoordRuns)
	coordWall := stopwatch(func() {
		var wg sync.WaitGroup
		for i := 0; i < res.CoordRuns; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				coordResults[i], _, coordErrs[i] = coord.Audit(distAuditor, target.Node(), uint32(target3.Index()),
					entries3, auths3, audit.DistOptions{EngineOptions: audit.EngineOptions{Materialize: materialize}})
			}(i)
		}
		wg.Wait()
	})
	fleet := coord.Stats()
	coord.Close()
	for _, cerr := range coordErrs {
		if cerr != nil {
			return nil, fmt.Errorf("auditbench: coordinator audit: %w", cerr)
		}
	}
	res.CoordWallNs = coordWall.Nanoseconds()
	res.CoordEpochsDone = fleet.EpochsDone
	res.CoordRetries = fleet.Retries
	if sec := coordWall.Seconds(); sec > 0 {
		res.CoordEpochsPerSec = float64(fleet.EpochsDone) / sec
		res.CoordFleetUtilization = float64(fleet.BusyNs) / (float64(coordWall.Nanoseconds()) * float64(res.CoordWorkers))
	}
	res.CoordVerdictMatch = true
	for _, cr := range coordResults {
		if cr == nil || cr.Passed != serial.Passed || cr.Replay != serial.Replay {
			res.CoordVerdictMatch = false
		}
	}
	if !res.CoordVerdictMatch {
		return nil, fmt.Errorf("auditbench: coordinator verdicts diverged from serial")
	}

	// --- journaled coordinator: crash-resume and WAL overhead ---
	jroot, err := os.MkdirTemp("", "auditbench-journal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(jroot)
	coordRun := func(j *audit.Journal, workerAddrs []string) (time.Duration, *audit.Result, audit.FleetStats, error) {
		c := audit.NewCoordinator(audit.CoordinatorConfig{
			Pipeline: 2, JobTimeout: 2 * time.Minute, DisableLocalFallback: true,
			HedgeAfter: -1, Journal: j,
		})
		defer c.Close()
		for _, a := range workerAddrs {
			c.AddWorker(a)
		}
		var r *audit.Result
		var rerr error
		wall := stopwatch(func() {
			r, _, rerr = c.Audit(distAuditor, target.Node(), uint32(target3.Index()), entries3, auths3,
				audit.DistOptions{EngineOptions: audit.EngineOptions{Materialize: materialize}})
		})
		return wall, r, c.Stats(), rerr
	}

	// Overhead: one uninterrupted run each way over the same fleet; the
	// journaled run's WAL lands on a fresh directory and tombstones on
	// completion, so both runs do identical replay work.
	plainWall, plainRes, _, err := coordRun(nil, addrs)
	if err != nil {
		return nil, fmt.Errorf("auditbench: un-journaled coordinator run: %w", err)
	}
	overheadJournal, err := audit.OpenJournal(filepath.Join(jroot, "overhead"))
	if err != nil {
		return nil, err
	}
	journaledWall, journaledRes, _, err := coordRun(overheadJournal, addrs)
	overheadJournal.Close()
	if err != nil {
		return nil, fmt.Errorf("auditbench: journaled coordinator run: %w", err)
	}
	res.CoordUnjournaledWallNs = plainWall.Nanoseconds()
	res.CoordJournaledWallNs = journaledWall.Nanoseconds()
	if plainWall > 0 {
		res.CoordJournalOverheadRatio = float64(journaledWall) / float64(plainWall)
	}
	if plainRes.Replay != serial.Replay || journaledRes.Replay != serial.Replay {
		return nil, fmt.Errorf("auditbench: journal-overhead runs diverged from serial")
	}

	// Crash-resume: phase 1 strands the run behind an epoch-0-silent
	// verdict filter, killed once the journal holds KillAfter durable
	// verdicts; phase 2 resumes it over the honest fleet.
	res.CoordResumeKillAfter = 2
	crashDir := filepath.Join(jroot, "crash")
	crashJournal, err := audit.OpenJournal(crashDir)
	if err != nil {
		return nil, err
	}
	proxyL, proxyAddr, err := audit.StartVerdictFilterProxy(addrs[0], func(v *wire.AuditVerdict) bool {
		return v.Index != 0
	})
	if err != nil {
		return nil, err
	}
	victim := audit.NewCoordinator(audit.CoordinatorConfig{
		Pipeline: 2, JobTimeout: 2 * time.Minute, DisableLocalFallback: true,
		HedgeAfter: -1, Journal: crashJournal,
	})
	victim.AddWorker(proxyAddr)
	victimDone := make(chan error, 1)
	go func() {
		_, _, verr := victim.Audit(distAuditor, target.Node(), uint32(target3.Index()), entries3, auths3,
			audit.DistOptions{EngineOptions: audit.EngineOptions{Materialize: materialize}})
		victimDone <- verr
	}()
	killDeadline := time.Now().Add(60 * time.Second)
	for {
		_, verdicts, ierr := audit.InspectJournal(crashDir)
		if ierr == nil && verdicts >= res.CoordResumeKillAfter {
			break
		}
		if time.Now().After(killDeadline) {
			return nil, fmt.Errorf("auditbench: journal never reached %d durable verdicts", res.CoordResumeKillAfter)
		}
		time.Sleep(time.Millisecond)
	}
	victim.Kill()
	<-victimDone // stranded audit fails with ErrCoordinatorKilled, by design
	crashJournal.Close()
	proxyL.Close()

	resumeJournal, err := audit.OpenJournal(crashDir)
	if err != nil {
		return nil, err
	}
	_, resumeRes, resumeStats, err := coordRun(resumeJournal, addrs)
	resumeJournal.Close()
	if err != nil {
		return nil, fmt.Errorf("auditbench: resumed coordinator run: %w", err)
	}
	res.CoordResumeRunsResumed = resumeStats.RunsResumed
	res.CoordResumeEpochsSkipped = resumeStats.EpochsSkippedDurable
	res.CoordJournalBytes = resumeStats.JournalBytes
	res.CoordResumeVerdictMatch = resumeRes.Passed == serial.Passed && resumeRes.Replay == serial.Replay
	if !res.CoordResumeVerdictMatch {
		return nil, fmt.Errorf("auditbench: resumed verdict diverged from serial")
	}

	// --- delta-shipped dispatch over the same loopback fleet ---
	// A denser-snapshot recording of the same match (one epoch per
	// GameNs/48 instead of /8) so each worker connection sees a chain of
	// consecutive epochs; after the first full state per connection every
	// job ships only dirty pages plus a Merkle fold proof. The identical
	// audit with full-state jobs is the bytes baseline.
	ds, err := game.NewScenario(game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 1234, SnapshotEveryNs: scale.GameNs / 48, FakeSignatures: true,
		AuditDisableFusion: opts.DisableFusion,
	})
	if err != nil {
		return nil, err
	}
	ds.Run(scale.GameNs)
	dNode := ds.Player(1).Node()
	dSerial, err := ds.AuditNode(dNode)
	if err != nil {
		return nil, err
	}
	if !dSerial.Passed {
		return nil, fmt.Errorf("auditbench: delta-scenario serial audit failed: %v", dSerial.Fault)
	}
	dTarget, dAuths, deltaAuditor, err := ds.AuditInputs(dNode)
	if err != nil {
		return nil, err
	}
	dEntries := dTarget.Log.Entries()
	dOpts := audit.EngineOptions{
		Workers:     res.DistWorkers,
		Materialize: func(k uint32) (*snapshot.Restored, error) { return dTarget.Snaps.Materialize(int(k)) },
		DeltaSource: func(k uint32) (*snapshot.Delta, error) { return dTarget.Snaps.Delta(int(k)) },
	}
	var fullRes *audit.Result
	var fullStats audit.DistStats
	if fullRes, fullStats, err = distAudit(deltaAuditor, dNode, dTarget.Index(), dEntries, dAuths, dOpts); err != nil {
		return nil, fmt.Errorf("auditbench: full-state dist audit: %w", err)
	}
	if !fullRes.Passed {
		return nil, fmt.Errorf("auditbench: full-state dist audit failed: %v", fullRes.Fault)
	}
	dOpts.DeltaJobs = true
	var deltaRes *audit.Result
	var deltaStats audit.DistStats
	deltaWall := stopwatch(func() {
		deltaRes, deltaStats, err = distAudit(deltaAuditor, dNode, dTarget.Index(), dEntries, dAuths, dOpts)
	})
	if err != nil {
		return nil, fmt.Errorf("auditbench: delta dist audit: %w", err)
	}
	if !deltaRes.Passed {
		return nil, fmt.Errorf("auditbench: delta dist audit failed: %v", deltaRes.Fault)
	}
	res.DeltaDistEpochs = deltaStats.Epochs
	res.DeltaJobBytesFull = fullStats.WireBytesFull
	res.DeltaJobBytes = deltaStats.WireBytesFull + deltaStats.WireBytesDelta
	if res.DeltaJobBytes > 0 {
		res.DeltaBytesReduction = float64(res.DeltaJobBytesFull) / float64(res.DeltaJobBytes)
	}
	res.DeltaJobsShipped = deltaStats.DeltaJobsShipped
	res.DeltaFallbacks = deltaStats.DeltaFallbacks
	res.DeltaDistWallNs = deltaWall.Nanoseconds()
	res.DeltaVerdictMatch = deltaRes.Passed == dSerial.Passed && deltaRes.Replay == dSerial.Replay &&
		deltaRes.Syntactic == dSerial.Syntactic

	// Fold-verify wall: reconstruct and check the entire snapshot chain
	// from deltas alone, the way a stateless worker bootstraps a start
	// state it was never shipped.
	foldState, err := dTarget.Snaps.Materialize(0)
	if err != nil {
		return nil, err
	}
	res.DeltaFoldedSnapshots = dTarget.Snaps.Count() - 1
	foldWall := stopwatch(func() {
		for k := 1; k < dTarget.Snaps.Count(); k++ {
			d, derr := dTarget.Snaps.Delta(k)
			if derr != nil {
				err = derr
				return
			}
			if foldState, err = snapshot.ApplyDelta(foldState, d); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("auditbench: delta fold chain: %w", err)
	}
	res.DeltaFoldVerifyWallNs = foldWall.Nanoseconds()

	// --- spot-checking every segment, serial vs parallel ---
	db, err := dbapp.NewScenario(dbapp.ScenarioConfig{
		Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(), Seed: 17,
		SnapshotEveryNs: scale.DBSnapshotNs, FakeSignatures: true,
	})
	if err != nil {
		return nil, err
	}
	db.Run(scale.DBNs)
	dbAuths, err := db.ServerAuths()
	if err != nil {
		return nil, err
	}
	src := &audit.MonitorSource{
		Node: "db-server", NodeIdx: 0,
		Entries: db.Server.Log.Entries(), Auths: dbAuths,
		Materialize: func(k int) (*snapshot.Restored, error) { return db.Server.Snaps.Materialize(k) },
	}
	da := db.Auditor()
	pts, err := src.Segments()
	if err != nil {
		return nil, err
	}
	res.SpotSegments = len(pts) - 1
	// Record the fan-out actually used (SpotCheckParallel caps at the
	// number of selected chunks), so the JSON names true conditions.
	res.SpotWorkers = runtime.NumCPU()
	if res.SpotWorkers > res.SpotSegments {
		res.SpotWorkers = res.SpotSegments
	}
	all := audit.RecentFirst{K: res.SpotSegments}
	var spot *audit.SpotCheckOutcome
	wall := stopwatch(func() {
		spot, err = da.SpotCheckParallel(src, all, 1)
	})
	if err != nil {
		return nil, err
	}
	if spot.FaultFound {
		return nil, fmt.Errorf("auditbench: honest spot check faulted: %v", spot.FirstFault)
	}
	res.SpotSerialWallNs = wall.Nanoseconds()
	wall = stopwatch(func() {
		spot, err = da.SpotCheckParallel(src, all, res.SpotWorkers)
	})
	if err != nil {
		return nil, err
	}
	if spot.FaultFound {
		return nil, fmt.Errorf("auditbench: honest parallel spot check faulted: %v", spot.FirstFault)
	}
	res.SpotParallelWallNs = wall.Nanoseconds()

	// --- Merkle snapshot-root throughput ---
	res.MerkleBytes = 4 << 20
	mem := make([]byte, res.MerkleBytes)
	for i := range mem {
		mem[i] = byte(uint32(i) * 2654435761)
	}
	res.MerkleWorkers = runtime.NumCPU()
	res.MerkleSerialGBps = merkleGBps(mem, 1)
	res.MerkleParallelGBps = merkleGBps(mem, res.MerkleWorkers)

	// --- incremental vs full per-snapshot verification ---
	// A replay verifying a snapshot entry either rehashes the whole state
	// (the pre-live-tree behavior) or folds only the pages dirtied since the
	// previous entry. Both are measured serially: the fold is what each
	// epoch's replica pays inline, and a fixed dirty count keeps the row
	// comparable across runs.
	res.IncVerifyStatePages = res.MerkleBytes / vm.PageSize
	res.IncVerifyDirtyPages = 16
	dirty := make([]int, res.IncVerifyDirtyPages)
	for i := range dirty {
		dirty[i] = i * res.IncVerifyStatePages / res.IncVerifyDirtyPages
	}
	fullSH := snapshot.StateHasher{Workers: 1}
	res.MerkleFullVerifyNs = bestNsPerOp(3, 1, func() {
		fullSH.RootOfState(mem, nil, nil)
	})
	incSH := snapshot.LiveStateHasher{Workers: 1}
	incSH.Seed(mem, nil, nil)
	res.MerkleIncVerifyNs = bestNsPerOp(3, 200, func() {
		if _, ferr := incSH.Fold(mem, dirty, nil, nil); ferr != nil {
			panic(ferr)
		}
	})
	if res.MerkleIncVerifyNs > 0 {
		res.MerkleIncSpeedup = float64(res.MerkleFullVerifyNs) / float64(res.MerkleIncVerifyNs)
		res.MerkleIncVerifiesPerSec = 1e9 / float64(res.MerkleIncVerifyNs)
	}
	if res.MerkleFullVerifyNs > 0 {
		res.MerkleFullVerifiesPerSec = 1e9 / float64(res.MerkleFullVerifyNs)
	}

	// --- RSA verification rate ---
	res.VerifyKeyBits = sig.DefaultKeyBits
	signer, err := sig.GenerateRSA("auditbench", sig.DefaultKeyBits, "auditbench")
	if err != nil {
		return nil, err
	}
	msg := make([]byte, 64)
	signature := signer.Sign(msg)
	verifier := signer.Public()
	const verifyReps = 400
	vwall := stopwatch(func() {
		for i := 0; i < verifyReps; i++ {
			if !verifier.Verify(msg, signature) {
				panic("auditbench: verification failed")
			}
		}
	})
	if sec := vwall.Seconds(); sec > 0 {
		res.VerifyOpsPerSec = verifyReps / sec
	}
	return res, nil
}

// merkleGBps times StateHasher.RootOfState over mem at the given fan-out,
// taking the best of a few repetitions.
func merkleGBps(mem []byte, workers int) float64 {
	sh := snapshot.StateHasher{Workers: workers}
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		d := stopwatch(func() {
			sh.RootOfState(mem, nil, nil)
		})
		if d < best {
			best = d
		}
	}
	if best <= 0 {
		return 0
	}
	return float64(len(mem)) / best.Seconds() / 1e9
}

// bestNsPerOp times loops of fn (opsPerRep calls per repetition, best of
// reps) and returns the per-call nanoseconds. Cheap operations get batched
// into one stopwatch window so timer granularity does not swamp them.
func bestNsPerOp(reps, opsPerRep int, fn func()) int64 {
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < reps; rep++ {
		d := stopwatch(func() {
			for i := 0; i < opsPerRep; i++ {
				fn()
			}
		})
		if d < best {
			best = d
		}
	}
	if best <= 0 {
		return 0
	}
	return best.Nanoseconds() / int64(opsPerRep)
}

// Table renders the audit-throughput experiment.
func (r *AuditBenchResult) Table() *metrics.Table {
	t := metrics.NewTable("Audit engine throughput (serial vs parallel)",
		"metric", "value", "notes")
	t.Row("cpus", r.CPUs, "")
	t.Row("serial replay", time.Duration(r.SerialWallNs).String(),
		fmt.Sprintf("%d entries, %.1f entries/s, %.1f Minstr/s", r.LogEntries, r.SerialEntriesPerSec, r.SerialMInstrPerSec))
	for _, row := range r.Workers {
		t.Row(fmt.Sprintf("parallel replay (%d workers)", row.Workers),
			time.Duration(row.WallNs).String(),
			fmt.Sprintf("%.2fx, %.1f Minstr/s, verdict match %v", row.Speedup, row.MInstrPerSec, row.VerdictMatch))
	}
	t.Row("serial replay, no predecode", time.Duration(r.NoPredecodeWallNs).String(),
		fmt.Sprintf("predecode speedup %.2fx, verdict match %v", r.PredecodeSpeedup, r.PredecodeVerdictMatch))
	t.Row("serial replay, no fusion", time.Duration(r.NoFusionWallNs).String(),
		fmt.Sprintf("replay fusion speedup %.2fx, %d fused pairs, %d quads, %.3f dispatches/instr, verdict match %v",
			r.FusionSpeedup, r.FusedPairs, r.FusedQuads, r.DispatchesPerInstr, r.FusionVerdictMatch))
	t.Row("materialized pipeline", time.Duration(r.MaterializedWallNs).String(),
		fmt.Sprintf("decompress+rechain+audit, %d workers", r.StreamWorkers))
	t.Row("streaming pipeline", time.Duration(r.StreamWallNs).String(),
		fmt.Sprintf("%.2fx, window %d, peak %d resident, %d epochs, verdict match %v",
			r.StreamSpeedup, r.StreamWindow, r.StreamPeakResident, r.StreamEpochs, r.StreamVerdictMatch))
	t.Row("distributed pipeline", time.Duration(r.DistWallNs).String(),
		fmt.Sprintf("%d TCP workers, %d epochs, %.2fx local wall, %d KiB shipped, %d re-dispatched, merge %v, verdict match %v",
			r.DistWorkers, r.DistEpochs, r.DistOverheadRatio, r.DistJobBytes>>10, r.DistRedispatches,
			time.Duration(r.DistMergeWallNs), r.DistVerdictMatch))
	t.Row("coordinator service", time.Duration(r.CoordWallNs).String(),
		fmt.Sprintf("%d workers, %d concurrent audits, %d epochs, %.1f epochs/s, utilization %.2f, %d retries, verdict match %v",
			r.CoordWorkers, r.CoordRuns, r.CoordEpochsDone, r.CoordEpochsPerSec,
			r.CoordFleetUtilization, r.CoordRetries, r.CoordVerdictMatch))
	t.Row("journaled coordinator", time.Duration(r.CoordJournaledWallNs).String(),
		fmt.Sprintf("%.2fx un-journaled wall, %d WAL bytes", r.CoordJournalOverheadRatio, r.CoordJournalBytes))
	t.Row("coordinator crash-resume", fmt.Sprintf("killed after %d verdicts", r.CoordResumeKillAfter),
		fmt.Sprintf("%d runs resumed, %d epochs emitted from journal, verdict match %v",
			r.CoordResumeRunsResumed, r.CoordResumeEpochsSkipped, r.CoordResumeVerdictMatch))
	t.Row("delta-shipped dispatch", time.Duration(r.DeltaDistWallNs).String(),
		fmt.Sprintf("%d epochs, %d KiB shipped vs %d KiB full-state (%.1fx smaller), %d delta jobs, %d fallbacks, verdict match %v",
			r.DeltaDistEpochs, r.DeltaJobBytes>>10, r.DeltaJobBytesFull>>10, r.DeltaBytesReduction,
			r.DeltaJobsShipped, r.DeltaFallbacks, r.DeltaVerdictMatch))
	t.Row("delta fold-verify chain", time.Duration(r.DeltaFoldVerifyWallNs).String(),
		fmt.Sprintf("reconstruct %d snapshots from proofs alone", r.DeltaFoldedSnapshots))
	t.Row("spot check serial", time.Duration(r.SpotSerialWallNs).String(),
		fmt.Sprintf("%d segments", r.SpotSegments))
	t.Row("spot check parallel", time.Duration(r.SpotParallelWallNs).String(),
		fmt.Sprintf("%d workers", r.SpotWorkers))
	t.Row("merkle root serial", fmt.Sprintf("%.2f GB/s", r.MerkleSerialGBps),
		fmt.Sprintf("%d MiB state", r.MerkleBytes>>20))
	t.Row("merkle root parallel", fmt.Sprintf("%.2f GB/s", r.MerkleParallelGBps),
		fmt.Sprintf("%d workers", r.MerkleWorkers))
	t.Row("snapshot verify full", time.Duration(r.MerkleFullVerifyNs).String(),
		fmt.Sprintf("rehash all %d pages", r.IncVerifyStatePages))
	t.Row("snapshot verify incremental", time.Duration(r.MerkleIncVerifyNs).String(),
		fmt.Sprintf("%.0fx, fold %d dirty pages, %.0f verifies/s",
			r.MerkleIncSpeedup, r.IncVerifyDirtyPages, r.MerkleIncVerifiesPerSec))
	t.Row("rsa verify", fmt.Sprintf("%.0f ops/s", r.VerifyOpsPerSec),
		fmt.Sprintf("%d-bit keys", r.VerifyKeyBits))
	return t
}
