package audit

// The audit entry point. Every engine sits behind one request type: pick an
// Engine, set the shared EngineOptions once, and get the same
// byte-identical verdict every engine guarantees.

import (
	"fmt"
	"runtime"

	"repro/internal/logcomp"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
)

// Engine selects the replay engine an Audit request runs on. Every engine
// produces byte-identical verdicts; they differ in memory footprint,
// parallelism and where the replay work happens. The epoch engines
// (parallel, stream, dist) open every epoch's replica through openEpoch
// and merge epoch outcomes under one earliest-fault rule (epochMerge).
type Engine string

const (
	// EngineSerial is the single-replica from-boot replay.
	EngineSerial Engine = "serial"
	// EngineParallel partitions the log at snapshot boundaries and replays
	// epochs concurrently in-process. It is EngineDist on the in-process
	// pool (Backend is ignored), one code path under two names.
	EngineParallel Engine = "parallel"
	// EngineStream decodes, chain-verifies and replays straight from the
	// compressed log container in bounded memory (set Compressed).
	EngineStream Engine = "stream"
	// EngineDist distributes epoch replay over an EpochBackend (set
	// Backend; nil selects the in-process pool).
	EngineDist Engine = "dist"
	// EngineChunk spot-checks a single chunk starting from an
	// authenticated snapshot (set Chunk).
	EngineChunk Engine = "chunk"
)

// EngineOptions are the knobs shared by every audit engine. The zero value
// is always valid: serial fallbacks, one worker per P, default window, no
// spot rechecks, full-state job shipping.
type EngineOptions struct {
	// Workers bounds replay (and remote-prep) concurrency. <= 0 selects
	// runtime.GOMAXPROCS(0); 1 forces the serial path on the parallel
	// engine.
	Workers int
	// Window caps resident decoded entries on the stream engine. <= 0
	// selects DefaultStreamWindow.
	Window int
	// SpotRecheckFraction is the fraction of remotely-replayed epochs the
	// coordinator re-replays locally to catch lying workers (0 disables, 1
	// rechecks everything). Selection is deterministic given
	// SpotRecheckSeed. Remote backends only.
	SpotRecheckFraction float64
	// SpotRecheckSeed drives the deterministic spot selection.
	SpotRecheckSeed uint64
	// DeltaJobs ships dispatched epoch jobs as proof-carrying dirty-page
	// deltas where possible: after the first full state per connection,
	// each job carries only the epoch increments plus Merkle fold proofs,
	// and a worker reconstructs and verifies its start state without
	// holding prior state. Requires DeltaSource; remote backends only
	// (in-process engines never ship state). Verdicts are unaffected.
	DeltaJobs bool
	// Materialize returns the audited machine's full state at a snapshot
	// index, e.g. snapshot.Store.Materialize on the machine's snapshot
	// sequence. The state is not trusted: every consumer verifies it
	// against the root committed in the log before using it. When nil, the
	// log is replayed as a single boot epoch.
	Materialize func(snapIdx uint32) (*snapshot.Restored, error)
	// DeltaSource returns the proof-carrying delta from snapshot k-1 to k,
	// e.g. snapshot.Store.Delta. Required when DeltaJobs is set.
	DeltaSource func(k uint32) (*snapshot.Delta, error)
}

// workersOrDefault resolves a worker-count knob: n if it is set, else one
// per P. GOMAXPROCS, not NumCPU, so that a process held to fewer Ps than
// the machine has cores (a CPU quota, the one-P CI leg) does not start
// goroutines that can only take turns — the same sizing tevlog's signature
// stage, merkle and the recorder's logging daemon use.
func workersOrDefault(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// AuditRequest describes one audit: what to check and how to run it.
type AuditRequest struct {
	// Node is the audited machine; NodeIdx its index in the scenario's
	// signing order.
	Node    sig.NodeID
	NodeIdx uint32

	// Engine selects the replay engine; empty selects EngineSerial (or
	// EngineChunk when Chunk is set).
	Engine Engine
	// Options are the shared engine knobs.
	Options EngineOptions
	// Backend executes epoch jobs on the dist engine. Nil selects the
	// in-process pool.
	Backend EpochBackend

	// Entries and Auths are the decoded log (every engine except stream
	// and chunk).
	Entries []tevlog.Entry
	Auths   []tevlog.Authenticator
	// Compressed is the compressed log container (stream engine).
	Compressed []byte
	// Source streams the log's entries for the stream engine in place of
	// Compressed — e.g. an archive.EntrySource reading epoch segments
	// straight from disk. When both are set, Source wins. A source error
	// mid-stream is reported as a CheckLog fault, exactly like a corrupt
	// container.
	Source logcomp.EntrySource
	// Chunk is the spot-check request (chunk engine).
	Chunk *ChunkRequest
}

// AuditStats reports how the selected engine ran. Engine is always set;
// the engine-specific struct of the engine that ran is filled, the others
// are zero: Stream for EngineStream, Dist for EngineDist and for
// EngineParallel (the dist engine on the in-process pool). Sigs is filled
// by every engine: how the audit's one signature-verification stage ran
// (what avmm.DaemonStats is to a recording).
type AuditStats struct {
	Engine Engine
	Stream StreamStats
	Dist   DistStats
	Sigs   tevlog.SigStats
}

// Audit runs one audit as described by req. The verdict in Result is
// byte-identical across engines. A non-nil error means the audit could not
// be completed (e.g. a distributed transport failure on an epoch the
// verdict needs) — distinct from a fault, which is a completed audit's
// conclusion about the machine.
func (a *Auditor) Audit(req AuditRequest) (*Result, AuditStats, error) {
	engine := req.Engine
	if engine == "" {
		if req.Chunk != nil {
			engine = EngineChunk
		} else {
			engine = EngineSerial
		}
	}
	stats := AuditStats{Engine: engine}
	var res *Result
	var err error
	switch engine {
	case EngineSerial:
		res, stats.Sigs = a.auditSerial(req.Node, req.NodeIdx, req.Entries, req.Auths)
	case EngineParallel:
		res, stats.Dist, stats.Sigs, err = a.auditDist(req.Node, req.NodeIdx, req.Entries, req.Auths, DistOptions{EngineOptions: req.Options})
	case EngineStream:
		res, stats.Stream, stats.Sigs = a.auditStreamFrom(req.Node, req.NodeIdx, req.Compressed, req.Source, req.Auths, req.Options)
	case EngineDist:
		res, stats.Dist, stats.Sigs, err = a.auditDist(req.Node, req.NodeIdx, req.Entries, req.Auths, DistOptions{EngineOptions: req.Options, Backend: req.Backend})
	case EngineChunk:
		if req.Chunk == nil {
			return nil, stats, fmt.Errorf("audit: chunk engine requires a ChunkRequest")
		}
		res, stats.Sigs = a.auditChunk(*req.Chunk)
	default:
		return nil, stats, fmt.Errorf("audit: unknown engine %q", engine)
	}
	return res, stats, err
}
