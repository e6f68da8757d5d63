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
// (parallel, stream, dist) run one pipeline (auditEpochs): one router cuts
// the log into epochs (routeStream), every epoch's replica opens through
// openEpoch, and epoch outcomes merge under one earliest-fault rule
// (epochMerge).
type Engine string

const (
	// EngineSerial is the single-replica from-boot replay.
	EngineSerial Engine = "serial"
	// EngineParallel cuts the log at snapshot boundaries and replays the
	// epochs concurrently in-process while the chain and syntactic checks
	// go on. It is EngineDist with no Backend (Backend is ignored), one
	// code path under two names.
	EngineParallel Engine = "parallel"
	// EngineStream decodes, chain-verifies and replays straight from the
	// compressed log container in bounded memory (set Compressed, or
	// Source).
	EngineStream Engine = "stream"
	// EngineDist distributes epoch replay over an EpochBackend (set
	// Backend; nil replays in-process, as EngineParallel).
	EngineDist Engine = "dist"
	// EngineChunk spot-checks a single chunk starting from an
	// authenticated snapshot (set Chunk).
	EngineChunk Engine = "chunk"
)

// EngineOptions are the knobs shared by every audit engine. The zero value
// is always valid: serial fallbacks, one worker per P, default window, no
// spot rechecks, full-state job shipping.
type EngineOptions struct {
	// Workers bounds in-process replay (and remote-prep) concurrency: the
	// number of epochs replaying at once. <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// Window caps resident decoded entries when the entries come from a
	// container or a Source. <= 0 selects DefaultStreamWindow. A log passed
	// as Entries is in memory already and runs with the window at its
	// length.
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
	// Backend executes epoch jobs on the dist engine: the router's jobs
	// are collected whole and dispatched once the chain and syntactic
	// checks have passed. Nil replays the epochs in-process, as the
	// parallel engine does.
	Backend EpochBackend

	// Entries and Auths are the decoded log (serial, parallel and dist
	// engines, unless Source is set).
	Entries []tevlog.Entry
	Auths   []tevlog.Authenticator
	// Compressed is the compressed log container (stream engine).
	Compressed []byte
	// Source streams the log's entries for the epoch engines (stream,
	// parallel, dist) in place of Compressed or Entries — e.g. an
	// archive.EntrySource reading epoch segments straight from disk. When
	// both are set, Source wins. A source error mid-stream is reported as a
	// CheckLog fault, exactly like a corrupt container.
	Source logcomp.EntrySource
	// Chunk is the spot-check request (chunk engine).
	Chunk *ChunkRequest
}

// AuditStats reports how the selected engine ran. Engine is always set;
// the engine-specific struct of the engine that ran is filled, the others
// are zero: Stream for EngineStream, Dist for EngineDist and
// EngineParallel once the audit reaches replay (in-process epochs fill
// only Dist.Epochs, a remote backend all of it). Sigs is filled by every
// engine: how the audit's one signature-verification stage ran (what
// avmm.DaemonStats is to a recording).
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
	case EngineParallel, EngineStream, EngineDist:
		res, err = a.auditEpochs(req, &stats)
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
