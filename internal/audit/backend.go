package audit

import (
	"errors"
	"fmt"

	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
	"repro/internal/wire"
)

// This file is the seam between the epoch pipeline and the places an
// epoch replays. The router (routeStream) cuts the log into EpochJobs; the
// earliest-fault cutoff and the deterministic merge are epochMerge's. An
// epoch replays in-process on the pipeline's own workers, or on an
// EpochBackend, which is always remote: the one dispatch core of sched.go
// behind a transport — Coordinator.Backend() (TCP, long-running, elastic
// fleet), TCPBackend (the same coordinator for one run over a fixed fleet)
// and NetsimBackend (the same core on a simulated network's virtual
// clock). Every epoch, wherever it replays, opens through openEpoch, so
// verdicts are byte-identical to a serial replay of the same epochs and
// the audit's conclusion never depends on where the replay ran.

// EpochJob is one self-contained epoch replay job: the slice of the log
// between two snapshot entries, plus the authenticated identity of its
// starting state. A backend receives jobs whole, their start states
// materialized and verified by the coordinator.
type EpochJob struct {
	Index int
	// Boot marks the first epoch, replayed from the reference image.
	Boot bool
	// StartSnap/StartRoot/StartSeq identify and authenticate the starting
	// state of a non-boot epoch, exactly as in the epoch-parallel engine.
	StartSnap uint32
	StartRoot [32]byte
	StartSeq  uint64
	// Start is the materialized starting state of a non-boot job handed to
	// a backend (the coordinator verifies it against StartRoot before
	// dispatch, the worker re-verifies while seeding its live tree). An
	// in-process epoch leaves it nil and materializes on its worker.
	Start *snapshot.Restored
	// Entries is the epoch's entry run. Epochs that end at a snapshot
	// include that snapshot entry, so the boundary root is verified by the
	// epoch that derives it.
	Entries []tevlog.Entry
	// Cost estimates the epoch's replay effort in instructions, derived
	// from the landmark instruction counts consecutive snapshots commit.
	// Backends weight their chain-affinity block splits by it so one
	// hot epoch does not serialize a fleet; 0 means unknown (weighted
	// splits fall back to equal epoch counts).
	Cost uint64
}

// Session is the per-audit reference configuration an epoch replay needs:
// who is being audited, the trusted reference image, and the reference
// device-RNG seed. It is everything a replay worker holds — no keys, no
// recording, no guest sources.
type Session struct {
	Node             sig.NodeID
	RefImage         *vm.Image
	RNGSeed          uint64
	DisablePredecode bool
	DisableFusion    bool

	// deltaSrc is the router's delta source when the audit asked for
	// DeltaJobs: remote backends then ship jobs as proof-carrying delta
	// chains after each connection's first full-state frame. It stays on
	// the coordinator; the wire form of a session does not carry it.
	deltaSrc func(k uint32) (*snapshot.Delta, error)
}

// session assembles the auditor's replay session for a node.
func (a *Auditor) session(node sig.NodeID) Session {
	return Session{Node: node, RefImage: a.RefImage, RNGSeed: a.RNGSeed,
		DisablePredecode: a.DisablePredecode, DisableFusion: a.DisableFusion}
}

// EpochVerdict is one epoch's outcome as reported by a backend.
type EpochVerdict struct {
	Index int
	Stats ReplayStats
	Fault *FaultReport
	// Err is a transport/backend failure: the epoch could not be replayed
	// anywhere (distinct from an audit fault, which is a verdict). The
	// router fails the audit when an errored epoch is needed for the merge.
	Err error
	// Worker names the backend worker that produced the verdict
	// (diagnostics).
	Worker string
	// Attempts counts dispatch attempts for this epoch, 1 for a first-try
	// success. Retries and straggler re-dispatches raise it.
	Attempts int
	// WireBytes counts job+verdict payload bytes shipped for this epoch
	// across all attempts.
	WireBytes int
	// WireBytesFull and WireBytesDelta split the job-frame bytes by
	// encoding (full-state vs delta-shipped); verdict bytes count toward
	// WireBytes only.
	WireBytesFull  int
	WireBytesDelta int
	// DeltaShipped counts delta-encoded dispatches of this epoch;
	// DeltaFallbacks counts full-state re-ships after the worker reported
	// a missing base state.
	DeltaShipped   int
	DeltaFallbacks int
}

// EpochBackend executes epoch replay jobs on behalf of the router, on
// workers outside this process: every job carries its verified start
// state.
type EpochBackend interface {
	// Run replays the jobs, calling emit exactly once per job that is not
	// skipped (possibly from multiple goroutines). skip(i) reports that
	// epoch i can no longer affect the merged verdict (the earliest-fault
	// cutoff); backends should consult it before dispatching a job and may
	// drop jobs for which it returns true. Run returns only catastrophic
	// failures (every worker unreachable); per-epoch failures travel as
	// EpochVerdict.Err.
	Run(sess Session, jobs []*EpochJob, skip func(int) bool, emit func(EpochVerdict)) error
}

// runEpochJob replays one epoch and returns its outcome and the replica it
// ran on (nil when the epoch could not start): openEpoch, then the job's
// entries fed, closed and run.
func runEpochJob(sess Session, job *EpochJob, held *Replay, materialize func(snapIdx uint32) (*snapshot.Restored, error)) (epochResult, *Replay) {
	rp, fault := openEpoch(sess, job, held, materialize)
	if fault != nil {
		return epochResult{fault: fault}, nil
	}
	rp.Feed(job.Entries)
	rp.Close()
	rp.Run()
	return epochResult{stats: rp.Stats, fault: rp.Fault()}, rp
}

// openEpoch is how every epoch engine opens an epoch: it makes the replica
// the job's entries replay on, armed with the session's ablations, or
// returns the fault that is the epoch's verdict. Boot jobs replay from the
// session's reference image. Every other job's start state is taken from
// the job, or fetched from materialize for an in-process epoch
// (materializeStart, one call per epoch, its failure the epoch's fault),
// and verified against the committed root before the first instruction
// executes (startEpoch; the state is untrusted, §4.5). held is a replica
// the caller kept from an earlier epoch, or nil. When it rests at the job's
// opening snapshot (restingAt) and the state there is its own memory, the
// epoch rolls onto it: its tree and the state's blobs are checked against
// the root and the state's registers and devices restored, with no new
// machine, no copy, no full rehash and the predecode cache kept warm
// (startReplica); any other held replica is passed over and the epoch
// boots, so a held replica never changes a verdict. A held replica with no
// state to fetch was moved to the opening snapshot by its holder — a
// worker rolled it through a delta chain (rollDelta) — and is the start.
// The verification tree becomes the replay's live tree, so snapshot
// entries inside the epoch verify incrementally.
func openEpoch(sess Session, job *EpochJob, held *Replay, materialize func(snapIdx uint32) (*snapshot.Restored, error)) (*Replay, *FaultReport) {
	var rp *Replay
	if job.Boot {
		var err error
		if rp, err = NewReplayFromImage(sess.Node, sess.RefImage, sess.RNGSeed); err != nil {
			return nil, &FaultReport{Node: sess.Node, Check: CheckSemantic, Detail: err.Error()}
		}
	} else {
		restored := job.Start
		if restored == nil && (held == nil || materialize != nil) {
			var fault *FaultReport
			if restored, fault = materializeStart(sess.Node, job, materialize); fault != nil {
				return nil, fault
			}
		}
		if at, ok := held.restingAt(); restored != nil && (!ok || at != job.StartSnap) {
			held = nil
		}
		var fault *FaultReport
		if rp, fault = startEpoch(sess.Node, held, restored, job.StartRoot, job.StartSeq, sess.RNGSeed); fault != nil {
			return nil, fault
		}
	}
	sess.arm(rp)
	return rp, nil
}

// materializeStart fetches a non-boot job's untrusted start state from
// materialize. A missing source or a failed fetch is the epoch's
// CheckSnapshot fault at the snapshot entry's seq, the same on every
// engine.
func materializeStart(node sig.NodeID, job *EpochJob, materialize func(snapIdx uint32) (*snapshot.Restored, error)) (*snapshot.Restored, *FaultReport) {
	var restored *snapshot.Restored
	err := errors.New("no snapshot source")
	if materialize != nil {
		restored, err = materialize(job.StartSnap)
	}
	if err != nil {
		return nil, &FaultReport{
			Node: node, Check: CheckSnapshot, EntrySeq: job.StartSeq,
			Detail: fmt.Sprintf("materializing snapshot %d: %v", job.StartSnap, err),
		}
	}
	return restored, nil
}

// arm sets the session's interpreter ablations on a replica before it
// replays.
func (s Session) arm(rp *Replay) {
	rp.Machine().DisablePredecode = s.DisablePredecode
	rp.Machine().DisableFusion = s.DisableFusion
}

// startEpoch makes the replica an epoch starts from (startReplica): held,
// if not nil, already at the epoch's opening snapshot and rolled onto
// restored when that is its memory, or a new one booted from restored, the
// state there; either way checked against root, the root the log committed
// there, with its registers and devices restored (Restart). It returns the
// fault every epoch engine reports otherwise: a state that does not hash to
// root is CheckSnapshot at the snapshot entry seq, one the replica cannot
// take CheckSemantic.
func startEpoch(node sig.NodeID, held *Replay, restored *snapshot.Restored, root [32]byte, seq uint64, rngSeed uint64) (*Replay, *FaultReport) {
	rp, err := startReplica(node, held, nil, ReplicaStart{State: restored}, root, rngSeed)
	if err != nil {
		return nil, &FaultReport{Node: node, Check: CheckSnapshot, EntrySeq: seq, Detail: err.Error()}
	}
	if err := rp.Restart(); err != nil {
		return nil, &FaultReport{Node: node, Check: CheckSemantic, Detail: err.Error()}
	}
	return rp, nil
}

// --- wire conversions shared by the backends ---

// jobToWire converts an epoch job to its wire form. Jobs must carry a
// materialized start state (or be boot jobs).
func jobToWire(job *EpochJob) *wire.AuditJob {
	w := &wire.AuditJob{
		Index: uint64(job.Index), Boot: job.Boot,
		StartSnap: job.StartSnap, StartSeq: job.StartSeq, StartRoot: job.StartRoot,
		Entries: job.Entries,
	}
	if job.Start != nil {
		w.Mem = job.Start.Mem
		w.Machine = job.Start.Machine
		w.Device = job.Start.Device
		w.AuthDevice = job.Start.AuthDevice
	}
	return w
}

// jobFromWire reassembles a worker-side epoch job.
func jobFromWire(w *wire.AuditJob) *EpochJob {
	job := &EpochJob{
		Index: int(w.Index), Boot: w.Boot,
		StartSnap: w.StartSnap, StartSeq: w.StartSeq, StartRoot: w.StartRoot,
		Entries: w.Entries,
	}
	if !w.Boot {
		job.Start = &snapshot.Restored{
			Index: int(w.StartSnap), Mem: w.Mem, Machine: w.Machine,
			Device: w.Device, AuthDevice: w.AuthDevice, Root: w.StartRoot,
		}
	}
	return job
}

// sessionToWire converts a replay session to its wire form.
func sessionToWire(sess Session) *wire.AuditSession {
	return wire.SessionFromImage(string(sess.Node), sess.RefImage, sess.RNGSeed, sess.DisablePredecode, sess.DisableFusion)
}

// sessionFromWire reassembles a worker-side session.
func sessionFromWire(w *wire.AuditSession) (Session, error) {
	img, err := w.Image()
	if err != nil {
		return Session{}, err
	}
	return Session{Node: sig.NodeID(w.Node), RefImage: img, RNGSeed: w.RNGSeed,
		DisablePredecode: w.DisablePredecode, DisableFusion: w.DisableFusion}, nil
}

// verdictToWire converts an epoch outcome to its wire form.
func verdictToWire(index int, r epochResult) *wire.AuditVerdict {
	v := &wire.AuditVerdict{
		Index:             uint64(index),
		Instructions:      r.stats.Instructions,
		EntriesConsumed:   uint64(r.stats.EntriesConsumed),
		SendsMatched:      uint64(r.stats.SendsMatched),
		NondetsConsumed:   uint64(r.stats.NondetsConsumed),
		EventsInjected:    uint64(r.stats.EventsInjected),
		SnapshotsVerified: uint64(r.stats.SnapshotsVerified),
	}
	if r.fault != nil {
		v.HasFault = true
		v.FaultNode = string(r.fault.Node)
		v.FaultCheck = string(r.fault.Check)
		v.FaultDetail = r.fault.Detail
		v.FaultEntrySeq = r.fault.EntrySeq
		v.FaultLandmark = r.fault.Landmark
	}
	return v
}

// verdictFromWire reassembles an epoch outcome from its wire form.
func verdictFromWire(v *wire.AuditVerdict) epochResult {
	r := epochResult{stats: ReplayStats{
		Instructions:      v.Instructions,
		EntriesConsumed:   int(v.EntriesConsumed),
		SendsMatched:      int(v.SendsMatched),
		NondetsConsumed:   int(v.NondetsConsumed),
		EventsInjected:    int(v.EventsInjected),
		SnapshotsVerified: int(v.SnapshotsVerified),
	}}
	if v.HasFault {
		r.fault = &FaultReport{
			Node: sig.NodeID(v.FaultNode), Check: Check(v.FaultCheck),
			Detail: v.FaultDetail, EntrySeq: v.FaultEntrySeq, Landmark: v.FaultLandmark,
		}
	}
	return r
}
