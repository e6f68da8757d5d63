package audit

import (
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Auditor checks machines against a reference image, per §4.5: verify the
// log against authenticators, syntactically check it, then replay it. An
// auditor needs the reference image (§4.1 assumption 4), the public keys of
// the machine and its correspondents, and the reference configuration (RNG
// seed) — nothing else, and in particular no trust in the audited machine
// or its monitor (§3.4).
type Auditor struct {
	// Keys holds the public keys of the audited machine and of every user
	// who communicated with it.
	Keys *sig.KeyStore
	// RefImage is the trusted reference copy of the VM image.
	RefImage *vm.Image
	// RNGSeed is the reference device-RNG seed the machine was expected to
	// boot with.
	RNGSeed uint64
	// TamperEvident selects whether the log is expected to carry the
	// commitment protocol (authenticators, acks).
	TamperEvident bool
	// VerifySignatures enables cryptographic verification (off for
	// avmm-nosig).
	VerifySignatures bool
	// StrictAcks faults unacknowledged sends (quiesced offline audits only).
	StrictAcks bool
	// DisablePredecode forces every replica this auditor boots onto the
	// careful Step path instead of the predecoded sprint loop. Verdicts are
	// identical either way, which the tests hold by setting it
	// (TestGameReplayInterpreterAblations, selfmod_test.go,
	// spotroll_test.go); the wire session (wire.AuditSession) carries it to
	// a remote worker's replicas.
	DisablePredecode bool
	// DisableFusion keeps the predecoded sprint loop but skips the
	// superinstruction fusion pass, so every cached instruction retires with
	// its own dispatch. Verdicts are identical either way; it is set and
	// carried as DisablePredecode is.
	DisableFusion bool
}

// verifyAndCheck is the part of an audit every materialized-log engine
// runs before it replays anything (§4.5): verify the entries' hash chain
// from prev against the authenticators, then check the log syntactically —
// what tevlog.VerifySegment and then SyntacticCheck do, on one signature
// stage. It fills res.Syntactic, and on a fault res.Fault, returning false;
// the stats say how the stage ran.
func (a *Auditor) verifyAndCheck(res *Result, nodeIdx uint32, prev tevlog.Hash, entries []tevlog.Entry, auths []tevlog.Authenticator, strictAcks bool) (tevlog.SigStats, bool) {
	sigs := tevlog.NewSigStage(a.Keys)
	defer sigs.Close()
	if a.TamperEvident {
		if err := verifySegment(prev, entries, auths, sigs); err != nil {
			res.Fault = &FaultReport{Node: res.Node, Check: CheckLog, Detail: err.Error()}
			return sigs.Stats(), false
		}
	}
	res.Syntactic, res.Fault = syntacticCheck(res.Node, entries, SyntacticOptions{
		NodeIdx: nodeIdx, Keys: a.Keys,
		VerifySignatures: a.TamperEvident && a.VerifySignatures,
		StrictAcks:       strictAcks,
	}, sigs)
	return sigs.Stats(), res.Fault == nil
}

// verifySegment is tevlog.VerifySegment on a stage the caller made and
// closes.
func verifySegment(prev tevlog.Hash, entries []tevlog.Entry, auths []tevlog.Authenticator, sigs *tevlog.SigStage) error {
	v := tevlog.NewChainVerifier(prev, auths, sigs)
	for i := range entries {
		if err := v.Add(&entries[i]); err != nil {
			return err
		}
	}
	return v.Finish()
}

// auditSerial checks an entire execution from boot: log verification
// against authenticators, syntactic check, and full replay from the
// reference image. It backs Audit's EngineSerial.
func (a *Auditor) auditSerial(node sig.NodeID, nodeIdx uint32, entries []tevlog.Entry, auths []tevlog.Authenticator) (*Result, tevlog.SigStats) {
	res := &Result{Node: node}
	sigs, ok := a.verifyAndCheck(res, nodeIdx, tevlog.Hash{}, entries, auths, a.StrictAcks)
	if !ok {
		return res, sigs
	}
	// The semantic check: one replay of the whole log from the reference
	// image, i.e. a single boot epoch.
	r, _ := runEpochJob(a.session(node), &EpochJob{Boot: true, Entries: entries}, nil, nil)
	res.Replay, res.Fault = r.stats, r.fault
	res.Passed = r.fault == nil
	return res, sigs
}

// ChunkRequest describes a spot-check of k consecutive segments starting at
// a snapshot (§3.5, §6.12).
type ChunkRequest struct {
	Node    sig.NodeID
	NodeIdx uint32
	// Start is the downloaded machine state at the chunk's first snapshot.
	Start *snapshot.Restored
	// StartRoot is the root committed in the log for that snapshot; the
	// auditor extracts it from the snapshot entry.
	StartRoot [32]byte
	// PrevHash is the chain hash of the snapshot entry itself, so the
	// segment after it can be verified.
	PrevHash tevlog.Hash
	// Entries is the log segment immediately following the snapshot entry,
	// through the end of the chunk.
	Entries []tevlog.Entry
	// Auths are authenticators covering the segment.
	Auths []tevlog.Authenticator
}

// auditChunk spot-checks one chunk: authenticate the snapshot, verify the
// segment's hash chain, syntactic pass, and replay starting from the
// snapshot. Snapshot entries inside the chunk verify intermediate and final
// state roots, so an incorrect state transition anywhere in the chunk is
// detected. It backs Audit's EngineChunk.
func (a *Auditor) auditChunk(req ChunkRequest) (*Result, tevlog.SigStats) {
	// Authenticate the snapshot; the verification tree is kept live so
	// snapshot entries inside the chunk verify incrementally.
	rp, err := bootReplay(req.Node, ReplicaStart{State: req.Start}, req.StartRoot, a.RNGSeed)
	res, sigs, _ := a.auditChunkOn(rp, err, req)
	return res, sigs
}

// auditChunkOn is the chunk audit once the replica is at the chunk's first
// snapshot: rp was booted there (bootReplay) or rolled there from a snapshot
// it rested at (Replay.Advance), either way checked against req.StartRoot,
// and startErr is that check's failure, the chunk's CheckSnapshot fault. The
// replica is re-armed (Restart) once the log has been checked, so the checks,
// their order, the Result and every fault's text do not depend on how it
// was come by. A replica that passed rests at the chunk's closing snapshot
// and is returned for the caller's next chunk; after a fault there is none.
func (a *Auditor) auditChunkOn(rp *Replay, startErr error, req ChunkRequest) (*Result, tevlog.SigStats, *Replay) {
	res := &Result{Node: req.Node}
	if startErr != nil {
		res.Fault = &FaultReport{Node: req.Node, Check: CheckSnapshot, Detail: startErr.Error()}
		return res, tevlog.SigStats{}, nil
	}
	sigs, ok := a.verifyAndCheck(res, req.NodeIdx, req.PrevHash, req.Entries, req.Auths, false)
	if !ok {
		return res, sigs, nil
	}
	if err := rp.Restart(); err != nil {
		res.Fault = &FaultReport{Node: req.Node, Check: CheckSemantic, Detail: err.Error()}
		return res, sigs, nil
	}
	a.session(req.Node).arm(rp)
	rp.Feed(req.Entries)
	rp.Close()
	rp.Run()
	res.Replay = rp.Stats
	if f := rp.Fault(); f != nil {
		res.Fault = f
		return res, sigs, nil
	}
	res.Passed = true
	return res, sigs, rp
}

// SnapshotPoints scans a log for snapshot entries, returning for each its
// position, committed root, and entry hash (the PrevHash for the segment
// that follows). Used to slice logs into spot-checkable segments.
type SnapshotPoint struct {
	EntryIndex int // index into the entries slice
	Seq        uint64
	SnapIdx    uint32
	Root       [32]byte
	EntryHash  tevlog.Hash
	// ICount is the landmark instruction count committed with the snapshot
	// — the replay effort from boot to this point. Consecutive differences
	// size epoch jobs for cost-weighted dispatch.
	ICount uint64
}

// FindSnapshots locates all snapshot entries in a segment. The entries must
// carry valid chain hashes (e.g. obtained from the machine and re-chained).
func FindSnapshots(entries []tevlog.Entry) ([]SnapshotPoint, error) {
	var out []SnapshotPoint
	for i := range entries {
		e := &entries[i]
		if e.Type != tevlog.TypeSnapshot {
			continue
		}
		ev, err := wire.ParseEvent(e.Content)
		if err != nil {
			return nil, err
		}
		out = append(out, SnapshotPoint{
			EntryIndex: i, Seq: e.Seq, SnapIdx: ev.SnapIdx, Root: ev.Root, EntryHash: e.Hash,
			ICount: ev.Landmark.ICount,
		})
	}
	return out, nil
}

// OnlineAudit incrementally audits a machine while it executes (§6.11): the
// auditor periodically pulls newly appended log entries and extends the
// replay. Lag is the distance between recording and replay, in entries.
type OnlineAudit struct {
	rp    *Replay
	node  sig.NodeID
	fedTo uint64 // highest log seq fed so far
}

// NewOnlineAudit starts an online audit from boot.
func NewOnlineAudit(node sig.NodeID, img *vm.Image, rngSeed uint64) (*OnlineAudit, error) {
	rp, err := NewReplayFromImage(node, img, rngSeed)
	if err != nil {
		return nil, err
	}
	return &OnlineAudit{rp: rp, node: node}, nil
}

// FedTo returns the highest log sequence number fed so far.
func (o *OnlineAudit) FedTo() uint64 { return o.fedTo }

// Feed appends fresh entries (with seq > FedTo) and advances the replay.
func (o *OnlineAudit) Feed(entries []tevlog.Entry) {
	if len(entries) == 0 {
		return
	}
	o.fedTo = entries[len(entries)-1].Seq
	o.rp.Feed(entries)
	o.rp.Run()
}

// Fault returns the divergence found so far, if any.
func (o *OnlineAudit) Fault() *FaultReport { return o.rp.Fault() }

// Stats returns replay effort so far.
func (o *OnlineAudit) Stats() ReplayStats { return o.rp.Stats }

// LagEntries returns how many fed entries remain unconsumed.
func (o *OnlineAudit) LagEntries() int { return o.rp.Pending() }
