package audit

import (
	"errors"
	"fmt"

	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
)

// Evidence is the transferable proof of a fault (§4.5): the log segment,
// the authenticators that commit the machine to it, and — for spot checks —
// the starting snapshot. A third party repeats the auditor's checks; all
// steps are deterministic, so it reaches the same verdict without trusting
// either the auditor or the auditee (§3.3 step 5).
type Evidence struct {
	// Accused is the machine the evidence incriminates.
	Accused sig.NodeID
	// AccusedIdx is its network index.
	AccusedIdx uint32
	// Reason summarizes the auditor's finding (informational; verifiers
	// recompute the verdict).
	Reason string
	// Entries is the log segment (from boot, or from Start).
	Entries []tevlog.Entry
	// Auths commit the machine to the segment.
	Auths []tevlog.Authenticator
	// Start, StartRoot and PrevHash describe the starting snapshot for
	// chunk evidence; Start == nil means the segment starts at boot.
	Start     *snapshot.Restored
	StartRoot [32]byte
	PrevHash  tevlog.Hash
	// Partial, when set instead of Start, carries only the pages needed to
	// reproduce the verdict, each with a Merkle proof against StartRoot —
	// the minimized, privacy-preserving form of chunk evidence (§7.3).
	Partial *snapshot.PartialState
	// RNGSeed is the reference device seed.
	RNGSeed uint64
}

// NonResponseEvidence covers the case where a machine refuses to return a
// log segment (§4.5): the most recent authenticator proves entries up to
// its sequence number must exist. A third party can verify the signature
// and repeat the challenge; continued silence keeps the machine suspected.
type NonResponseEvidence struct {
	Accused sig.NodeID
	Auth    tevlog.Authenticator
}

// VerifyNonResponse checks that the authenticator is validly signed, which
// is all that can be established without the machine's cooperation.
func VerifyNonResponse(ev *NonResponseEvidence, keys *sig.KeyStore) error {
	if ev.Auth.Node != ev.Accused {
		return fmt.Errorf("audit: authenticator names %q, evidence accuses %q", ev.Auth.Node, ev.Accused)
	}
	if !ev.Auth.Verify(keys) {
		return errors.New("audit: authenticator signature invalid; evidence is worthless")
	}
	return nil
}

// VerifierConfig is what a third party needs to check evidence: its own
// trusted reference image and key store (never the auditor's).
type VerifierConfig struct {
	Keys             *sig.KeyStore
	RefImage         *vm.Image
	TamperEvident    bool
	VerifySignatures bool
}

// VerifyEvidence re-runs the full audit pipeline over an evidence bundle.
// It returns nil if the evidence indeed demonstrates a fault, and an error
// if the evidence is invalid (the execution it contains is consistent with
// the reference image — i.e. the accusation does not hold).
func VerifyEvidence(ev *Evidence, cfg VerifierConfig) (*Result, error) {
	a := &Auditor{
		Keys: cfg.Keys, RefImage: cfg.RefImage, RNGSeed: ev.RNGSeed,
		TamperEvident: cfg.TamperEvident, VerifySignatures: cfg.VerifySignatures,
	}
	var res *Result
	switch {
	case ev.Partial != nil:
		var err error
		res, err = a.auditPartialChunk(ev)
		if err != nil {
			return nil, err
		}
	case ev.Start != nil:
		res, _ = a.auditChunk(ChunkRequest{
			Node: ev.Accused, NodeIdx: ev.AccusedIdx,
			Start: ev.Start, StartRoot: ev.StartRoot, PrevHash: ev.PrevHash,
			Entries: ev.Entries, Auths: ev.Auths,
		})
	default:
		res, _ = a.auditSerial(ev.Accused, ev.AccusedIdx, ev.Entries, ev.Auths)
	}
	if res.Passed {
		return res, errors.New("audit: evidence does not demonstrate a fault; execution is consistent with the reference image")
	}
	return res, nil
}
