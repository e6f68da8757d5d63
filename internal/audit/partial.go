package audit

import (
	"fmt"

	"repro/internal/snapshot"
)

// This file implements partial-state auditing (§4.4) and evidence
// minimization (§7.3): instead of shipping a full snapshot with an evidence
// bundle, the auditor replays the segment once with page-access tracking,
// keeps only the pages the replay actually touched, and attaches Merkle
// inclusion proofs for each. A third party can reproduce the fault from
// just those pages — and learns nothing about the rest of the machine's
// state.

// EnableAccessTracking makes the replica record which memory pages the
// replay touches.
func (r *Replay) EnableAccessTracking() { r.mach.TrackAccess(true) }

// AccessedPages returns the pages the replay has touched so far.
func (r *Replay) AccessedPages() []int { return r.mach.AccessedPages() }

// MinimizeEvidence converts chunk evidence carrying a full starting
// snapshot into evidence carrying only the pages needed to reproduce the
// verdict, each authenticated by an inclusion proof against the committed
// snapshot root.
func (a *Auditor) MinimizeEvidence(ev *Evidence) (*Evidence, error) {
	if ev.Start == nil {
		return nil, fmt.Errorf("audit: evidence has no starting snapshot to minimize")
	}
	rp, err := NewReplayFromSnapshot(ev.Accused, ev.Start, ev.RNGSeed)
	if err != nil {
		return nil, err
	}
	rp.EnableAccessTracking()
	rp.Feed(ev.Entries)
	rp.Close()
	rp.Run()
	partial, err := snapshot.PartialFromRestored(ev.Start, rp.AccessedPages())
	if err != nil {
		return nil, err
	}
	min := *ev
	min.Start = nil
	min.Partial = partial
	return &min, nil
}

// auditPartialChunk is the verification path for minimized evidence: check
// the partial state against the committed root, verify the log segment,
// replay from the provided pages with access tracking, and — critically —
// reject the bundle as inconclusive if the replay ever touched a page the
// evidence does not include. Without that check, a malicious auditor could
// frame an honest machine by omitting pages so that the replica reads
// zeroes and diverges.
func (a *Auditor) auditPartialChunk(ev *Evidence) (*Result, error) {
	res := &Result{Node: ev.Accused}
	if err := ev.Partial.Verify(ev.StartRoot); err != nil {
		return nil, fmt.Errorf("audit: partial state does not authenticate: %w", err)
	}
	if _, ok := a.verifyAndCheck(res, ev.AccusedIdx, ev.PrevHash, ev.Entries, ev.Auths, false); !ok {
		return res, nil
	}
	rp, err := NewReplayFromSnapshot(ev.Accused, ev.Partial.Materialize(), ev.RNGSeed)
	if err != nil {
		return nil, err
	}
	rp.EnableAccessTracking()
	rp.Feed(ev.Entries)
	rp.Close()
	rp.Run()
	res.Replay = rp.Stats
	// The conclusiveness check must come before the verdict.
	for _, p := range rp.AccessedPages() {
		if _, ok := ev.Partial.Pages[p]; !ok {
			return nil, fmt.Errorf("audit: replay touched page %d, which the evidence omits; bundle is inconclusive", p)
		}
	}
	if f := rp.Fault(); f != nil {
		res.Fault = f
		return res, nil
	}
	res.Passed = true
	return res, nil
}
