package avmm

import (
	"fmt"

	"repro/internal/wire"
)

// This file implements the multi-party liveness protocol of §4.6: with more
// than two parties, network problems (or a selectively-silent machine)
// could make a node appear unresponsive to some nodes and alive to others.
// Bob could exploit this to avoid answering Alice's request for an
// incriminating log segment while continuing to play with Charlie. The
// defense: Alice broadcasts a challenge; every node suspends communication
// with the accused machine until it answers; a correct machine answers
// immediately (its freshest authenticator, committing to its entire log)
// and the response lifts the suspension.

// Suspended reports whether this monitor currently refuses to exchange
// traffic with the given node index.
func (mon *Monitor) Suspended(idx int) bool { return mon.suspended[idx] }

// SetUnresponsive (a test hook) makes the monitor ignore challenges when v
// is true, modelling a machine that refuses to answer for its log.
func (mon *Monitor) SetUnresponsive(v bool) { mon.unresponsive = v }

// Challenge suspends communication with the accused node and transmits the
// challenge to it. Typically invoked on every monitor in the system by the
// auditor (World.BroadcastChallenge).
func (mon *Monitor) Challenge(accusedIdx int, reason string) {
	if accusedIdx == mon.cfg.Index {
		return
	}
	if mon.suspended == nil {
		mon.suspended = make(map[int]bool)
	}
	mon.suspended[accusedIdx] = true
	f := &wire.Frame{
		Kind: wire.FrameChallenge, FromNode: string(mon.cfg.Node),
		Payload: []byte(reason),
	}
	raw := f.Marshal()
	mon.cfg.Net.Send(mon.cfg.Net.Now(), mon.cfg.Index, accusedIdx, raw, len(raw)+wire.TCPIPOverhead)
}

// handleChallenge answers with the machine's freshest authenticator — the
// commitment that proves liveness and pins the log the challenger may then
// demand (§4.5: an authenticator proves entries up to its sequence number
// exist).
func (mon *Monitor) handleChallenge(fromIdx int, f *wire.Frame) {
	if mon.unresponsive {
		mon.DroppedFrames++
		return
	}
	resp := &wire.Frame{
		Kind: wire.FrameChallengeResp, FromNode: string(mon.cfg.Node),
		Payload: f.Payload,
	}
	if mon.Log.Len() == 0 {
		// Nothing to commit to yet: an unsigned response proves liveness.
		mon.send(mon.cfg.Net.Now(), fromIdx, sentFrame{raw: resp.Marshal()})
		return
	}
	if mon.cfg.Mode.Signs() {
		mon.daemonCharge(mon.cfg.Cost.SignNs)
	}
	mon.send(mon.cfg.Net.Now(), fromIdx, mon.commitFrame(resp, uint64(mon.Log.Len())))
}

// handleChallengeResp lifts the suspension if the response carries a valid
// commitment.
func (mon *Monitor) handleChallengeResp(fromIdx int, f *wire.Frame) {
	if !mon.suspended[fromIdx] {
		return
	}
	if mon.cfg.Mode.Signs() {
		mon.daemonCharge(mon.cfg.Cost.VerifyNs)
		if f.AuthSeq > 0 && !f.Authenticator().Verify(mon.cfg.Keys) {
			mon.BadFrames++
			return
		}
	}
	delete(mon.suspended, fromIdx)
}

// BroadcastChallenge makes every monitor challenge the accused node — the
// system-wide reaction to an unanswered audit request. It returns an error
// for an unknown index.
func (w *World) BroadcastChallenge(accusedIdx int, reason string) error {
	if accusedIdx < 0 || accusedIdx >= len(w.Monitors) {
		return fmt.Errorf("avmm: no node with index %d", accusedIdx)
	}
	for _, mon := range w.Monitors {
		mon.Challenge(accusedIdx, reason)
	}
	return nil
}

// SuspendedCount returns how many monitors currently refuse to talk to the
// given node.
func (w *World) SuspendedCount(accusedIdx int) int {
	n := 0
	for _, mon := range w.Monitors {
		if mon.Suspended(accusedIdx) {
			n++
		}
	}
	return n
}
