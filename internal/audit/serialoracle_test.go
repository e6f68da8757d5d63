package audit

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/sig"
	"repro/internal/tevlog"
	"repro/internal/wire"
)

// This file pins the reference the signature stage is held to: the
// syntactic checker and the segment verifier as they were before signatures
// moved off the checking thread (commit 165760a), verifying every signature
// on the spot, one after another, and stopping at the first bad one. It is a
// copy, not a caller, of the production code, so that a change to the
// production checker cannot move the oracle with it. Only the names differ.

type serialChecker struct {
	node sig.NodeID
	opts SyntacticOptions

	stats    SyntacticStats
	count    int
	started  bool
	firstSeq uint64

	// recvPayload holds every RECV entry's parsed content until the
	// matching injection event consumes it; what is left at Finish are the
	// uninjected messages.
	recvPayload map[uint64]*wire.RecvContent
	injected    map[uint64]bool
	sendAcked   map[uint64]bool
	sendSeqs    []uint64

	lastEventICount uint64
	// lastInjectedRecv is the highest sequence number among this segment's
	// RECV entries that were injected (zero: none yet; sequence numbers
	// start at 1).
	lastInjectedRecv uint64

	fault   *FaultReport
	pending []pendingFault
}

func newSerialChecker(node sig.NodeID, opts SyntacticOptions) *serialChecker {
	return &serialChecker{
		node: node, opts: opts,
		recvPayload: make(map[uint64]*wire.RecvContent),
		injected:    make(map[uint64]bool),
		sendAcked:   make(map[uint64]bool),
	}
}

// fail records the first immediate fault; subsequent entries only count
// toward the segment length (the batch pass would never have seen them).
func (c *serialChecker) fail(seq uint64, detail string) {
	c.fault = &FaultReport{Node: c.node, Check: CheckSyntactic, Detail: detail, EntrySeq: seq}
}

// deferRef records a forward-reference fault candidate for Finish.
func (c *serialChecker) deferRef(seq, refSeq uint64, detail string) {
	c.pending = append(c.pending, pendingFault{
		seq: seq, refSeq: refSeq, detail: detail, stats: c.stats,
	})
}

// seen reports whether sequence number s falls inside the segment prefix
// processed so far (the batch pass's inSegment bound, evaluated over i+1
// entries). Like the batch pass it assumes the consecutive numbering the
// chain verifier enforces.
func (c *serialChecker) seen(s uint64, i int) bool {
	return s >= c.firstSeq && s < c.firstSeq+uint64(i+1)
}

// Add consumes the next entry of the segment.
func (c *serialChecker) Add(e *tevlog.Entry) {
	i := c.count
	c.count++
	if !c.started {
		c.started = true
		c.firstSeq = e.Seq
	}
	if c.fault != nil {
		return
	}
	switch e.Type {
	case tevlog.TypeSend:
		sc, err := wire.ParseSend(e.Content)
		if err != nil {
			c.fail(e.Seq, "malformed SEND entry: "+err.Error())
			return
		}
		if sc.MsgID != e.Seq {
			c.fail(e.Seq, "SEND message id does not match entry sequence number")
			return
		}
		c.stats.Sends++
		c.sendSeqs = append(c.sendSeqs, e.Seq)
		c.sendAcked[e.Seq] = false
	case tevlog.TypeRecv:
		rc, err := wire.ParseRecv(e.Content)
		if err != nil {
			c.fail(e.Seq, "malformed RECV entry: "+err.Error())
			return
		}
		c.stats.Recvs++
		c.recvPayload[e.Seq] = rc
		if c.opts.VerifySignatures {
			// Recompute the sender's chain hash for SEND(m) and verify
			// the sender's authenticator signature over it, proving the
			// message is genuine (§4.3: forged incoming messages are
			// detectable because senders sign their messages).
			sendContent := (&wire.SendContent{
				MsgID: rc.MsgID, Dest: c.opts.NodeIdx, Payload: rc.Payload,
			}).Marshal()
			h := tevlog.ChainHash(rc.SenderPrev, rc.SenderSeq, tevlog.TypeSend,
				tevlog.HashContent(sendContent))
			a := tevlog.Authenticator{
				Node: sig.NodeID(rc.SrcNode), Seq: rc.SenderSeq, Hash: h, Sig: rc.SenderSig,
			}
			if !a.Verify(c.opts.Keys) {
				c.fail(e.Seq, "RECV entry carries an invalid sender signature (forged message?)")
				return
			}
			c.stats.SigsVerified++
		}
	case tevlog.TypeAck:
		ac, err := wire.ParseAck(e.Content)
		if err != nil {
			c.fail(e.Seq, "malformed ACK entry: "+err.Error())
			return
		}
		c.stats.Acks++
		if ac.MsgID >= c.firstSeq {
			if _, ok := c.sendAcked[ac.MsgID]; ok {
				c.sendAcked[ac.MsgID] = true
			} else if c.seen(ac.MsgID, i) {
				c.fail(e.Seq, "ACK references a non-SEND entry")
				return
			} else {
				c.deferRef(e.Seq, ac.MsgID, "ACK references a non-SEND entry")
			}
		}
		if c.opts.VerifySignatures {
			a := tevlog.Authenticator{
				Node: sig.NodeID(ac.PeerNode), Seq: ac.PeerSeq, Hash: ac.PeerHash, Sig: ac.PeerSig,
			}
			if !a.Verify(c.opts.Keys) {
				c.fail(e.Seq, "ACK entry carries an invalid peer signature")
				return
			}
			c.stats.SigsVerified++
		}
	case tevlog.TypeNondet:
		if _, err := wire.ParseNondet(e.Content); err != nil {
			c.fail(e.Seq, "malformed NONDET entry: "+err.Error())
			return
		}
		c.stats.Nondets++
	case tevlog.TypeIRQ, tevlog.TypeSnapshot:
		ev, err := wire.ParseEvent(e.Content)
		if err != nil {
			c.fail(e.Seq, "malformed event entry: "+err.Error())
			return
		}
		if ev.Landmark.ICount < c.lastEventICount {
			c.fail(e.Seq, "event landmarks are not monotonic")
			return
		}
		c.lastEventICount = ev.Landmark.ICount
		if e.Type == tevlog.TypeSnapshot {
			c.stats.Snapshots++
		} else {
			c.stats.Events++
		}
		if ev.Kind == wire.EventInjectPacket {
			// An injection of a message received before this segment
			// (RecvSeq < firstSeq) says nothing about the RECVs in it.
			if ev.RecvSeq >= c.firstSeq {
				// Checked before the payload lookup: injection prunes it, so
				// a re-injection must still resolve to "twice".
				if c.injected[ev.RecvSeq] {
					c.fail(e.Seq, "message injected into the AVM twice")
					return
				}
				if rc, ok := c.recvPayload[ev.RecvSeq]; ok {
					if !bytes.Equal(rc.Payload, ev.Payload) || rc.SrcIdx != ev.SrcIdx {
						c.fail(e.Seq, "injected payload differs from the received message (altered in the monitor?)")
						return
					}
					c.injected[ev.RecvSeq] = true
					if ev.RecvSeq > c.lastInjectedRecv {
						c.lastInjectedRecv = ev.RecvSeq
					}
					// The payload is no longer needed: only uninjected RECVs
					// matter to Finish, and the injected set alone guards
					// against double injection.
					delete(c.recvPayload, ev.RecvSeq)
				} else if c.seen(ev.RecvSeq, i) {
					c.fail(e.Seq, "packet injection references a non-RECV entry (forged injection?)")
					return
				} else {
					c.deferRef(e.Seq, ev.RecvSeq, "packet injection references a non-RECV entry (forged injection?)")
				}
			}
		}
	case tevlog.TypeAnnotation:
		// Free-form; ignored.
	default:
		c.fail(e.Seq, "unknown entry type")
	}
}

// Finish completes the pass and returns the verdict the batch pass would
// have produced over the same entries.
func (c *serialChecker) Finish() (SyntacticStats, *FaultReport) {
	// A deferred forward reference materializes if the segment reached the
	// referenced sequence number. Candidates precede any immediate fault in
	// entry order (Add stops recording once a fault is set), so the first
	// materialized candidate is the verdict the batch pass reports.
	for _, p := range c.pending {
		if p.refSeq < c.firstSeq+uint64(c.count) {
			stats := p.stats
			stats.Entries = c.count
			return stats, &FaultReport{Node: c.node, Check: CheckSyntactic, Detail: p.detail, EntrySeq: p.seq}
		}
	}
	c.stats.Entries = c.count
	if c.fault != nil {
		return c.stats, c.fault
	}
	// Every received message must have entered the AVM (§4.4: dropping a
	// message between receipt and injection is a fault). The monitor injects
	// in arrival order, so messages still in its injection pipeline at the
	// end of the segment are the newest ones and are tolerated: an
	// uninjected RECV is a fault only if a message received after it was
	// injected — injecting a later message while dropping an earlier one.
	// The lowest such sequence number is reported, so the verdict does not
	// depend on map order.
	dropped, found := uint64(0), false
	for seq := range c.recvPayload {
		if seq < c.lastInjectedRecv {
			if !found || seq < dropped {
				dropped, found = seq, true
			}
		} else {
			c.stats.InFlightRecvs++
		}
	}
	if found {
		return c.stats, &FaultReport{
			Node: c.node, Check: CheckSyntactic, EntrySeq: dropped,
			Detail: "received message was never injected into the AVM (dropped in the monitor?)",
		}
	}
	for _, seq := range c.sendSeqs {
		if !c.sendAcked[seq] {
			c.stats.UnackedSends++
		}
	}
	if c.opts.StrictAcks && c.stats.UnackedSends > 0 {
		return c.stats, &FaultReport{
			Node: c.node, Check: CheckSyntactic, EntrySeq: 0,
			Detail: "sent messages were never acknowledged",
		}
	}
	return c.stats, nil
}

// serialSyntacticCheck is the reference SyntacticCheck.
func serialSyntacticCheck(node sig.NodeID, entries []tevlog.Entry, opts SyntacticOptions) (SyntacticStats, *FaultReport) {
	c := newSerialChecker(node, opts)
	for i := range entries {
		c.Add(&entries[i])
	}
	return c.Finish()
}

// serialVerifySegment is the reference tevlog.VerifySegment: rechain a copy
// of the segment, then walk the authenticators in the order supplied,
// verifying each in-range signature on the spot.
func serialVerifySegment(prev tevlog.Hash, entries []tevlog.Entry, auths []tevlog.Authenticator, ks *sig.KeyStore) error {
	if len(entries) == 0 {
		return errors.New("tevlog: empty segment")
	}
	seg := append([]tevlog.Entry(nil), entries...)
	if err := tevlog.Rechain(prev, seg); err != nil {
		return err
	}
	lo, hi := seg[0].Seq, seg[len(seg)-1].Seq
	covered := false
	for _, a := range auths {
		if a.Seq < lo || a.Seq > hi {
			continue
		}
		if !a.Verify(ks) {
			return tevlog.ErrBadSignature
		}
		if got := seg[a.Seq-lo].Hash; got != a.Hash {
			return fmt.Errorf("%w: entry %d has chain hash %x, authenticator commits to %x",
				tevlog.ErrAuthenticatorMismatch, a.Seq, got[:8], a.Hash[:8])
		}
		if a.Seq == hi {
			covered = true
		}
	}
	if !covered {
		return fmt.Errorf("%w: no authenticator covers segment end %d", tevlog.ErrAuthenticatorMismatch, hi)
	}
	return nil
}

// serialVerifyAndCheck is what every engine's verdict must equal when the
// log does not get as far as replay: the reference chain verification, then
// the reference syntactic check. The bool reports whether either faulted.
func serialVerifyAndCheck(a *Auditor, node sig.NodeID, nodeIdx uint32, prev tevlog.Hash, entries []tevlog.Entry, auths []tevlog.Authenticator, strictAcks bool) (Result, bool) {
	res := Result{Node: node}
	if a.TamperEvident {
		if err := serialVerifySegment(prev, entries, auths, a.Keys); err != nil {
			res.Fault = &FaultReport{Node: node, Check: CheckLog, Detail: err.Error()}
			return res, true
		}
	}
	res.Syntactic, res.Fault = serialSyntacticCheck(node, entries, SyntacticOptions{
		NodeIdx: nodeIdx, Keys: a.Keys,
		VerifySignatures: a.TamperEvident && a.VerifySignatures,
		StrictAcks:       strictAcks,
	})
	return res, res.Fault != nil
}
