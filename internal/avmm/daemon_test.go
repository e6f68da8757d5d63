package avmm

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/tevlog"
	"repro/internal/vm"
	"repro/internal/wire"
)

// The tests below run with real RSA keys and several Ps, so that the daemon
// really signs on other goroutines. One signature takes hundreds of host
// microseconds — milliseconds under the race detector — while an idle guest
// lets the simulation cross a virtual millisecond in a few: a reader that
// does not wait for a frame's signature finds the zero placeholder, fails to
// verify it and counts a bad frame, so "BadFrames == 0 and every audit
// passes" fails for each wait that is taken out.

var rsaKeys = sync.OnceValue(func() map[sig.NodeID]sig.Signer {
	return NodeSigners(ModeAVMMRSA, false, "daemon-test", "a", "b", "c")
})

func rsaSigner(id sig.NodeID) sig.Signer { return rsaKeys()[id] }

// withProcs runs the rest of the test with n Ps.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// buildRSAPair is buildPair under the full AVMM with real keys, on four Ps.
func buildRSAPair(t *testing.T, msgs int, netCfg netsim.Config, retransmitNs uint64) (*World, []*vm.Image) {
	t.Helper()
	withProcs(t, 4)
	senderImg, sinkImg := pingPongImages(t, msgs)
	imgs := []*vm.Image{senderImg, sinkImg}
	return buildWorld(t, ModeAVMMRSA, netCfg, retransmitNs, rsaSigner, imgs...), imgs
}

// requireCleanAudits fails unless no monitor counted a bad frame and every
// node's log passes a full audit against the image it booted.
func requireCleanAudits(t *testing.T, w *World, imgs []*vm.Image) {
	t.Helper()
	for idx, target := range w.Monitors {
		if target.BadFrames != 0 {
			t.Errorf("%s counted %d bad frames", target.Node(), target.BadFrames)
		}
		var auths []tevlog.Authenticator
		for _, mon := range w.Monitors {
			if mon != target {
				auths = append(auths, mon.AuthenticatorsFor(target.Node())...)
			}
		}
		head, err := target.Log.LastAuthenticator()
		if err != nil {
			t.Fatalf("%s: %v", target.Node(), err)
		}
		a := &audit.Auditor{
			Keys: w.Keys, RefImage: imgs[idx], RNGSeed: pairRNGSeed,
			TamperEvident: true, VerifySignatures: true,
		}
		res, _, err := a.Audit(audit.AuditRequest{
			Node: target.Node(), NodeIdx: uint32(idx),
			Entries: target.Log.Entries(), Auths: append(auths, head),
		})
		if err != nil {
			t.Fatalf("auditing %s: %v", target.Node(), err)
		}
		if !res.Passed {
			t.Errorf("audit of %s: %v", target.Node(), res.Fault)
		}
	}
}

// entriesOf counts a log's entries of one type.
func entriesOf(mon *Monitor, typ tevlog.EntryType) int {
	n := 0
	for _, e := range mon.Log.Entries() {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// A lossy link makes both re-send paths run: data frames go out again from
// the outbox, and a duplicate data frame is answered with the ack saved in
// seenAcks. Either may happen while the frame's signature is still being
// computed — its first copy was lost, so nobody has waited for it yet, and
// with an idle guest the 2 ms timeout passes in host microseconds.
func TestResendsCarryTheirSignatureHandle(t *testing.T) {
	const msgs = 12
	w, imgs := buildRSAPair(t, msgs, netsim.Config{BaseLatencyNs: 10_000, LossRate: 0x5000, Seed: 5}, 2_000_000)
	a, b := w.Monitors[0], w.Monitors[1]
	// One Run call: RunUntil drains the daemon every slice, which would
	// finish every signature before the timeout could fire.
	w.Run(3_000_000_000)
	if !a.Machine.Halted {
		t.Fatalf("sender did not finish (retransmits %d+%d)", a.Retransmits, b.Retransmits)
	}
	if len(a.outbox) != 0 || len(b.outbox) != 0 {
		t.Fatalf("outboxes not drained: %d, %d", len(a.outbox), len(b.outbox))
	}
	if a.Retransmits == 0 || b.Retransmits == 0 {
		t.Fatalf("retransmissions %d, %d: the loss did not exercise the outbox path", a.Retransmits, b.Retransmits)
	}
	// Everything a node sent is a first transmission, a retransmission, an
	// ack, or an ack sent again for a duplicate.
	for i, mon := range w.Monitors {
		resent := w.Net.NodeStats(i).FramesSent - entriesOf(mon, tevlog.TypeSend) - mon.Retransmits - entriesOf(mon, tevlog.TypeRecv)
		if resent <= 0 {
			t.Errorf("%s answered no duplicate from seenAcks (%d)", mon.Node(), resent)
		}
	}
	if got := entriesOf(b, tevlog.TypeRecv); got != msgs {
		t.Errorf("sink logged %d RECVs, want %d", got, msgs)
	}
	if st := w.DaemonStats(); st.MaxInFlight == 0 || st.Signatures < 4*msgs {
		t.Errorf("daemon stats %+v: signatures were not handed off", st)
	}
	requireCleanAudits(t, w, imgs)
}

// The link filter is the first reader of a frame's bytes. It must see what
// the receiver will see: a frame whose authenticator verifies, never the
// placeholder.
func TestFilterSeesSignedFrames(t *testing.T) {
	w, imgs := buildRSAPair(t, 10, netsim.Config{BaseLatencyNs: 10_000}, 50_000_000)
	seen := 0
	w.Net.Filter = func(nf netsim.Frame) bool {
		f, err := wire.ParseFrame(nf.Data)
		if err != nil {
			t.Errorf("filter: %v", err)
			return true
		}
		seen++
		if !f.Authenticator().Verify(w.Keys) {
			t.Errorf("filter saw %v frame %d from %s with an authenticator that does not verify (sig %x…)",
				f.Kind, f.MsgID, f.FromNode, f.AuthSig[:8])
		}
		return true
	}
	w.Run(1_000_000_000)
	if !w.Monitors[0].Machine.Halted {
		t.Fatal("sender did not finish")
	}
	if seen < 40 {
		t.Fatalf("filter saw %d frames, want 10 round trips with their acks", seen)
	}
	requireCleanAudits(t, w, imgs)
}

// A challenge response commits to the head of the log, and that signature
// is the daemon's too; a response read before it is signed would not lift
// the suspension.
func TestChallengeResponseWaitsForItsSignature(t *testing.T) {
	w, imgs := buildRSAPair(t, 6, netsim.Config{BaseLatencyNs: 10_000}, 50_000_000)
	a, b := w.Monitors[0], w.Monitors[1]
	w.Run(20_000_000)
	if b.Log.Len() == 0 || a.Machine.Halted {
		t.Fatalf("want the challenge mid-conversation: b has %d entries, sender halted %v", b.Log.Len(), a.Machine.Halted)
	}
	if err := w.BroadcastChallenge(1, "produce log segment"); err != nil {
		t.Fatal(err)
	}
	if !a.Suspended(1) {
		t.Fatal("challenger did not suspend the accused")
	}
	w.Run(w.Now() + 1_000_000_000)
	if a.Suspended(1) {
		t.Fatalf("suspension not lifted (bad frames %d)", a.BadFrames)
	}
	if !a.Machine.Halted {
		t.Fatal("traffic did not resume after the response")
	}
	requireCleanAudits(t, w, imgs)
}

// Between the Run calls of RunUntil the daemon is drained, so a condition
// may read whatever the monitors collected.
func TestRunUntilConditionReadsPeerAuths(t *testing.T) {
	w, imgs := buildRSAPair(t, 10, netsim.Config{BaseLatencyNs: 10_000}, 50_000_000)
	a := w.Monitors[0]
	ok := w.RunUntil(func() bool {
		for _, auth := range a.PeerAuths["b"] {
			if !auth.Verify(w.Keys) {
				t.Errorf("authenticator %d from b does not verify", auth.Seq)
			}
		}
		return len(a.PeerAuths["b"]) >= 12
	}, 2_000_000_000)
	if !ok {
		t.Fatalf("collected %d authenticators from b", len(a.PeerAuths["b"]))
	}
	w.RunUntil(func() bool { return a.Machine.Halted && len(a.outbox) == 0 }, 2_000_000_000)
	requireCleanAudits(t, w, imgs)
}

// Only the node a message went to can acknowledge it. A third node that
// acknowledges the message's sequence number with an authenticator validly
// signed under its own key is counted as a bad frame; the message stays in
// the outbox, keeps being retransmitted, and is retired by its destination.
func TestAckFromThirdPartyIsRejected(t *testing.T) {
	senderImg, sinkImg := pingPongImages(t, 1)
	mode := ModeAVMMRSA
	w := buildWorld(t, mode, netsim.Config{BaseLatencyNs: 10_000}, 5_000_000, cheapSigner(mode), senderImg, sinkImg, sinkImg)
	a, c := w.Monitors[0], w.Monitors[2]
	cut := true // b is unreachable at first, so a's message stays pending
	w.Net.Filter = func(f netsim.Frame) bool { return !(cut && f.To == 1) }
	w.RunUntil(func() bool { return len(a.outbox) == 1 }, 100_000_000)
	var msgID uint64
	for id := range a.outbox {
		msgID = id
	}
	if msgID == 0 {
		t.Fatal("sender has no pending message")
	}

	c.Log.Append(tevlog.TypeAnnotation, []byte("c's own log"))
	forged, err := c.Log.LastAuthenticator()
	if err != nil {
		t.Fatal(err)
	}
	if !forged.Verify(w.Keys) {
		t.Fatal("the forger's authenticator must be valid under its own key")
	}
	ack := (&wire.Frame{
		Kind: wire.FrameAck, FromNode: "c", MsgID: msgID,
		AuthSeq: forged.Seq, AuthHash: forged.Hash, AuthSig: forged.Sig,
	}).Marshal()
	w.Net.Send(w.Now(), 2, 0, ack, 0)
	retransmitsBefore := a.Retransmits
	w.Run(w.Now() + 20_000_000)
	if a.BadFrames != 1 {
		t.Fatalf("BadFrames = %d after a forged ack, want 1", a.BadFrames)
	}
	if a.outbox[msgID] == nil {
		t.Fatal("a third party's ack cleared the pending message")
	}
	if len(a.PeerAuths["c"]) != 0 || entriesOf(a, tevlog.TypeAck) != 0 {
		t.Fatal("the forged ack was logged")
	}
	if a.Retransmits <= retransmitsBefore {
		t.Fatal("the message stopped being retransmitted")
	}

	cut = false
	if !w.RunUntil(func() bool { return len(a.outbox) == 0 }, w.Now()+1_000_000_000) {
		t.Fatal("the real destination never acknowledged the message")
	}
	if len(a.PeerAuths["b"]) == 0 || a.BadFrames != 1 {
		t.Fatalf("acks from b: %d, bad frames %d", len(a.PeerAuths["b"]), a.BadFrames)
	}
}
