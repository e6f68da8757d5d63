package audit_test

import (
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/lang"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/tevlog"
	"repro/internal/vm"
)

const portConsts = `
	const NET_RX_STATUS = 0x20;
	const NET_RX_LEN = 0x21;
	const NET_RX_FROM = 0x22;
	const NET_RX_BYTE = 0x23;
	const NET_RX_DONE = 0x24;
	const NET_TX_BYTE = 0x28;
	const NET_TX_COMMIT = 0x29;
	const CLOCK_LO = 0x01;
	const DEBUG = 0x60;
`

// echoSrc is a five-message echo server.
const echoSrc = portConsts + `
	interrupt(1) func on_net() { }
	func main() {
		sti();
		var echoed = 0;
		while (echoed < 5) {
			while (in(NET_RX_STATUS) == 0) { wfi(); }
			var n = in(NET_RX_LEN);
			var from = in(NET_RX_FROM);
			var i = 0;
			while (i < n) {
				out(NET_TX_BYTE, in(NET_RX_BYTE));
				i = i + 1;
			}
			out(NET_RX_DONE, 0);
			out(NET_TX_COMMIT, from);
			echoed = echoed + 1;
		}
		halt();
	}
`

// cheatEchoSrc is the same server but it corrupts the second byte of every
// echo — a behavioural modification of the image, like an installed cheat.
const cheatEchoSrc = portConsts + `
	interrupt(1) func on_net() { }
	func main() {
		sti();
		var echoed = 0;
		while (echoed < 5) {
			while (in(NET_RX_STATUS) == 0) { wfi(); }
			var n = in(NET_RX_LEN);
			var from = in(NET_RX_FROM);
			var i = 0;
			while (i < n) {
				var b = in(NET_RX_BYTE);
				if (i == 1) { b = b + 1; }
				out(NET_TX_BYTE, b);
				i = i + 1;
			}
			out(NET_RX_DONE, 0);
			out(NET_TX_COMMIT, from);
			echoed = echoed + 1;
		}
		halt();
	}
`

// clientSrc sends five two-byte messages to node 1 and waits for each echo,
// reading the clock once per round so the log carries nondet entries.
const clientSrc = portConsts + `
	var acked = 0;
	interrupt(1) func on_net() { }
	func main() {
		sti();
		var sent = 0;
		while (sent < 5) {
			out(DEBUG, in(CLOCK_LO));
			out(NET_TX_BYTE, 0x50);
			out(NET_TX_BYTE, sent);
			out(NET_TX_COMMIT, 1);
			while (in(NET_RX_STATUS) == 0) { wfi(); }
			var n = in(NET_RX_LEN);
			var i = 0;
			while (i < n) { out(DEBUG, in(NET_RX_BYTE)); i = i + 1; }
			out(NET_RX_DONE, 0);
			acked = acked + 1;
			sent = sent + 1;
		}
		halt();
	}
`

func compile(t *testing.T, name, src string) *vm.Image {
	t.Helper()
	img, err := lang.Compile(name, src, lang.Options{MemSize: 64 * 1024})
	if err != nil {
		t.Fatalf("compiling %s: %v", name, err)
	}
	return img
}

// buildEchoWorld wires a two-node world: node 0 runs the client, node 1
// runs serverImg. Both record in the given mode.
func buildEchoWorld(t *testing.T, mode avmm.Mode, serverImg *vm.Image) (*avmm.World, *avmm.Monitor, *avmm.Monitor) {
	t.Helper()
	clientImg := compile(t, "client", clientSrc)
	net := netsim.New(netsim.Config{BaseLatencyNs: 100_000, Seed: 7})
	keys := sig.NewKeyStore()
	w := avmm.NewWorld(net, keys)

	mkSigner := func(id sig.NodeID) sig.Signer {
		if mode.Signs() {
			return sig.MustGenerateRSA(id, sig.DefaultKeyBits, "e2e")
		}
		return sig.NullSigner{Node: id}
	}
	alice, err := avmm.NewMonitor(avmm.Config{
		Node: "alice", Index: 0, Mode: mode, Signer: mkSigner("alice"),
		Keys: keys, Image: clientImg, Net: net, RNGSeed: 11,
	})
	if err != nil {
		t.Fatalf("alice monitor: %v", err)
	}
	bob, err := avmm.NewMonitor(avmm.Config{
		Node: "bob", Index: 1, Mode: mode, Signer: mkSigner("bob"),
		Keys: keys, Image: serverImg, Net: net, RNGSeed: 12,
	})
	if err != nil {
		t.Fatalf("bob monitor: %v", err)
	}
	if err := w.Add(alice); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(bob); err != nil {
		t.Fatal(err)
	}
	return w, alice, bob
}

// auditOf runs a full audit of mon using auths collected by its peer plus
// the machine's own head authenticator.
func auditOf(t *testing.T, a *audit.Auditor, mon, peer *avmm.Monitor) *audit.Result {
	t.Helper()
	auths := peer.AuthenticatorsFor(mon.Node())
	head, err := mon.Log.LastAuthenticator()
	if err != nil {
		t.Fatalf("head authenticator: %v", err)
	}
	auths = append(auths, head)
	res, _ := mustAudit(t, a, audit.AuditRequest{
		Node: mon.Node(), NodeIdx: uint32(mon.Index()), Entries: mon.Log.All(), Auths: auths})
	return res
}

func TestHonestExecutionPassesAudit(t *testing.T) {
	for _, mode := range []avmm.Mode{avmm.ModeAVMMNoSig, avmm.ModeAVMMRSA} {
		t.Run(mode.String(), func(t *testing.T) {
			serverImg := compile(t, "echo", echoSrc)
			w, alice, bob := buildEchoWorld(t, mode, serverImg)
			if !w.RunUntil(w.AllHalted, 60_000_000_000) {
				t.Fatalf("world did not quiesce: alice halted=%v bob halted=%v",
					alice.Machine.Halted, bob.Machine.Halted)
			}
			if alice.Machine.FaultInfo != nil || bob.Machine.FaultInfo != nil {
				t.Fatalf("guest fault: alice=%v bob=%v", alice.Machine.FaultInfo, bob.Machine.FaultInfo)
			}

			a := &audit.Auditor{
				Keys: w.Keys, RefImage: serverImg, RNGSeed: 12,
				TamperEvident: true, VerifySignatures: mode.Signs(),
			}
			res := auditOf(t, a, bob, alice)
			if !res.Passed {
				t.Fatalf("audit of honest bob failed: %v", res.Fault)
			}
			if res.Replay.SendsMatched != 5 {
				t.Errorf("replay matched %d sends, want 5", res.Replay.SendsMatched)
			}

			clientImg := compile(t, "client", clientSrc)
			a2 := &audit.Auditor{
				Keys: w.Keys, RefImage: clientImg, RNGSeed: 11,
				TamperEvident: true, VerifySignatures: mode.Signs(),
			}
			res2 := auditOf(t, a2, alice, bob)
			if !res2.Passed {
				t.Fatalf("audit of honest alice failed: %v", res2.Fault)
			}
		})
	}
}

func TestCheaterIsDetectedAndEvidenceVerifies(t *testing.T) {
	refImg := compile(t, "echo", echoSrc)
	cheatImg := compile(t, "echo-cheat", cheatEchoSrc)
	w, alice, bob := buildEchoWorld(t, avmm.ModeAVMMRSA, cheatImg)
	if !w.RunUntil(w.AllHalted, 60_000_000_000) {
		t.Fatal("world did not quiesce")
	}

	// Alice audits bob against the REFERENCE image; bob ran the cheat.
	a := &audit.Auditor{
		Keys: w.Keys, RefImage: refImg, RNGSeed: 12,
		TamperEvident: true, VerifySignatures: true,
	}
	res := auditOf(t, a, bob, alice)
	if res.Passed {
		t.Fatal("audit of cheating bob passed; want divergence")
	}
	if res.Fault.Check != audit.CheckSemantic {
		t.Errorf("fault check = %v, want semantic divergence", res.Fault.Check)
	}

	// Alice bundles evidence; Charlie (a third party with his own reference
	// image and keys) verifies it independently.
	head, err := bob.Log.LastAuthenticator()
	if err != nil {
		t.Fatal(err)
	}
	ev := &audit.Evidence{
		Accused: "bob", AccusedIdx: 1, Reason: res.Fault.Detail,
		Entries: bob.Log.All(),
		Auths:   append(alice.AuthenticatorsFor("bob"), head),
		RNGSeed: 12,
	}
	verdict, err := audit.VerifyEvidence(ev, audit.VerifierConfig{
		Keys: w.Keys, RefImage: refImg, TamperEvident: true, VerifySignatures: true,
	})
	if err != nil {
		t.Fatalf("third party rejected valid evidence: %v", err)
	}
	if verdict.Passed {
		t.Fatal("third party found no fault in valid evidence")
	}

	// The same bundle against the CHEAT image as reference must NOT
	// demonstrate a fault (accuracy: bob really ran that image).
	if _, err := audit.VerifyEvidence(ev, audit.VerifierConfig{
		Keys: w.Keys, RefImage: cheatImg, TamperEvident: true, VerifySignatures: true,
	}); err == nil {
		t.Fatal("evidence verified against the very image bob ran; accuracy violated")
	}
}

func TestLogTamperingIsDetected(t *testing.T) {
	serverImg := compile(t, "echo", echoSrc)
	w, alice, bob := buildEchoWorld(t, avmm.ModeAVMMRSA, serverImg)
	if !w.RunUntil(w.AllHalted, 60_000_000_000) {
		t.Fatal("world did not quiesce")
	}
	a := &audit.Auditor{
		Keys: w.Keys, RefImage: serverImg, RNGSeed: 12,
		TamperEvident: true, VerifySignatures: true,
	}

	head, err := bob.Log.LastAuthenticator()
	if err != nil {
		t.Fatal(err)
	}
	auths := append(alice.AuthenticatorsFor("bob"), head)

	mutations := map[string]func([]tevlog.Entry) []tevlog.Entry{
		"modify entry": func(es []tevlog.Entry) []tevlog.Entry {
			i := len(es) / 2
			es[i].Content = append([]byte(nil), es[i].Content...)
			es[i].Content[len(es[i].Content)-1] ^= 1
			return es
		},
		"drop entry": func(es []tevlog.Entry) []tevlog.Entry {
			out := append([]tevlog.Entry(nil), es[:10]...)
			return append(out, es[11:]...)
		},
		"reorder entries": func(es []tevlog.Entry) []tevlog.Entry {
			es[5], es[6] = es[6], es[5]
			return es
		},
		"truncate log": func(es []tevlog.Entry) []tevlog.Entry {
			return es[:len(es)/2]
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			entries := mutate(bob.Log.All())
			res, _ := mustAudit(t, a, audit.AuditRequest{Node: "bob", NodeIdx: 1, Entries: entries, Auths: auths})
			if res.Passed {
				t.Fatalf("audit passed on log with mutation %q", name)
			}
			if res.Fault.Check != audit.CheckLog {
				t.Errorf("fault check = %v, want log verification failure", res.Fault.Check)
			}
		})
	}
}

func TestForkedLogIsDetected(t *testing.T) {
	signer := sig.MustGenerateRSA("mallory", sig.DefaultKeyBits, "fork")
	log1 := tevlog.New(signer)
	log2 := tevlog.New(signer)
	log1.Append(tevlog.TypeAnnotation, []byte("shared prefix"))
	log2.Append(tevlog.TypeAnnotation, []byte("shared prefix"))
	log1.Append(tevlog.TypeSend, []byte("to alice"))
	log2.Append(tevlog.TypeSend, []byte("to charlie"))
	a1, err := log1.LastAuthenticator()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := log2.LastAuthenticator()
	if err != nil {
		t.Fatal(err)
	}
	if err := tevlog.CheckFork(a1, a2); err == nil {
		t.Fatal("conflicting authenticators not flagged as fork")
	}
}

func TestAuditRejectsWrongSeed(t *testing.T) {
	// An auditor using the wrong reference configuration must not pass an
	// honest machine off as faulty silently — it reports a divergence,
	// demonstrating why assumption 4 (known reference) matters. The RNG
	// seed only matters if the guest reads the RNG; the client reads the
	// clock, whose values come from the log, so a wrong seed is actually
	// harmless there. This test documents that property instead: replay is
	// insensitive to host-side seeds for clock-only guests.
	serverImg := compile(t, "echo", echoSrc)
	w, alice, bob := buildEchoWorld(t, avmm.ModeAVMMRSA, serverImg)
	if !w.RunUntil(w.AllHalted, 60_000_000_000) {
		t.Fatal("world did not quiesce")
	}
	_ = alice
	a := &audit.Auditor{
		Keys: w.Keys, RefImage: serverImg, RNGSeed: 99, // wrong seed
		TamperEvident: true, VerifySignatures: true,
	}
	res := auditOf(t, a, bob, alice)
	if !res.Passed {
		if !strings.Contains(res.Fault.Detail, "root") {
			t.Fatalf("unexpected fault kind with wrong seed: %v", res.Fault)
		}
	}
}
