// Command quickstart demonstrates the basic AVM scenario of the paper's
// Figure 1: Alice relies on software running on Bob's machine. Bob's
// machine records a tamper-evident log; Alice audits it by deterministic
// replay against her reference image. Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	avm "repro"
)

// serviceSrc is the software S: a key-value store Alice's client queries.
const serviceSrc = `
	const NET_RX_STATUS = 0x20;
	const NET_RX_LEN = 0x21;
	const NET_RX_FROM = 0x22;
	const NET_RX_BYTE = 0x23;
	const NET_RX_DONE = 0x24;
	const NET_TX_BYTE = 0x28;
	const NET_TX_COMMIT = 0x29;

	var keys[256];
	var vals[256];

	interrupt(1) func on_net() { }

	func main() {
		sti();
		while (1) {
			while (in(NET_RX_STATUS) == 0) { wfi(); }
			var n = in(NET_RX_LEN);
			var from = in(NET_RX_FROM);
			var op = in(NET_RX_BYTE);
			var k = in(NET_RX_BYTE);
			var v = in(NET_RX_BYTE);
			out(NET_RX_DONE, 0);
			if (op == 'P') { keys[k] = 1; vals[k] = v; out(NET_TX_BYTE, 1); }
			if (op == 'G') {
				if (keys[k]) { out(NET_TX_BYTE, vals[k]); }
				else { out(NET_TX_BYTE, 0); }
			}
			out(NET_TX_COMMIT, from);
		}
	}
`

// clientSrc puts ten values and reads them back.
const clientSrc = `
	const NET_RX_STATUS = 0x20;
	const NET_RX_LEN = 0x21;
	const NET_RX_BYTE = 0x23;
	const NET_RX_DONE = 0x24;
	const NET_TX_BYTE = 0x28;
	const NET_TX_COMMIT = 0x29;
	const DEBUG = 0x60;

	interrupt(1) func on_net() { }

	func request(op, k, v) {
		out(NET_TX_BYTE, op);
		out(NET_TX_BYTE, k);
		out(NET_TX_BYTE, v);
		out(NET_TX_COMMIT, 0);
		while (in(NET_RX_STATUS) == 0) { wfi(); }
		var n = in(NET_RX_LEN);
		var r = in(NET_RX_BYTE);
		out(NET_RX_DONE, 0);
		return r;
	}

	func main() {
		sti();
		var i = 0;
		while (i < 10) { request('P', i, i * 7); i = i + 1; }
		i = 0;
		while (i < 10) { out(DEBUG, request('G', i, 0)); i = i + 1; }
		halt();
	}
`

func main() {
	service, err := avm.Compile("kvservice", serviceSrc, 64*1024)
	if err != nil {
		log.Fatalf("compiling service: %v", err)
	}
	client, err := avm.Compile("kvclient", clientSrc, 64*1024)
	if err != nil {
		log.Fatalf("compiling client: %v", err)
	}

	// Bob's machine runs the service in an AVM; Alice's client talks to it.
	// ModeAVMMRSA is the full system: tamper-evident log + RSA-768
	// authenticators, exactly the paper's avmm-rsa768 configuration.
	d, err := avm.NewDeployment(avm.DeploymentConfig{Mode: avm.ModeAVMMRSA, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := d.AddNode("bob", service, 0); err != nil {
		log.Fatal(err)
	}
	if _, err := d.AddNode("alice", client, 1); err != nil {
		log.Fatal(err)
	}

	alice, _ := d.Node("alice")
	bob, _ := d.Node("bob")
	fmt.Println("running: alice's client issues 20 requests against bob's service ...")
	if !d.RunUntil(func() bool { return alice.Machine.Halted }, 120*avm.VirtualSecond) {
		log.Fatal("client did not finish")
	}
	fmt.Printf("client results: %v\n", alice.Devs.Debug)
	fmt.Printf("bob's tamper-evident log: %d entries, %d bytes\n\n",
		bob.Log.Len(), bob.TotalLogBytes())

	// Alice audits bob: she collects the authenticators she received with
	// each of bob's messages, downloads his log, verifies the hash chain,
	// and replays her reference image against it.
	fmt.Println("auditing bob against the reference image ...")
	res, err := d.Audit("bob", service)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(" ", res)
	if !res.Passed {
		log.Fatal("unexpected: honest machine failed audit")
	}
	fmt.Printf("  replayed %d instructions, matched %d outputs, consumed %d log entries\n",
		res.Replay.Instructions, res.Replay.SendsMatched, res.Replay.EntriesConsumed)

	// Now suppose Bob had tampered with his log before handing it over:
	// flip one byte of one entry. The hash chain no longer matches the
	// authenticators Alice holds.
	fmt.Println("\nsimulating a tampered log ...")
	entries := bob.Log.All()
	entries[len(entries)/2].Content = append([]byte(nil), entries[len(entries)/2].Content...)
	entries[len(entries)/2].Content[0] ^= 0xFF
	auditor, err := d.Auditor("bob", service)
	if err != nil {
		log.Fatal(err)
	}
	auths, err := d.CollectAuthenticators("bob")
	if err != nil {
		log.Fatal(err)
	}
	res2, _, err := auditor.Audit(avm.AuditRequest{Node: "bob", Entries: entries, Auths: auths})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(" ", res2)
	if res2.Passed {
		log.Fatal("unexpected: tampered log passed audit")
	}
	fmt.Println("\nquickstart complete: honest execution passed, tampering was detected.")
}
