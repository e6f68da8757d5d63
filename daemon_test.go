package avm_test

import (
	"testing"

	avm "repro"
	"repro/internal/avmm"
	"repro/internal/avmm/avmmtest"
	"repro/internal/netsim"
	"repro/internal/sig"
)

// A request/reply pair as a Deployment assembles it — each request's ACK
// and its reply are signed by the same machine back to back, the strictly
// serial chain — records the same bytes with and without cores for the
// logging daemon. The monitors are built directly because AddNode makes a
// fresh key per call, and the two recordings must sign with the same keys.
func TestRecordingIndependentOfGOMAXPROCS(t *testing.T) {
	serverImg, err := avm.Compile("counter", counterSrc, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	clientImg, err := avm.Compile("client", clientSrc, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	signers := avmm.NodeSigners(avm.ModeAVMMRSA, false, "equivalence", "bob", "alice")
	build := func() *avmm.World {
		net := netsim.New(netsim.Config{BaseLatencyNs: 96_000, Seed: 4})
		keys := sig.NewKeyStore()
		w := avmm.NewWorld(net, keys)
		for idx, node := range []struct {
			id  sig.NodeID
			img *avm.Image
		}{{"bob", serverImg}, {"alice", clientImg}} {
			mon, err := avmm.NewMonitor(avmm.Config{
				Node: node.id, Index: idx, Mode: avm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
				Signer: signers[node.id], Keys: keys, Image: node.img, Net: net,
				RNGSeed: 1000 + uint64(idx), SnapshotEveryNs: 10_000_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Add(mon); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	avmmtest.RequireSameRecording(t, build, 100_000_000)
}
