package avmm

import (
	"testing"

	"repro/internal/lang"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/tevlog"
	"repro/internal/vm"
	"repro/internal/wire"
)

func TestModeProperties(t *testing.T) {
	cases := []struct {
		mode                         Mode
		virt, records, tamper, signs bool
		name                         string
	}{
		{ModeBareHW, false, false, false, false, "bare-hw"},
		{ModeVMwareNoRec, true, false, false, false, "vmware-norec"},
		{ModeVMwareRec, true, true, false, false, "vmware-rec"},
		{ModeAVMMNoSig, true, true, true, false, "avmm-nosig"},
		{ModeAVMMRSA, true, true, true, true, "avmm-rsa768"},
	}
	for _, c := range cases {
		if c.mode.Virtualized() != c.virt || c.mode.Records() != c.records ||
			c.mode.TamperEvident() != c.tamper || c.mode.Signs() != c.signs {
			t.Errorf("%v capability flags wrong", c.mode)
		}
		if c.mode.String() != c.name {
			t.Errorf("%v name = %q, want %q", c.mode, c.mode.String(), c.name)
		}
	}
}

// pingPongImages builds a sender that transmits n messages (reading the
// clock before each) and a sink that counts them.
func pingPongImages(t *testing.T, n int) (*vm.Image, *vm.Image) {
	t.Helper()
	sender, err := lang.Compile("sender", `
		const CLOCK_LO = 0x01;
		const NET_RX_STATUS = 0x20;
		const NET_RX_LEN = 0x21;
		const NET_RX_DONE = 0x24;
		const NET_TX_BYTE = 0x28;
		const NET_TX_COMMIT = 0x29;
		interrupt(1) func on_net() { }
		func main() {
			sti();
			var i = 0;
			while (i < `+itoa(n)+`) {
				out(0x60, in(CLOCK_LO));
				out(NET_TX_BYTE, i);
				out(NET_TX_COMMIT, 1);
				while (in(NET_RX_STATUS) == 0) { wfi(); }
				var x = in(NET_RX_LEN);
				out(NET_RX_DONE, 0);
				i = i + 1;
			}
			halt();
		}
	`, lang.Options{MemSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := lang.Compile("sink", `
		const NET_RX_STATUS = 0x20;
		const NET_RX_LEN = 0x21;
		const NET_RX_FROM = 0x22;
		const NET_RX_DONE = 0x24;
		const NET_TX_BYTE = 0x28;
		const NET_TX_COMMIT = 0x29;
		interrupt(1) func on_net() { }
		func main() {
			sti();
			while (1) {
				while (in(NET_RX_STATUS) == 0) { wfi(); }
				var x = in(NET_RX_LEN);
				var from = in(NET_RX_FROM);
				out(NET_RX_DONE, 0);
				out(NET_TX_BYTE, 1);
				out(NET_TX_COMMIT, from);
			}
		}
	`, lang.Options{MemSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	return sender, sink
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// buildWorld boots one monitor per image, named "a", "b", "c", … in network
// order, each signing with signer(node).
func buildWorld(t *testing.T, mode Mode, netCfg netsim.Config, retransmitNs uint64,
	signer func(sig.NodeID) sig.Signer, imgs ...*vm.Image) *World {
	t.Helper()
	net := netsim.New(netCfg)
	keys := sig.NewKeyStore()
	w := NewWorld(net, keys)
	for idx, img := range imgs {
		id := sig.NodeID(string(rune('a' + idx)))
		mon, err := NewMonitor(Config{
			Node: id, Index: idx, Mode: mode, Cost: DefaultCostModel(),
			Signer: signer(id), Keys: keys, Image: img, Net: net, RNGSeed: pairRNGSeed,
			RetransmitNs: retransmitNs,
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

// pairRNGSeed is the device seed every test monitor boots with.
const pairRNGSeed = 4

// cheapSigner is what tests that are not about cryptography sign with.
func cheapSigner(mode Mode) func(sig.NodeID) sig.Signer {
	return func(id sig.NodeID) sig.Signer {
		if mode.Signs() {
			return sig.SizedSigner{Node: id, Size: 96}
		}
		return sig.NullSigner{Node: id}
	}
}

// buildPair wires a sender and sink world in the given mode.
func buildPair(t *testing.T, mode Mode, msgs int, netCfg netsim.Config) (*World, *Monitor, *Monitor) {
	t.Helper()
	senderImg, sinkImg := pingPongImages(t, msgs)
	w := buildWorld(t, mode, netCfg, 50_000_000, cheapSigner(mode), senderImg, sinkImg)
	return w, w.Monitors[0], w.Monitors[1]
}

func TestBareModeDoesNotLog(t *testing.T) {
	w, a, b := buildPair(t, ModeBareHW, 3, netsim.Config{BaseLatencyNs: 10_000})
	w.RunUntil(func() bool { return a.Machine.Halted }, 10_000_000_000)
	if !a.Machine.Halted {
		t.Fatal("sender did not finish")
	}
	if a.Log.Len() != 0 || b.Log.Len() != 0 {
		t.Fatalf("bare mode logged entries: %d, %d", a.Log.Len(), b.Log.Len())
	}
	if a.GuestOverheadNs != 0 || a.DaemonBusyNs != 0 {
		t.Fatal("bare mode charged overhead")
	}
}

func TestRecordingModeLogsWithoutTamperEvidence(t *testing.T) {
	w, a, _ := buildPair(t, ModeVMwareRec, 3, netsim.Config{BaseLatencyNs: 10_000})
	w.RunUntil(func() bool { return a.Machine.Halted }, 10_000_000_000)
	if a.Log.Len() == 0 {
		t.Fatal("recording mode logged nothing")
	}
	if a.ClassBytes(ClassTamper) != 0 {
		t.Fatal("vmware-rec produced tamper-evidence entries")
	}
	if a.ClassBytes(ClassTimeTracker) == 0 {
		t.Fatal("no TimeTracker entries for clock reads")
	}
	if a.TotalLogBytes() != a.VMwareEquivalentBytes() {
		t.Fatal("VMware-equivalent bytes should equal total in non-TE mode")
	}
}

func TestTamperEvidentProtocolAcksAndAuths(t *testing.T) {
	w, a, b := buildPair(t, ModeAVMMRSA, 5, netsim.Config{BaseLatencyNs: 10_000})
	w.RunUntil(func() bool { return a.Machine.Halted }, 20_000_000_000)
	if !a.Machine.Halted {
		t.Fatal("sender did not finish")
	}
	// Both sides collected each other's authenticators.
	if len(a.AuthenticatorsFor("b")) == 0 || len(b.AuthenticatorsFor("a")) == 0 {
		t.Fatal("no authenticators exchanged")
	}
	// Every data message acked: outboxes drain.
	w.Run(w.Now() + 2_000_000_000)
	if len(a.outbox) != 0 || len(b.outbox) != 0 {
		t.Fatalf("outboxes not drained: %d, %d", len(a.outbox), len(b.outbox))
	}
	if a.ClassBytes(ClassTamper) == 0 {
		t.Fatal("no tamper-evidence bytes in TE mode")
	}
	if a.TotalLogBytes() <= a.VMwareEquivalentBytes() {
		t.Fatal("AVMM log should exceed the VMware-equivalent log")
	}
}

func TestRetransmissionRecoversFromLoss(t *testing.T) {
	// 25% loss: the protocol must still deliver everything via
	// retransmission (assumption 1 of §4.1).
	w, a, b := buildPair(t, ModeAVMMNoSig, 5, netsim.Config{
		BaseLatencyNs: 10_000, LossRate: 0x4000, Seed: 11,
	})
	ok := w.RunUntil(func() bool { return a.Machine.Halted }, 120_000_000_000)
	if !ok {
		t.Fatalf("sender never finished despite retransmissions (retransmits=%d, badframes=%d)",
			a.Retransmits, a.BadFrames)
	}
	if a.Retransmits+b.Retransmits == 0 {
		t.Fatal("no retransmissions under 25% loss; loss not exercised")
	}
	// Duplicate data frames must not produce duplicate RECV entries: every
	// RECV in b's log has a distinct message id.
	seen := map[uint64]bool{}
	for _, e := range b.Log.All() {
		if e.Type != tevlog.TypeRecv {
			continue
		}
		rc, err := wire.ParseRecv(e.Content)
		if err != nil {
			t.Fatal(err)
		}
		if seen[rc.MsgID] {
			t.Fatalf("duplicate RECV for message %d", rc.MsgID)
		}
		seen[rc.MsgID] = true
	}
	if len(seen) != 5 {
		t.Fatalf("sink received %d distinct messages, want 5", len(seen))
	}
}

func TestSnapshotAuthsSigned(t *testing.T) {
	senderImg, sinkImg := pingPongImages(t, 3)
	_ = sinkImg
	net := netsim.New(netsim.Config{BaseLatencyNs: 10_000})
	keys := sig.NewKeyStore()
	w := NewWorld(net, keys)
	mon, err := NewMonitor(Config{
		Node: "a", Index: 0, Mode: ModeAVMMRSA, Cost: DefaultCostModel(),
		Signer: sig.SizedSigner{Node: "a", Size: 96}, Keys: keys,
		Image: senderImg, Net: net, SnapshotEveryNs: 100_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(mon); err != nil {
		t.Fatal(err)
	}
	w.Run(1_000_000_000)
	auths := mon.SnapshotAuths()
	if len(auths) == 0 {
		t.Fatal("no snapshot authenticators")
	}
	if len(auths) != mon.Snaps.Count() {
		t.Fatalf("%d auths for %d snapshots", len(auths), mon.Snaps.Count())
	}
	for _, a := range auths {
		if !a.Verify(keys) {
			t.Fatal("snapshot authenticator does not verify")
		}
	}
}

func TestClockDelayOptThrottlesBusyWait(t *testing.T) {
	busy, err := lang.Compile("busy", `
		const CLOCK_LO = 0x01;
		func main() {
			var t0 = in(CLOCK_LO);
			while (in(CLOCK_LO) - t0 < 50000) { }
			halt();
		}
	`, lang.Options{MemSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	run := func(opt bool) uint64 {
		net := netsim.New(netsim.Config{})
		w := NewWorld(net, sig.NewKeyStore())
		mon, err := NewMonitor(Config{
			Node: "a", Index: 0, Mode: ModeAVMMNoSig, Cost: DefaultCostModel(),
			Keys: sig.NewKeyStore(), Image: busy, Net: net, ClockDelayOpt: opt,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Add(mon); err != nil {
			t.Fatal(err)
		}
		w.RunUntil(func() bool { return mon.Machine.Halted }, 10_000_000_000)
		if !mon.Machine.Halted {
			t.Fatal("busy loop did not finish")
		}
		return mon.Devs.ClockReads()
	}
	plain := run(false)
	opt := run(true)
	if opt*2 > plain {
		t.Fatalf("optimization left %d reads vs %d; want at least 2x reduction", opt, plain)
	}
}

func TestWorldRejectsOutOfOrderIndices(t *testing.T) {
	img, _ := pingPongImages(t, 1)
	net := netsim.New(netsim.Config{})
	w := NewWorld(net, sig.NewKeyStore())
	mon, err := NewMonitor(Config{
		Node: "a", Index: 5, Mode: ModeBareHW, Keys: sig.NewKeyStore(),
		Image: img, Net: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(mon); err == nil {
		t.Fatal("index 5 accepted as first monitor")
	}
}

func TestMonitorRequiresImage(t *testing.T) {
	if _, err := NewMonitor(Config{Node: "a"}); err == nil {
		t.Fatal("monitor without image accepted")
	}
}

func TestCostModelCalibrate(t *testing.T) {
	cm := Calibrate(sig.SizedSigner{Node: "x", Size: 96})
	if cm.SignNs == 0 || cm.VerifyNs == 0 || cm.HashPerByteNs == 0 {
		t.Fatalf("calibration produced zeros: %+v", cm)
	}
	rsa := Calibrate(sig.MustGenerateRSA("y", sig.DefaultKeyBits, "cal"))
	if rsa.SignNs < cm.SignNs {
		t.Fatal("real RSA signing measured faster than a hash; implausible")
	}
}

func TestGuestAndDaemonChargesSeparate(t *testing.T) {
	w, a, _ := buildPair(t, ModeAVMMRSA, 3, netsim.Config{BaseLatencyNs: 10_000})
	w.RunUntil(func() bool { return a.Machine.Halted }, 20_000_000_000)
	if a.GuestOverheadNs == 0 {
		t.Fatal("no guest-path overhead recorded")
	}
	if a.DaemonBusyNs == 0 {
		t.Fatal("no daemon work recorded")
	}
	// Daemon work must NOT appear in the machine's clock beyond guest
	// charges: virtual time = instructions + guest charges (+ idle).
	minVTime := a.Machine.ICount*a.Machine.NsPerInstr + a.GuestOverheadNs
	if a.Machine.VTimeNs() < minVTime {
		t.Fatal("machine clock below instruction+guest-charge floor")
	}
}
