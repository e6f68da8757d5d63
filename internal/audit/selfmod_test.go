package audit_test

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/logcomp"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
)

// Self-modifying-code equivalence scenario: a guest that stores into the
// very code page it is executing from, flipping one instruction's immediate
// every loop iteration so its control flow — and therefore the recorded
// nondeterministic-input sequence — depends on code bytes written at run
// time. The interpreter's predecode cache must invalidate on those stores
// on both sides of the protocol: a recorder running stale code would log
// the unpatched behavior (caught here by the clock-read count), and a
// replica running stale code diverges from the honest log at the first
// event landmark (caught by the audits below, which must all pass and
// agree).

const selfModIters = 6000

// selfModImage assembles the guest. Per iteration: one clock read, then —
// if the patch site's immediate is nonzero — a second clock read; then the
// iteration counter's low bit is stored into the patch site's immediate
// word, so iterations alternate between the one-read and two-read paths
// forever after the first patch.
func selfModImage() *vm.Image {
	const loop = vm.CodeBase + 2*vm.InstrSize            // instruction 2
	patchImm := uint32(vm.CodeBase + 3*vm.InstrSize + 4) // imm word of instruction 3
	const skip = vm.CodeBase + 6*vm.InstrSize            // instruction 6
	prog := []vm.Instr{
		{Op: vm.OpMovi, Ra: 1, Imm: 0},            // 0: counter = 0
		{Op: vm.OpMovi, Ra: 7, Imm: 1},            // 1: mask
		{Op: vm.OpIn, Ra: 2, Imm: vm.PortClockLo}, // 2: loop: clock read (nondet)
		{Op: vm.OpMovi, Ra: 3, Imm: 0},            // 3: PATCH SITE: r3 = imm
		{Op: vm.OpJz, Ra: 3, Imm: skip},           // 4: skip the extra read when imm == 0
		{Op: vm.OpIn, Ra: 4, Imm: vm.PortClockLo}, // 5: extra clock read (nondet)
		{Op: vm.OpAddi, Ra: 1, Rb: 1, Imm: 1},     // 6: skip: counter++
		{Op: vm.OpAnd, Ra: 6, Rb: 1, Rc: 7},       // 7: r6 = counter & 1
		{Op: vm.OpMovi, Ra: 5, Imm: patchImm},     // 8
		{Op: vm.OpStore, Ra: 5, Rb: 6},            // 9: patch own code page
		{Op: vm.OpMovi, Ra: 8, Imm: selfModIters}, // 10
		{Op: vm.OpLtu, Ra: 9, Rb: 1, Rc: 8},       // 11
		{Op: vm.OpJnz, Ra: 9, Imm: loop},          // 12
		{Op: vm.OpHlt},                            // 13
	}
	var code []byte
	for _, ins := range prog {
		code = ins.Encode(code)
	}
	return &vm.Image{Name: "selfmod", Code: code, Entry: vm.CodeBase, MemSize: 64 * 1024}
}

func TestAuditEquivalenceSelfModifyingCode(t *testing.T) {
	img := selfModImage()
	net := netsim.New(netsim.Config{BaseLatencyNs: 100_000, Seed: 3})
	keys := sig.NewKeyStore()
	w := avmm.NewWorld(net, keys)
	mon, err := avmm.NewMonitor(avmm.Config{
		Node: "selfmod", Index: 0, Mode: avmm.ModeAVMMNoSig,
		Signer: sig.NullSigner{Node: "selfmod"}, Keys: keys,
		Image: img, Net: net, RNGSeed: 5,
		SnapshotEveryNs: 80_000_000, // several epochs over the run
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(mon); err != nil {
		t.Fatal(err)
	}
	if !w.RunUntil(w.AllHalted, 600_000_000_000) {
		t.Fatal("self-modifying guest did not halt")
	}
	if mon.Machine.FaultInfo != nil {
		t.Fatalf("guest faulted: %v", mon.Machine.FaultInfo)
	}

	// The alternation proof: iterations entered with a nonzero patched
	// immediate (every second one, starting with iteration 1) perform a
	// second clock read. A recorder running stale predecoded code would
	// never take that path and log selfModIters reads only.
	wantReads := uint64(selfModIters + selfModIters/2)
	if got := mon.Devs.ClockReads(); got != wantReads {
		t.Fatalf("guest performed %d clock reads, want %d; the patched code paths did not execute", got, wantReads)
	}
	if mon.Snaps.Count() < 3 {
		t.Fatalf("only %d snapshots; the log will not exercise epoch partitioning", mon.Snaps.Count())
	}

	head, err := mon.Log.LastAuthenticator()
	if err != nil {
		t.Fatal(err)
	}
	auths := []tevlog.Authenticator{head}
	a := &audit.Auditor{
		Keys: keys, RefImage: img, RNGSeed: 5,
		TamperEvident: true, VerifySignatures: false,
	}
	entries := mon.Log.Entries()
	materialize := func(snapIdx uint32) (*snapshot.Restored, error) {
		return mon.Snaps.Materialize(int(snapIdx))
	}

	// One request per engine over the same log; each audit fills in its
	// engine and options. streamed is the dist engine over the log's
	// container, fed as a Source.
	req := func(engine audit.Engine, opts audit.EngineOptions) audit.AuditRequest {
		return audit.AuditRequest{Node: "selfmod", Engine: engine, Entries: entries, Auths: auths, Options: opts}
	}
	streamed := func(opts audit.EngineOptions) audit.AuditRequest {
		r := req(audit.EngineDist, opts)
		r.Entries, r.Source = nil, audit.ContainerSource(logcomp.CompressEntries(entries))
		return r
	}
	serial, _ := mustAudit(t, a, req(audit.EngineSerial, audit.EngineOptions{}))
	if !serial.Passed {
		t.Fatalf("serial audit of honest self-modifying guest failed: %v", serial.Fault)
	}
	if serial.Replay.SnapshotsVerified == 0 {
		t.Fatal("serial audit verified no snapshots")
	}
	for _, workers := range []int{1, 2, 8} {
		opts := audit.EngineOptions{Workers: workers, Materialize: materialize}
		par, _ := mustAudit(t, a, req(audit.EngineDist, opts))
		compareVerdicts(t, "selfmod parallel", serial, par)

		stream, astats := mustAudit(t, a, streamed(opts))
		compareVerdicts(t, "selfmod stream", serial, stream)
		if sstats := astats.Stream; sstats.PeakResidentEntries > sstats.Window {
			t.Errorf("stream audit held %d entries, window %d", sstats.PeakResidentEntries, sstats.Window)
		}
	}

	// The predecode ablation must reach the same verdict: the sprint path's
	// cache invalidation and the Step path's fetch-time decode are two
	// implementations of one machine.
	abl := &audit.Auditor{
		Keys: keys, RefImage: img, RNGSeed: 5,
		TamperEvident: true, VerifySignatures: false, DisablePredecode: true,
	}
	streamOpts := audit.EngineOptions{Workers: 2, Materialize: materialize}
	noPre, _ := mustAudit(t, abl, req(audit.EngineSerial, audit.EngineOptions{}))
	compareVerdicts(t, "selfmod nopredecode", serial, noPre)
	noPreStream, _ := mustAudit(t, abl, streamed(streamOpts))
	compareVerdicts(t, "selfmod nopredecode stream", serial, noPreStream)

	// And the fusion ablation: self-modifying stores are exactly the case
	// where a fused span (pair or quad) must bail out mid-dispatch and
	// re-decode, so the fusion-off sprint has to reach the same verdict.
	fusAbl := &audit.Auditor{
		Keys: keys, RefImage: img, RNGSeed: 5,
		TamperEvident: true, VerifySignatures: false, DisableFusion: true,
	}
	noFus, _ := mustAudit(t, fusAbl, req(audit.EngineSerial, audit.EngineOptions{}))
	compareVerdicts(t, "selfmod nofusion", serial, noFus)
	noFusStream, _ := mustAudit(t, fusAbl, streamed(streamOpts))
	compareVerdicts(t, "selfmod nofusion stream", serial, noFusStream)
}
