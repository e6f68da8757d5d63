// Package-level benchmarks regenerating every table and figure of the
// paper's evaluation (§6). Run them all with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN/BenchmarkFigN executes the corresponding experiment
// driver and reports its headline quantity as custom metrics; the full
// paper-style table is printed via -v logs. Component micro-benchmarks
// (interpreter, hash chain, signatures, compression, replay) quantify the
// real wall cost of this implementation's building blocks.
package avm_test

import (
	"fmt"
	"net"
	"testing"

	auditpkg "repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/experiments"
	"repro/internal/game"
	"repro/internal/lang"
	"repro/internal/logcomp"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
)

// benchScale keeps each figure bench in single-digit wall seconds.
var benchScale = experiments.QuickScale

func BenchmarkTable1_CheatDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(float64(res.Detectable), "cheats-detected")
			b.ReportMetric(float64(res.AnyImpl), "any-impl-class")
		}
	}
}

func BenchmarkFig3_LogGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(res.AVMMRate, "avmm-MB/min")
			b.ReportMetric(res.VMwareRate, "vmware-MB/min")
		}
	}
}

func BenchmarkFig4_LogComposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(res.TotalRate, "raw-MB/min")
			b.ReportMetric(res.CompressedRate, "compressed-MB/min")
		}
	}
}

func BenchmarkFig5_PingRTT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(res.Rows[0].MedianUs, "bare-rtt-us")
			b.ReportMetric(res.Rows[len(res.Rows)-1].MedianUs, "avmm-rtt-us")
		}
	}
}

func BenchmarkFig6_CPUUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			last := res.Rows[len(res.Rows)-1]
			b.ReportMetric(last.HT[0]*100, "daemon-HT0-%")
			b.ReportMetric(last.Avg*100, "avg-util-%")
		}
	}
}

func BenchmarkFig7_FrameRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(res.Rows[0].Avg, "bare-fps")
			b.ReportMetric(res.Rows[len(res.Rows)-1].Avg, "avmm-fps")
			b.ReportMetric(res.DropPct, "drop-%")
		}
	}
}

func BenchmarkFig8_OnlineAuditing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(res.Rows[0].AvgFPS, "fps-0audits")
			b.ReportMetric(res.Rows[2].AvgFPS, "fps-2audits")
		}
	}
}

func BenchmarkFig9_SpotChecking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(res.Rows[0].TimePct, "k1-time-%")
			b.ReportMetric(res.Rows[0].DataPct, "k1-data-%")
		}
	}
}

func BenchmarkSec65_FrameRateCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSec65(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(res.BlowupFactor, "cap-blowup-x")
			b.ReportMetric(res.OptRecovery, "opt-recovery-x")
		}
	}
}

func BenchmarkSec66_AuditPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSec66(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(float64(res.Semantic.Milliseconds()), "semantic-ms")
			b.ReportMetric(float64(res.Syntactic.Milliseconds()), "syntactic-ms")
		}
	}
}

func BenchmarkSec67_NetworkTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSec67(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(res.Rows[0].ServerKbps, "bare-kbps")
			b.ReportMetric(res.Rows[1].ServerKbps, "avmm-kbps")
		}
	}
}

func BenchmarkAblation_ChainBatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationChain(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
		}
	}
}

func BenchmarkAblation_Snapshots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationSnapshots(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(res.SavingsFactor, "incremental-savings-x")
		}
	}
}

func BenchmarkAblation_Landmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationLandmarks(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table().String())
			b.ReportMetric(res.OverheadFactor, "landmark-overhead-x")
		}
	}
}

// --- component micro-benchmarks ---

// machineRunMixes are small hand-assembled kernels, one per instruction
// mix, each an infinite loop so the benchmark meters pure interpreter
// throughput. Addresses: code at vm.CodeBase, scratch data at 32 KiB.
var machineRunMixes = []struct {
	name string
	prog []vm.Instr
}{
	{"alu", []vm.Instr{
		{Op: vm.OpAddi, Ra: 1, Rb: 1, Imm: 1},
		{Op: vm.OpMul, Ra: 2, Rb: 1, Rc: 1},
		{Op: vm.OpXor, Ra: 3, Rb: 2, Rc: 1},
		{Op: vm.OpShl, Ra: 4, Rb: 3, Rc: 1},
		{Op: vm.OpSub, Ra: 5, Rb: 4, Rc: 2},
		{Op: vm.OpOr, Ra: 6, Rb: 5, Rc: 3},
		{Op: vm.OpJmp, Imm: vm.CodeBase},
	}},
	{"branch", []vm.Instr{
		{Op: vm.OpAddi, Ra: 1, Rb: 1, Imm: 1},         // 0
		{Op: vm.OpAnd, Ra: 2, Rb: 1, Rc: 3},           // 1: r2 = r1 & 1
		{Op: vm.OpJz, Ra: 2, Imm: vm.CodeBase + 4*8},  // 2: taken every other lap
		{Op: vm.OpJnz, Ra: 3, Imm: vm.CodeBase + 4*8}, // 3: always taken (r3=1)
		{Op: vm.OpEq, Ra: 4, Rb: 1, Rc: 3},            // 4
		{Op: vm.OpJnz, Ra: 4, Imm: vm.CodeBase},       // 5: rarely taken
		{Op: vm.OpJmp, Imm: vm.CodeBase},              // 6
	}},
	{"mem", []vm.Instr{
		{Op: vm.OpStore, Ra: 8, Rb: 1},           // 0: mem[r8] = r1
		{Op: vm.OpLoad, Ra: 2, Rb: 8},            // 1: r2 = mem[r8]
		{Op: vm.OpPush, Ra: 2},                   // 2
		{Op: vm.OpPush, Ra: 1},                   // 3
		{Op: vm.OpPop, Ra: 4},                    // 4
		{Op: vm.OpPop, Ra: 5},                    // 5
		{Op: vm.OpStoreb, Ra: 8, Rb: 5, Imm: 64}, // 6
		{Op: vm.OpLoadb, Ra: 6, Rb: 8, Imm: 64},  // 7
		{Op: vm.OpJmp, Imm: vm.CodeBase},         // 8
	}},
}

// BenchmarkMachineRun meters the interpreter per instruction mix: the
// fused sprint loop, the sprint with fusion ablated, and the careful Step
// path — the ablations behind the predecode_speedup and fusion_speedup
// rows of BENCH_audit.json.
func BenchmarkMachineRun(b *testing.B) {
	for _, mix := range machineRunMixes {
		for _, mode := range []struct {
			name        string
			nopredecode bool
			nofusion    bool
		}{{"fused", false, false}, {"predecode", false, true}, {"step", true, false}} {
			b.Run(mix.name+"/"+mode.name, func(b *testing.B) {
				var code []byte
				for _, ins := range mix.prog {
					code = ins.Encode(code)
				}
				img := &vm.Image{Name: mix.name, Code: code, Entry: vm.CodeBase, MemSize: 64 * 1024}
				m, err := img.Boot(nil)
				if err != nil {
					b.Fatal(err)
				}
				m.DisablePredecode = mode.nopredecode
				m.DisableFusion = mode.nofusion
				m.Regs[3] = 1
				m.Regs[8] = 32 * 1024
				b.ResetTimer()
				m.RunUntil(m.ICount + uint64(b.N))
				if m.Halted {
					b.Fatalf("kernel halted: %v", m.FaultInfo)
				}
				b.ReportMetric(float64(m.ICount)/b.Elapsed().Seconds()/1e6, "Minstr/s")
			})
		}
	}
}

func BenchmarkVM_Interpreter(b *testing.B) {
	img, err := lang.Compile("spin", `
		func main() {
			var i = 0;
			var acc = 1;
			while (1) { acc = acc * 1103515245 + 12345; i = i + 1; }
		}
	`, lang.Options{MemSize: 64 * 1024})
	if err != nil {
		b.Fatal(err)
	}
	m, err := img.Boot(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	m.Run(uint64(b.N))
	b.ReportMetric(float64(m.ICount)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func BenchmarkTevlog_Append(b *testing.B) {
	l := tevlog.New(sig.NullSigner{Node: "b"})
	content := make([]byte, 32)
	b.SetBytes(int64(len(content) + 13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(tevlog.TypeNondet, content)
	}
}

func BenchmarkRSA_Sign(b *testing.B) {
	s := sig.MustGenerateRSA("b", sig.DefaultKeyBits, "bench")
	msg := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sign(msg)
	}
}

func BenchmarkRSA_Verify(b *testing.B) {
	s := sig.MustGenerateRSA("b", sig.DefaultKeyBits, "bench")
	msg := make([]byte, 64)
	signature := s.Sign(msg)
	v := s.Public()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !v.Verify(msg, signature) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkLogcomp_Compress(b *testing.B) {
	s, err := game.NewScenario(game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMNoSig, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Run(5_000_000_000)
	entries := s.Player(1).Log.All()
	raw := tevlog.MarshalSegment(entries)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logcomp.CompressEntries(entries)
	}
}

func BenchmarkReplay_GameSecond(b *testing.B) {
	// Wall cost of replaying one virtual second of recorded gameplay — the
	// quantity that determines whether online auditing keeps up (§6.11).
	// The match takes periodic snapshots so the parallel sub-benchmarks can
	// partition the log into epochs; "serial" is the plain single replay.
	s, err := game.NewScenario(game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMNoSig, Seed: 1,
		SnapshotEveryNs: 600_000_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Run(5_000_000_000)
	audit := func(b *testing.B, run func() error) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if err := run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) {
		audit(b, func() error {
			res, err := s.AuditNode("player1")
			if err != nil {
				return err
			}
			if !res.Passed {
				return res.Fault
			}
			return nil
		})
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
			audit(b, func() error {
				res, err := s.AuditNodeParallel("player1", workers)
				if err != nil {
					return err
				}
				if !res.Passed {
					return res.Fault
				}
				return nil
			})
		})
	}
	b.Run("stream-4", func(b *testing.B) {
		// Streaming pipeline: decode ∥ chain-verify ∥ replay from the
		// compressed container, default window.
		audit(b, func() error {
			res, _, err := s.AuditNodeStream("player1", 4, 0)
			if err != nil {
				return err
			}
			if !res.Passed {
				return res.Fault
			}
			return nil
		})
	})
	b.Run("dist-tcp-3", func(b *testing.B) {
		// Distributed dispatch over three loopback TCP workers: the full
		// wire round trip (materialized start states + entry runs out,
		// verdicts back) plus coordinator-side root verification and merge.
		var addrs []string
		for i := 0; i < 3; i++ {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			go func() { _ = (&auditpkg.EpochWorker{}).Serve(l) }() // ends when l closes
			addrs = append(addrs, l.Addr().String())
		}
		audit(b, func() error {
			res, _, err := s.AuditNodeDist("player1", auditpkg.DistOptions{
				Backend: &auditpkg.TCPBackend{Addrs: addrs},
			})
			if err != nil {
				return err
			}
			if !res.Passed {
				return res.Fault
			}
			return nil
		})
	})
}

// rootSink prevents the compiler from eliding the hashing work.
var rootSink [32]byte

func BenchmarkMerkleSnapshotRoot(b *testing.B) {
	m := vm.NewMachine(256*1024, nil)
	blob := m.CaptureStateRegisters()
	b.Run("serial", func(b *testing.B) {
		sh := snapshot.StateHasher{Workers: 1}
		b.SetBytes(int64(len(m.Mem)))
		for i := 0; i < b.N; i++ {
			rootSink = sh.RootOfState(m.Mem, blob, nil)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var sh snapshot.StateHasher // default fan-out
		b.SetBytes(int64(len(m.Mem)))
		for i := 0; i < b.N; i++ {
			rootSink = sh.RootOfState(m.Mem, blob, nil)
		}
	})
}
