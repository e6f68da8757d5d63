// Package-level benchmarks regenerating every table and figure of the
// paper's evaluation (§6). Run them all with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN/BenchmarkFigN executes the corresponding experiment
// driver and reports its headline quantity as custom metrics; the full
// paper-style table is printed via -v logs. What this implementation's
// building blocks cost on the host is measured by bench/ (BENCHMARK.json).
package avm_test

import (
	"testing"

	"repro/internal/experiments"
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
