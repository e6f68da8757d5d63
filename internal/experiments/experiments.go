// Package experiments contains one driver per table and figure of the
// paper's evaluation (§6). Each driver runs the corresponding workload on
// the simulation substrate and returns the same rows/series the paper
// reports. Absolute numbers are not expected to match the authors' testbed
// (our machines are simulated); the shape — who wins, by what rough factor,
// where crossovers fall — is the reproduction target.
package experiments

import (
	"time"

	"repro/internal/avmm"
	"repro/internal/game"
)

// Scale selects experiment durations. Quick keeps the full suite in
// laptop-test time; Full stretches runs for smoother numbers.
type Scale struct {
	// GameNs is the match length for rate/frame measurements.
	GameNs uint64
	// WarmupNs is excluded from steady-state windows (join phase).
	WarmupNs uint64
	// DBNs is the minisql run length for spot checking.
	DBNs uint64
	// DBSnapshotNs is the snapshot interval for the minisql run.
	DBSnapshotNs uint64
	// Pings is the ping count per configuration.
	Pings int
	// CheatMatchNs is the per-cheat match length for Table 1.
	CheatMatchNs uint64
}

// QuickScale is used by tests and the default bench run.
var QuickScale = Scale{
	GameNs:       30_000_000_000,  // 30 virtual s
	WarmupNs:     5_000_000_000,   //  5 virtual s
	DBNs:         300_000_000_000, //  5 virtual min
	DBSnapshotNs: 20_000_000_000,  // 20 virtual s → 15 segments
	Pings:        50,
	CheatMatchNs: 8_000_000_000,
}

// FullScale stretches runs closer to the paper's durations.
var FullScale = Scale{
	GameNs:       180_000_000_000, // 3 virtual min
	WarmupNs:     10_000_000_000,
	DBNs:         900_000_000_000, // 15 virtual min
	DBSnapshotNs: 60_000_000_000,  // 1 virtual min → 15 segments
	Pings:        100,
	CheatMatchNs: 12_000_000_000,
}

// AllModes lists the five evaluation configurations in paper order.
var AllModes = []avmm.Mode{
	avmm.ModeBareHW, avmm.ModeVMwareNoRec, avmm.ModeVMwareRec,
	avmm.ModeAVMMNoSig, avmm.ModeAVMMRSA,
}

// runGame plays a match in the given mode and returns the scenario.
func runGame(mode avmm.Mode, scale Scale, mutate func(*game.ScenarioConfig)) (*game.Scenario, error) {
	cfg := game.ScenarioConfig{
		Players: 3, Mode: mode, Cost: avmm.DefaultCostModel(), Seed: 1234,
		FakeSignatures: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := game.NewScenario(cfg)
	if err != nil {
		return nil, err
	}
	s.Run(scale.GameNs)
	return s, nil
}

// steadyFPS measures per-player frame rates over the steady-state window
// [warmup, end] by re-running the scenario to the warmup point first.
// Because worlds are deterministic, constructing two scenarios with the
// same config yields the same execution; we instead sample frames at
// warmup during a single run via RunAndSampleFrames.
type fpsSample struct {
	frames []uint64
	atNs   uint64
}

// runGameFPS plays a match, sampling frame counters at warmup and at the
// end, returning per-player fps over the steady window.
func runGameFPS(mode avmm.Mode, scale Scale, mutate func(*game.ScenarioConfig)) ([]float64, *game.Scenario, error) {
	cfg := game.ScenarioConfig{
		Players: 3, Mode: mode, Cost: avmm.DefaultCostModel(), Seed: 1234,
		FakeSignatures: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := game.NewScenario(cfg)
	if err != nil {
		return nil, nil, err
	}
	s.Run(scale.WarmupNs)
	base := make([]uint64, len(s.Players))
	baseT := make([]uint64, len(s.Players))
	for i, p := range s.Players {
		base[i] = p.Devs.Frames
		baseT[i] = p.Machine.VTimeNs()
	}
	s.Run(scale.GameNs)
	fps := make([]float64, len(s.Players))
	for i, p := range s.Players {
		df := p.Devs.Frames - base[i]
		dt := p.Machine.VTimeNs() - baseT[i]
		if dt > 0 {
			fps[i] = float64(df) * 1e9 / float64(dt)
		}
	}
	return fps, s, nil
}

// stopwatch measures wall time of f.
func stopwatch(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}
