package game

import (
	"testing"

	"repro/internal/avmm"
	"repro/internal/avmm/avmmtest"
)

// The three-node match records the same bytes whether every signature is
// computed the moment it is requested (one P) or by the logging daemon
// while the simulation carries on (four).
func TestRecordingIndependentOfGOMAXPROCS(t *testing.T) {
	cfg := ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 77, SnapshotEveryNs: 500_000_000,
	}
	signers := avmm.NodeSigners(cfg.Mode, false, "equivalence", "server", playerNode(1), playerNode(2))
	build := func() *avmm.World {
		s, err := newScenario(cfg, signers)
		if err != nil {
			t.Fatal(err)
		}
		return s.World
	}
	avmmtest.RequireSameRecording(t, build, 2_000_000_000)
}
