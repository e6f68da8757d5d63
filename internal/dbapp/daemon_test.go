package dbapp

import (
	"testing"

	"repro/internal/avmm"
	"repro/internal/avmm/avmmtest"
)

// The minisql pair — one authenticator per two log entries, the workload
// that signs most — records the same bytes with and without cores for the
// logging daemon.
func TestRecordingIndependentOfGOMAXPROCS(t *testing.T) {
	cfg := ScenarioConfig{
		Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(), Seed: 77, SnapshotEveryNs: 250_000_000,
	}
	signers := avmm.NodeSigners(cfg.Mode, false, "equivalence", "db-server", "db-client")
	build := func() *avmm.World {
		s, err := newScenario(cfg, signers)
		if err != nil {
			t.Fatal(err)
		}
		return s.World
	}
	avmmtest.RequireSameRecording(t, build, 1_000_000_000)
}
