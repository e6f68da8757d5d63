package audit_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/game"
)

// catalogMatch is one match of the cheat catalog as the catalog
// equivalence suites audit it — two players, player 1 running the cheat,
// seed 2024, a snapshot every eqMatchNs/3, eqMatchNs of play — with the
// serial verdicts of both players, the oracle every other path is held to.
// Each match is recorded once per test binary, on first use, and the
// suites only read it: audits take the log as a read-only view and the
// snapshot store through Materialize, Delta and File.
type catalogMatch struct {
	once            sync.Once
	s               *game.Scenario
	cheater, honest *audit.Result
	err             error
}

var catalogMatches = make([]catalogMatch, len(game.Catalog()))

// recordedCatalog returns the match of game.Catalog()[i] and the serial
// verdicts of its cheater (player1) and honest player (player2).
func recordedCatalog(t *testing.T, i int) (s *game.Scenario, cheater, honest *audit.Result) {
	t.Helper()
	m := &catalogMatches[i]
	m.once.Do(func() {
		cheat := game.Catalog()[i]
		if m.s, m.err = game.NewScenario(game.ScenarioConfig{
			Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
			Seed: 2024, CheatPlayer: 1, Cheat: cheat,
			SnapshotEveryNs: eqMatchNs / 3, FakeSignatures: true,
		}); m.err != nil {
			return
		}
		m.s.Run(eqMatchNs)
		if m.cheater, m.err = m.s.AuditNode("player1"); m.err != nil {
			m.err = fmt.Errorf("serial audit of the %s cheater: %w", cheat.Name, m.err)
			return
		}
		if m.honest, m.err = m.s.AuditNode("player2"); m.err != nil {
			m.err = fmt.Errorf("serial audit of the %s match's honest player: %w", cheat.Name, m.err)
		}
	})
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m.s, m.cheater, m.honest
}

// sharedScenario is one recording that every test asking for its
// configuration is handed.
type sharedScenario struct {
	once sync.Once
	s    *game.Scenario
	err  error
}

// sharedScenarios holds the recordings recordShared made, by configuration.
var sharedScenarios sync.Map

// recordShared records cfg for runNs of virtual time once per test binary,
// on first use, and hands every later caller with the same configuration
// the same scenario. Like the catalog's matches (recordedCatalog), a shared
// recording is only read: audits take the log as a read-only view and the
// snapshot store through Materialize, Delta and File. A test that changes
// its scenario — runs it further, edits its log or its store — records its
// own with game.NewScenario.
func recordShared(t *testing.T, cfg game.ScenarioConfig, runNs uint64) *game.Scenario {
	t.Helper()
	cheat := ""
	if cfg.Cheat != nil {
		cheat = cfg.Cheat.Name
	}
	key := fmt.Sprintf("%d players, mode %v, seed %d, cheat %q on player %d, snapshot every %d ns, fake signatures %v, %d ns",
		cfg.Players, cfg.Mode, cfg.Seed, cheat, cfg.CheatPlayer, cfg.SnapshotEveryNs, cfg.FakeSignatures, runNs)
	v, _ := sharedScenarios.LoadOrStore(key, &sharedScenario{})
	sh := v.(*sharedScenario)
	sh.once.Do(func() {
		if sh.s, sh.err = game.NewScenario(cfg); sh.err == nil {
			sh.s.Run(runNs)
		}
	})
	if sh.err != nil {
		t.Fatal(sh.err)
	}
	return sh.s
}
