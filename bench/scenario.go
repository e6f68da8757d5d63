package main

import (
	"fmt"

	avm "repro"
	"repro/internal/audit"
	"repro/internal/dbapp"
	"repro/internal/game"
	"repro/internal/sig"
	"repro/internal/tevlog"
)

// keyBits is the RSA modulus size of every signer in the benchmark: real
// keys, never the sized digests the experiment drivers substitute.
const keyBits = sig.DefaultKeyBits

// scenarioCfg is what a workload's builder takes. The seed reaches the
// scenario only (bot inputs, device RNGs, network jitter); the audited
// code sees the recorded inputs.
type scenarioCfg struct {
	mode        avm.Mode
	seed        uint64
	snapEveryNs uint64
	// cheat, when set, installs the catalog cheat on player 1 (game only).
	cheat *game.Cheat
}

// recording is a built scenario seen through what the three scenario
// types share: monitors in network-index order, a way to advance virtual
// time, and an auditor per node.
type recording struct {
	mons []*avm.Monitor
	// run advances the world to an absolute virtual time. Advancing in
	// whole milliseconds in several calls replays the exact slice
	// sequence of one call, so a sliced run records the same log.
	run     func(untilNs uint64)
	auditor func(idx int) (*avm.Auditor, error)
}

// auths collects what an auditor of node idx assembles (paper §4.6): the
// authenticators every other machine holds for it, its own snapshot
// commitments, and its head commitment.
func (r *recording) auths(idx int) ([]tevlog.Authenticator, error) {
	target := r.mons[idx]
	var out []tevlog.Authenticator
	for i, mon := range r.mons {
		if i != idx {
			out = append(out, mon.AuthenticatorsFor(target.Node())...)
		}
	}
	out = append(out, target.SnapshotAuths()...)
	if target.Log.Len() > 0 {
		head, err := target.Log.LastAuthenticator()
		if err != nil {
			return nil, err
		}
		out = append(out, head)
	}
	return out, nil
}

// buildGame assembles the paper's workload: a server and two players.
func buildGame(c scenarioCfg) (*recording, error) {
	cfg := game.ScenarioConfig{
		Players: 2, Mode: c.mode, Cost: avm.DefaultCostModel(),
		Seed: c.seed, SnapshotEveryNs: c.snapEveryNs,
	}
	if c.cheat != nil {
		cfg.CheatPlayer, cfg.Cheat = 1, c.cheat
	}
	s, err := game.NewScenario(cfg)
	if err != nil {
		return nil, err
	}
	rec := &recording{mons: append([]*avm.Monitor{s.Server}, s.Players...), run: s.Run}
	rec.auditor = func(idx int) (*avm.Auditor, error) {
		_, _, a, err := s.AuditInputs(rec.mons[idx].Node())
		return a, err
	}
	return rec, nil
}

// buildMinisql assembles the database workload. Only the server takes
// snapshots and only the server is audited.
func buildMinisql(c scenarioCfg) (*recording, error) {
	s, err := dbapp.NewScenario(dbapp.ScenarioConfig{
		Mode: c.mode, Cost: avm.DefaultCostModel(), Seed: c.seed, SnapshotEveryNs: c.snapEveryNs,
	})
	if err != nil {
		return nil, err
	}
	rec := &recording{mons: []*avm.Monitor{s.Server, s.Client}, run: s.Run}
	rec.auditor = func(idx int) (*audit.Auditor, error) {
		if idx != 0 {
			return nil, fmt.Errorf("minisql: only db-server is audited")
		}
		return s.Auditor(), nil
	}
	return rec, nil
}

// compileGame builds the three game images the scenario boots.
func compileGame() error {
	if _, err := game.BuildServer(); err != nil {
		return err
	}
	for id := 1; id <= 2; id++ {
		if _, err := game.BuildClient(id, game.BuildOptions{}); err != nil {
			return err
		}
	}
	return nil
}

// compileMinisql builds the two database images.
func compileMinisql() error {
	if _, err := dbapp.BuildServer(); err != nil {
		return err
	}
	_, err := dbapp.BuildClient()
	return err
}
