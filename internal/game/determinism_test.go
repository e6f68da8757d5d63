package game

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/tevlog"
)

// TestScenarioDeterminism: two worlds built from the same configuration
// produce bit-identical logs on every machine — the property that makes
// every experiment in this repository reproducible.
func TestScenarioDeterminism(t *testing.T) {
	run := func() []tevlog.Hash {
		s, err := NewScenario(ScenarioConfig{
			Players: 3, Mode: avmm.ModeAVMMNoSig, Seed: 77,
			SnapshotEveryNs: 4_000_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(10_000_000_000)
		var heads []tevlog.Hash
		for _, mon := range append([]*avmm.Monitor{s.Server}, s.Players...) {
			heads = append(heads, mon.Log.LastHash())
		}
		return heads
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d produced different logs across identical runs", i)
		}
	}
}

// TestSeedChangesExecution: different seeds must actually change the match
// (otherwise the determinism test above would be vacuous).
func TestSeedChangesExecution(t *testing.T) {
	logHead := func(seed uint64) tevlog.Hash {
		s, err := NewScenario(ScenarioConfig{Players: 2, Mode: avmm.ModeAVMMNoSig, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(8_000_000_000)
		return s.Player(1).Log.LastHash()
	}
	if logHead(1) == logHead(2) {
		t.Fatal("different seeds produced identical executions")
	}
}

// TestVMwareRecModeIsReplayable: the recording-only configuration (plain
// replay log, no tamper evidence) still supports semantic-only audits —
// what plain deterministic-replay systems like ReVirt provide, and the
// baseline AVMs build on.
func TestVMwareRecModeIsReplayable(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{Players: 2, Mode: avmm.ModeVMwareRec, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10_000_000_000)
	res, err := s.AuditNode("player1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("vmware-rec honest replay failed: %v", res.Fault)
	}
	if res.Replay.SendsMatched == 0 {
		t.Fatal("no outputs matched in replay")
	}
	// But recording-only logs carry no commitments: a modified log is NOT
	// detectable (the gap between replay and accountability).
	entries := s.Player(1).Log.All()
	mid := len(entries) / 2
	entries[mid].Content = append([]byte(nil), entries[mid].Content...)
	if len(entries[mid].Content) > 0 {
		entries[mid].Content[0] ^= 0xFF
	}
	a := &audit.Auditor{
		Keys: s.Keys, RefImage: s.RefImgs["player1"], RNGSeed: s.RNGSeedOf(1),
		TamperEvident: false, VerifySignatures: false,
	}
	res2, _, err := a.Audit(audit.AuditRequest{Node: "player1", NodeIdx: 1, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	// The mutation may or may not cause a replay divergence, but no LOG
	// check can fire — that is exactly why AVMs add the hash chain.
	if res2.Fault != nil && res2.Fault.Check == audit.CheckLog {
		t.Fatal("recording-only log reported tamper evidence it cannot have")
	}
}
