package audit_test

import (
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/game"
	"repro/internal/logcomp"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
)

// streamScenario records a short clean match with periodic snapshots.
func streamScenario(t *testing.T) *game.Scenario {
	t.Helper()
	s, err := game.NewScenario(game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 99, SnapshotEveryNs: 1_500_000_000, FakeSignatures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(6_000_000_000)
	return s
}

// TestAuditStreamBoundedWindow: with a window far smaller than the log, the
// streaming audit still passes with the serial verdict, partitions into
// multiple epochs, and never holds more decoded entries than the window.
func TestAuditStreamBoundedWindow(t *testing.T) {
	s := streamScenario(t)
	serial, err := s.AuditNode("player1")
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Passed {
		t.Fatalf("serial audit failed: %v", serial.Fault)
	}
	target := s.Player(1)
	if target.Log.Len() < 500 {
		t.Fatalf("log too short (%d entries) to exercise the window", target.Log.Len())
	}
	const window = 64
	res, stream, err := s.AuditNodeStream("player1", 4, window)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("stream audit failed: %v", res.Fault)
	}
	if res.Replay != serial.Replay || res.Syntactic != serial.Syntactic {
		t.Errorf("stream stats diverge: replay %+v vs %+v, syntactic %+v vs %+v",
			res.Replay, serial.Replay, res.Syntactic, serial.Syntactic)
	}
	if stream.Entries != target.Log.Len() {
		t.Errorf("stream decoded %d entries, log has %d", stream.Entries, target.Log.Len())
	}
	if stream.Epochs < 2 {
		t.Errorf("stream used %d epochs; snapshots were not exploited", stream.Epochs)
	}
	if stream.PeakResidentEntries > window {
		t.Errorf("peak resident entries %d exceeds window %d (log %d entries)",
			stream.PeakResidentEntries, window, target.Log.Len())
	}
}

// TestAuditStreamNoMaterializer: without a snapshot source the stream
// replays a single boot epoch (decode ∥ chain-verify ∥ replay) and still
// matches the serial verdict — the avm-audit CLI mode.
func TestAuditStreamNoMaterializer(t *testing.T) {
	s := streamScenario(t)
	serial, err := s.AuditNode("player2")
	if err != nil {
		t.Fatal(err)
	}
	target, auths, a, err := s.AuditInputs("player2")
	if err != nil {
		t.Fatal(err)
	}
	compressed := logcomp.CompressEntries(target.Log.Entries())
	res, astats := mustAudit(t, a, audit.AuditRequest{
		Node: "player2", NodeIdx: uint32(target.Index()), Engine: audit.EngineStream,
		Compressed: compressed, Auths: auths, Options: audit.EngineOptions{Workers: 2, Window: 128}})
	stream := astats.Stream
	compareVerdicts(t, "no-materializer stream", serial, res)
	if stream.Epochs != 1 {
		t.Errorf("epochs = %d, want 1 without a materializer", stream.Epochs)
	}
	if stream.PeakResidentEntries > 128 {
		t.Errorf("peak resident entries %d exceeds window 128", stream.PeakResidentEntries)
	}
}

// TestAuditStreamCorruptedEntry: flip one byte of a mid-log entry, then
// recompress. The materializing auditor (decompress → rechain → AuditFull)
// and the streaming auditor must report the same tampering evidence — same
// check, same entry, same detail.
func TestAuditStreamCorruptedEntry(t *testing.T) {
	s := streamScenario(t)
	target, auths, a, err := s.AuditInputs("player1")
	if err != nil {
		t.Fatal(err)
	}
	entries := target.Log.All()
	mid := len(entries) / 2
	entries[mid].Content = append([]byte(nil), entries[mid].Content...)
	entries[mid].Content[0] ^= 0x40
	compressed := logcomp.CompressEntries(entries)

	// Materializing pipeline, as cmd/avm-audit runs it.
	decoded, err := logcomp.DecompressEntries(compressed)
	if err != nil {
		t.Fatal(err)
	}
	if err := tevlog.Rechain(tevlog.Hash{}, decoded); err != nil {
		t.Fatal(err)
	}
	mat, _ := mustAudit(t, a, audit.AuditRequest{Node: "player1", NodeIdx: uint32(target.Index()), Entries: decoded, Auths: auths})
	if mat.Passed {
		t.Fatal("materializing audit passed on a tampered log")
	}
	if mat.Fault.Check != audit.CheckLog {
		t.Fatalf("materializing fault check = %s, want log", mat.Fault.Check)
	}

	res, _ := mustAudit(t, a, audit.AuditRequest{
		Node: "player1", NodeIdx: uint32(target.Index()), Engine: audit.EngineStream,
		Compressed: compressed, Auths: auths,
		Options: audit.EngineOptions{
			Workers: 4, Window: 256,
			Materialize: func(snapIdx uint32) (*snapshot.Restored, error) { return target.Snaps.Materialize(int(snapIdx)) },
		}})
	if res.Passed {
		t.Fatal("streaming audit passed on a tampered log")
	}
	if res.Fault.Check != mat.Fault.Check || res.Fault.EntrySeq != mat.Fault.EntrySeq ||
		res.Fault.Detail != mat.Fault.Detail {
		t.Errorf("tampering evidence diverges:\nstream: (%s, seq %d) %s\nbatch:  (%s, seq %d) %s",
			res.Fault.Check, res.Fault.EntrySeq, res.Fault.Detail,
			mat.Fault.Check, mat.Fault.EntrySeq, mat.Fault.Detail)
	}
}

// TestAuditStreamCorruptedContainer: a container truncated mid-column is
// reported as a log-check fault carrying the decoder's error, at any
// truncation severity.
func TestAuditStreamCorruptedContainer(t *testing.T) {
	s := streamScenario(t)
	target, auths, a, err := s.AuditInputs("player1")
	if err != nil {
		t.Fatal(err)
	}
	compressed := logcomp.CompressEntries(target.Log.Entries())
	for _, cut := range []int{len(compressed) / 3, len(compressed) - 1} {
		res, _ := mustAudit(t, a, audit.AuditRequest{
			Node: "player1", NodeIdx: uint32(target.Index()), Engine: audit.EngineStream,
			Compressed: compressed[:cut], Auths: auths, Options: audit.EngineOptions{Workers: 2, Window: 128}})
		if res.Passed {
			t.Fatalf("cut %d: truncated container passed", cut)
		}
		if res.Fault.Check != audit.CheckLog || !strings.Contains(res.Fault.Detail, "decoding log container") {
			t.Errorf("cut %d: fault = (%s) %s; want decode failure", cut, res.Fault.Check, res.Fault.Detail)
		}
	}
}

// TestAuditStreamEmptyLog mirrors the serial engine on an empty segment: a
// tamper-evident audit faults on the empty chain.
func TestAuditStreamEmptyLog(t *testing.T) {
	s := streamScenario(t)
	_, auths, a, err := s.AuditInputs("player1")
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := mustAudit(t, a, audit.AuditRequest{Node: "player1", NodeIdx: 1, Auths: auths})
	res, _ := mustAudit(t, a, audit.AuditRequest{
		Node: "player1", NodeIdx: 1, Engine: audit.EngineStream,
		Compressed: logcomp.CompressEntries(nil), Auths: auths, Options: audit.EngineOptions{Workers: 2}})
	if res.Passed != serial.Passed {
		t.Fatalf("empty log: stream passed=%v, serial passed=%v", res.Passed, serial.Passed)
	}
	if serial.Fault != nil && (res.Fault == nil || res.Fault.Check != serial.Fault.Check ||
		res.Fault.Detail != serial.Fault.Detail) {
		t.Errorf("empty log: stream fault %v, serial fault %v", res.Fault, serial.Fault)
	}
}

// TestAuditStreamDetectsCheatWithTinyWindow: end-to-end completeness under
// memory pressure — a real cheat from the Table 1 catalog is detected by
// the streaming auditor with a 32-entry window, with the serial verdict.
func TestAuditStreamDetectsCheatWithTinyWindow(t *testing.T) {
	cheat, err := game.CatalogByName("aimbot")
	if err != nil {
		t.Fatal(err)
	}
	s, err := game.NewScenario(game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 2024, CheatPlayer: 1, Cheat: cheat,
		SnapshotEveryNs: 2_000_000_000, FakeSignatures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(6_000_000_000)
	serial, err := s.AuditNode("player1")
	if err != nil {
		t.Fatal(err)
	}
	res, stream, err := s.AuditNodeStream("player1", 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	compareVerdicts(t, "tiny-window cheat", serial, res)
	if stream.PeakResidentEntries > 32 {
		t.Errorf("peak resident entries %d exceeds window 32", stream.PeakResidentEntries)
	}
}
