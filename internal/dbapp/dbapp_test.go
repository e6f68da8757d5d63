package dbapp

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/tevlog"
	"repro/internal/wire"
)

func TestWorkloadRunsAndAuditsClean(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{Mode: avmm.ModeAVMMNoSig, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20_000_000_000) // 20 virtual seconds
	if s.Server.Machine.FaultInfo != nil {
		t.Fatalf("server faulted: %v", s.Server.Machine.FaultInfo)
	}
	if s.Client.Machine.FaultInfo != nil {
		t.Fatalf("client faulted: %v", s.Client.Machine.FaultInfo)
	}
	// Traffic must have flowed both ways.
	if s.Net.NodeStats(1).FramesSent == 0 || s.Net.NodeStats(0).FramesSent == 0 {
		t.Fatal("no database traffic")
	}
	auths, err := s.ServerAuths()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := s.Auditor().Audit(audit.AuditRequest{Node: "db-server", Entries: s.Server.Log.All(), Auths: auths})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("honest db server failed audit: %v", res.Fault)
	}
	if res.Replay.SendsMatched == 0 {
		t.Error("replay matched no server responses")
	}
}

func TestSpotCheckChunks(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{
		Mode: avmm.ModeAVMMNoSig, Seed: 9, SnapshotEveryNs: 5_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(30_000_000_000) // 30 virtual seconds → ~6 snapshots
	if s.Server.Snaps.Count() < 4 {
		t.Fatalf("only %d snapshots; want at least 4", s.Server.Snaps.Count())
	}
	entries := s.Server.Log.All()
	points, err := audit.FindSnapshots(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != s.Server.Snaps.Count() {
		t.Fatalf("found %d snapshot entries, store has %d", len(points), s.Server.Snaps.Count())
	}
	auths, err := s.ServerAuths()
	if err != nil {
		t.Fatal(err)
	}
	a := s.Auditor()

	// Audit the 1-chunk starting at each interior snapshot.
	for i := 1; i+1 < len(points); i++ {
		start := points[i]
		end := points[i+1]
		restored, err := s.Server.Snaps.Materialize(int(start.SnapIdx))
		if err != nil {
			t.Fatal(err)
		}
		chunk := entries[start.EntryIndex+1 : end.EntryIndex+1]
		res, _, err := a.Audit(audit.AuditRequest{Chunk: &audit.ChunkRequest{
			Node: "db-server", NodeIdx: 0,
			Start: restored, StartRoot: start.Root, PrevHash: start.EntryHash,
			Entries: chunk, Auths: auths,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed {
			t.Fatalf("chunk %d failed: %v", i, res.Fault)
		}
		if res.Replay.SnapshotsVerified == 0 {
			t.Errorf("chunk %d verified no intermediate snapshots", i)
		}
	}
}

func TestSpotCheckCatchesTamperedState(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{
		Mode: avmm.ModeAVMMNoSig, Seed: 9, SnapshotEveryNs: 5_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20_000_000_000)
	entries := s.Server.Log.All()
	points, err := audit.FindSnapshots(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 3 {
		t.Fatalf("need 3 snapshots, have %d", len(points))
	}
	auths, err := s.ServerAuths()
	if err != nil {
		t.Fatal(err)
	}
	start := points[1]
	end := points[2]
	restored, err := s.Server.Snaps.Materialize(int(start.SnapIdx))
	if err != nil {
		t.Fatal(err)
	}
	// The machine hands the auditor a snapshot with one flipped byte (e.g.
	// a doctored row). Verification against the committed root must fail.
	restored.Mem[40960] ^= 0xFF
	res, _, err := s.Auditor().Audit(audit.AuditRequest{Chunk: &audit.ChunkRequest{
		Node: "db-server", NodeIdx: 0,
		Start: restored, StartRoot: start.Root, PrevHash: start.EntryHash,
		Entries: entries[start.EntryIndex+1 : end.EntryIndex+1], Auths: auths,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatal("tampered snapshot passed spot check")
	}
	if res.Fault.Check != audit.CheckSnapshot {
		t.Errorf("fault check = %v, want snapshot", res.Fault.Check)
	}
}

func TestSnapshotEntriesCarryIncreasingLandmarks(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{
		Mode: avmm.ModeAVMMNoSig, Seed: 2, SnapshotEveryNs: 3_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(15_000_000_000)
	var last uint64
	for _, e := range s.Server.Log.All() {
		if e.Type != tevlog.TypeSnapshot {
			continue
		}
		ev, err := wire.ParseEvent(e.Content)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Landmark.ICount < last {
			t.Fatal("snapshot landmarks not monotonic")
		}
		last = ev.Landmark.ICount
	}
	if last == 0 {
		t.Fatal("no snapshot entries found")
	}
}
