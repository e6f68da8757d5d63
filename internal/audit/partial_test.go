package audit_test

import (
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/dbapp"
	"repro/internal/vm"
)

// corruptServerMidRun runs the minisql workload, and between two snapshots
// patches one instruction of the running server in memory — the in-memory
// modification a mid-game cheat install (or a buffer-overflow intrusion)
// performs. Returns the scenario and the snapshot points bracketing the
// patch.
func corruptServerMidRun(t *testing.T) (*dbapp.Scenario, []audit.SnapshotPoint) {
	t.Helper()
	// Patched past snapshot 1, before snapshot 2; run through snapshots 2 and 3.
	return corruptServerAt(t, 5_000_000_000, 7_500_000_000, 20_000_000_000)
}

// corruptServerAt is corruptServerMidRun with the snapshot period, the time
// of the patch and the length of the run chosen by the caller.
func corruptServerAt(t *testing.T, snapEveryNs, patchAtNs, untilNs uint64) (*dbapp.Scenario, []audit.SnapshotPoint) {
	t.Helper()
	s, err := dbapp.NewScenario(dbapp.ScenarioConfig{
		Mode: avmm.ModeAVMMNoSig, Seed: 31, SnapshotEveryNs: snapEveryNs,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(patchAtNs)

	// Find the MOVI loading the reply tag 'R' in the server's code and flip
	// it to 'X': every subsequent reply differs from what the reference
	// image would send.
	img, err := dbapp.BuildServer()
	if err != nil {
		t.Fatal(err)
	}
	patched := false
	for off := 0; off+vm.InstrSize <= len(img.Code); off += vm.InstrSize {
		ins := vm.Decode(img.Code[off:])
		if ins.Op == vm.OpMovi && ins.Imm == 'R' {
			addr := uint32(vm.CodeBase + off + 4) // low immediate byte
			if err := s.Server.Machine.WriteBytes(addr, []byte{'X'}); err != nil {
				t.Fatal(err)
			}
			patched = true
			break
		}
	}
	if !patched {
		t.Fatal("could not locate the reply-tag instruction to patch")
	}
	s.Run(untilNs)

	entries := s.Server.Log.All()
	points, err := audit.FindSnapshots(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 3 {
		t.Fatalf("need 3 snapshots, have %d", len(points))
	}
	return s, points
}

func TestPartialEvidenceReproducesFault(t *testing.T) {
	s, points := corruptServerMidRun(t)
	entries := s.Server.Log.All()
	auths, err := s.ServerAuths()
	if err != nil {
		t.Fatal(err)
	}
	a := s.Auditor()

	// The chunk containing the patch diverges from the honestly-committed
	// pre-patch snapshot: the patch landed at 7.5 virtual seconds, between
	// snapshot 0 (5 s) and snapshot 1 (10 s).
	start, end := points[0], points[1]
	restored, err := s.Server.Snaps.Materialize(int(start.SnapIdx))
	if err != nil {
		t.Fatal(err)
	}
	chunk := entries[start.EntryIndex+1 : end.EntryIndex+1]
	res, _ := mustAudit(t, a, audit.AuditRequest{Chunk: &audit.ChunkRequest{
		Node: "db-server", NodeIdx: 0,
		Start: restored, StartRoot: start.Root, PrevHash: start.EntryHash,
		Entries: chunk, Auths: auths,
	}})
	if res.Passed {
		t.Fatal("in-memory code patch not detected by chunk audit")
	}
	if res.Fault.Check != audit.CheckSemantic && res.Fault.Check != audit.CheckSnapshot {
		t.Fatalf("unexpected fault class: %v", res.Fault.Check)
	}

	// Build full chunk evidence, then minimize it to the accessed pages.
	full := &audit.Evidence{
		Accused: "db-server", AccusedIdx: 0, Reason: res.Fault.Detail,
		Entries: chunk, Auths: auths,
		Start: restored, StartRoot: start.Root, PrevHash: start.EntryHash,
		RNGSeed: 31 + 500,
	}
	min, err := a.MinimizeEvidence(full)
	if err != nil {
		t.Fatal(err)
	}
	if min.Partial == nil || min.Start != nil {
		t.Fatal("minimized evidence still carries the full snapshot")
	}
	provided := len(min.Partial.Pages)
	total := len(restored.Mem) / vm.PageSize
	if provided >= total {
		t.Fatalf("minimization kept all %d pages", total)
	}
	t.Logf("minimized evidence: %d of %d pages, %d bytes vs %d bytes full state",
		provided, total, min.Partial.Bytes(), len(restored.Mem)+len(restored.Machine)+len(restored.Device))

	// A third party verifies the minimized bundle with its own auditor.
	verdict, err := audit.VerifyEvidence(min, audit.VerifierConfig{
		Keys: s.Keys, RefImage: nil, TamperEvident: true, VerifySignatures: false,
	})
	if err != nil {
		t.Fatalf("third party rejected minimized evidence: %v", err)
	}
	if verdict.Passed {
		t.Fatal("minimized evidence did not demonstrate the fault")
	}
}

func TestPartialEvidenceTamperingDetected(t *testing.T) {
	s, points := corruptServerMidRun(t)
	entries := s.Server.Log.All()
	auths, err := s.ServerAuths()
	if err != nil {
		t.Fatal(err)
	}
	a := s.Auditor()
	start, end := points[0], points[1]
	restored, err := s.Server.Snaps.Materialize(int(start.SnapIdx))
	if err != nil {
		t.Fatal(err)
	}
	chunk := entries[start.EntryIndex+1 : end.EntryIndex+1]
	full := &audit.Evidence{
		Accused: "db-server", AccusedIdx: 0,
		Entries: chunk, Auths: auths,
		Start: restored, StartRoot: start.Root, PrevHash: start.EntryHash,
		RNGSeed: 31 + 500,
	}
	min, err := a.MinimizeEvidence(full)
	if err != nil {
		t.Fatal(err)
	}

	// Tampering with a provided page breaks its inclusion proof.
	var anyPage int
	for p := range min.Partial.Pages {
		anyPage = p
		break
	}
	min.Partial.Pages[anyPage][7] ^= 1
	if _, err := audit.VerifyEvidence(min, audit.VerifierConfig{
		Keys: s.Keys, TamperEvident: true,
	}); err == nil || !strings.Contains(err.Error(), "authenticate") {
		t.Fatalf("tampered page accepted: %v", err)
	}
	min.Partial.Pages[anyPage][7] ^= 1

	// Omitting a page the replay needs makes the bundle inconclusive — a
	// malicious auditor cannot frame an honest machine by starving the
	// replica of state.
	delete(min.Partial.Pages, anyPage)
	delete(min.Partial.Proofs, anyPage)
	if _, err := audit.VerifyEvidence(min, audit.VerifierConfig{
		Keys: s.Keys, TamperEvident: true,
	}); err == nil || !strings.Contains(err.Error(), "inconclusive") {
		t.Fatalf("starved bundle not rejected as inconclusive: %v", err)
	}
}

func TestPartialAuditOfHonestChunkPasses(t *testing.T) {
	// Partial states also serve honest spot checks: download only the pages
	// the replay touches (§4.4), at a fraction of the full-state transfer.
	s, err := dbapp.NewScenario(dbapp.ScenarioConfig{
		Mode: avmm.ModeAVMMNoSig, Seed: 8, SnapshotEveryNs: 5_000_000_000,
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
		t.Fatal("need 3 snapshots")
	}
	auths, err := s.ServerAuths()
	if err != nil {
		t.Fatal(err)
	}
	a := s.Auditor()
	start, end := points[1], points[2]
	restored, err := s.Server.Snaps.Materialize(int(start.SnapIdx))
	if err != nil {
		t.Fatal(err)
	}
	chunk := entries[start.EntryIndex+1 : end.EntryIndex+1]
	ev := &audit.Evidence{
		Accused: "db-server", AccusedIdx: 0, Entries: chunk, Auths: auths,
		Start: restored, StartRoot: start.Root, PrevHash: start.EntryHash,
		RNGSeed: 8 + 500,
	}
	min, err := a.MinimizeEvidence(ev)
	if err != nil {
		t.Fatal(err)
	}
	res, err := audit.VerifyEvidence(min, audit.VerifierConfig{
		Keys: s.Keys, TamperEvident: true,
	})
	if err == nil {
		t.Fatal("honest chunk verified as evidence of fault")
	}
	if res == nil || !res.Passed {
		t.Fatalf("partial replay of honest chunk did not pass: %v", res)
	}
	if min.Partial.Bytes() >= len(restored.Mem) {
		t.Fatalf("partial transfer (%d bytes) not below full state (%d bytes)",
			min.Partial.Bytes(), len(restored.Mem))
	}
}
