package audit_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/game"
	"repro/internal/logcomp"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/vm"
)

// Equivalence harness for the dist engine's in-process epochs: whatever the
// serial auditor concludes — pass, or a fault with a specific check and
// entry seq — the dist engine must conclude at every worker count, over a
// log in memory and over a streamed Source.

const (
	eqMatchNs = 6_000_000_000
	eqSnapNs  = 2_000_000_000
)

var eqWorkerCounts = []int{1, 2, 4, 8}

// mustAudit runs one audit request and fails the test when the audit
// could not be completed (a fault is a Result, not an error).
func mustAudit(t testing.TB, a *audit.Auditor, req audit.AuditRequest) (*audit.Result, audit.AuditStats) {
	t.Helper()
	res, stats, err := a.Audit(req)
	if err != nil {
		t.Fatalf("audit (%s engine): %v", stats.Engine, err)
	}
	return res, stats
}

// compareVerdicts fails the test when a result diverges from the serial
// auditor's verdict: pass/fail, fault check and entry, and (on passing
// runs) replay and syntactic stats must all match.
func compareVerdicts(t *testing.T, label string, serial, got *audit.Result) {
	t.Helper()
	if got.Passed != serial.Passed {
		t.Errorf("%s: passed=%v, serial passed=%v", label, got.Passed, serial.Passed)
		return
	}
	if serial.Fault != nil {
		if got.Fault == nil {
			t.Errorf("%s: no fault, serial faulted: %v", label, serial.Fault)
			return
		}
		if got.Fault.Check != serial.Fault.Check || got.Fault.EntrySeq != serial.Fault.EntrySeq {
			t.Errorf("%s: fault (%s, seq %d), serial fault (%s, seq %d)",
				label, got.Fault.Check, got.Fault.EntrySeq,
				serial.Fault.Check, serial.Fault.EntrySeq)
		}
	}
	if serial.Passed && got.Replay != serial.Replay {
		t.Errorf("%s: replay stats %+v, serial %+v", label, got.Replay, serial.Replay)
	}
	if got.Syntactic != serial.Syntactic {
		t.Errorf("%s: syntactic stats %+v, serial %+v", label, got.Syntactic, serial.Syntactic)
	}
}

// auditBothWays runs the serial audit of node, then auditAgainst, and fails
// the test on any verdict divergence. It returns the serial result.
func auditBothWays(t *testing.T, s *game.Scenario, node string, label string) *audit.Result {
	t.Helper()
	serial, err := s.AuditNode(sig.NodeID(node))
	if err != nil {
		t.Fatalf("%s: serial audit: %v", label, err)
	}
	auditAgainst(t, s, node, label, serial)
	return serial
}

// auditAgainst runs the dist engine's audits of node — in-process over its
// entries and over its log container streamed as a Source, at every worker
// count, then remote — and fails the test on any divergence from serial,
// its serial verdict.
func auditAgainst(t *testing.T, s *game.Scenario, node, label string, serial *audit.Result) {
	t.Helper()
	for _, workers := range eqWorkerCounts {
		par, dstats, err := s.AuditNodeDist(sig.NodeID(node), audit.DistOptions{EngineOptions: audit.EngineOptions{Workers: workers}})
		if err != nil {
			t.Fatalf("%s: in-process audit (%d workers): %v", label, workers, err)
		}
		compareVerdicts(t, fmt.Sprintf("%s: %d workers", label, workers), serial, par)
		if dstats.Epochs == 0 {
			t.Errorf("%s: in-process audit (%d workers) reports zero epochs", label, workers)
		}

		stream, sstats := streamAudit(t, s, node, workers, 0)
		compareVerdicts(t, fmt.Sprintf("%s: stream %d workers", label, workers), serial, stream)
		if sstats.PeakResidentEntries > sstats.Window {
			t.Errorf("%s: stream %d workers: %d resident entries exceed window %d",
				label, workers, sstats.PeakResidentEntries, sstats.Window)
		}
	}
	// The remote backends must reach the same verdict as well: on a lossy
	// simulated network, and on real loopback TCP workers.
	distBothWays(t, s, node, label, serial)
}

func TestParallelAuditEquivalenceClean(t *testing.T) {
	s, err := game.NewScenario(game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 7, SnapshotEveryNs: eqSnapNs, FakeSignatures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2 * eqMatchNs)
	for _, node := range []string{"player1", "player2"} {
		res := auditBothWays(t, s, node, "clean/"+node)
		if !res.Passed {
			t.Fatalf("clean run: serial audit of %s failed: %v", node, res.Fault)
		}
		if res.Replay.SnapshotsVerified == 0 {
			t.Fatalf("clean run of %s verified no snapshots; epochs were not exercised", node)
		}
	}
}

// TestGameReplayInterpreterAblations pins, on the honest game recording,
// what the interpreter's two fast paths may and may not change. Neither may
// change a verdict: the audit with fusion off and the audit on the Step
// path conclude what the fused sprint concludes, on the serial engine and
// on the dist engine over entries, over a Source and on a simulated
// network. And fusion must engage: replaying the recording retires fewer
// than 0.9 dispatches per instruction — each fused pair saves one dispatch
// and each quad one more — and not one fused op with fusion off. The counts
// are exact for a seed.
func TestGameReplayInterpreterAblations(t *testing.T) {
	s, err := game.NewScenario(game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 7, SnapshotEveryNs: eqSnapNs, FakeSignatures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(eqMatchNs)
	target, auths, a, err := s.AuditInputs("player1")
	if err != nil {
		t.Fatal(err)
	}
	entries := target.Log.Entries()
	materialize := func(k uint32) (*snapshot.Restored, error) { return target.Snaps.Materialize(int(k)) }
	serial, _ := mustAudit(t, a, audit.AuditRequest{Node: target.Node(), NodeIdx: uint32(target.Index()), Entries: entries, Auths: auths})
	if !serial.Passed {
		t.Fatalf("honest recording faulted: %v", serial.Fault)
	}
	// The ablations are Auditor fields; the dist engine must carry them to
	// every replica it opens, whatever its input — its remote workers'
	// through the wire session.
	compressed := logcomp.CompressEntries(entries)
	for label, ablate := range map[string]func(*audit.Auditor){
		"nofusion":    func(ab *audit.Auditor) { ab.DisableFusion = true },
		"nopredecode": func(ab *audit.Auditor) { ab.DisablePredecode = true },
	} {
		ab := *a
		ablate(&ab)
		for _, leg := range []struct {
			name string
			req  audit.AuditRequest
		}{
			{"serial", audit.AuditRequest{Entries: entries}},
			{"entries", audit.AuditRequest{Engine: audit.EngineDist, Entries: entries,
				Options: audit.EngineOptions{Workers: 4, Materialize: materialize}}},
			{"source/1", audit.AuditRequest{Engine: audit.EngineDist, Source: audit.ContainerSource(compressed),
				Options: audit.EngineOptions{Workers: 1, Materialize: materialize}}},
			{"source/4", audit.AuditRequest{Engine: audit.EngineDist, Source: audit.ContainerSource(compressed),
				Options: audit.EngineOptions{Workers: 4, Materialize: materialize}}},
			{"dist/netsim", audit.AuditRequest{Engine: audit.EngineDist, Entries: entries,
				Backend: &audit.NetsimBackend{Net: lossyNet(91), Workers: 3, MaxAttempts: 10},
				Options: audit.EngineOptions{Materialize: materialize}}},
		} {
			req := leg.req
			req.Node, req.NodeIdx, req.Auths = target.Node(), uint32(target.Index()), auths
			got, _ := mustAudit(t, &ab, req)
			compareVerdicts(t, label+"/"+leg.name, serial, got)
		}
	}

	replay := func(disableFusion bool) *vm.Machine {
		rp, err := audit.NewReplayFromImage(target.Node(), a.RefImage, a.RNGSeed)
		if err != nil {
			t.Fatal(err)
		}
		rp.Machine().DisableFusion = disableFusion
		rp.Feed(target.Log.Entries())
		rp.Close()
		rp.Run()
		if f := rp.Fault(); f != nil {
			t.Fatalf("replay (fusion off: %v) faulted: %v", disableFusion, f)
		}
		return rp.Machine()
	}
	fused, plain := replay(false), replay(true)
	if plain.FusedPairs != 0 || plain.FusedQuads != 0 {
		t.Errorf("fusion off retired %d fused pairs and %d quads", plain.FusedPairs, plain.FusedQuads)
	}
	if fused.ICount == 0 || fused.ICount != plain.ICount {
		t.Fatalf("fused replay retired %d instructions, fusion-off replay %d", fused.ICount, plain.ICount)
	}
	dispatches := fused.ICount - fused.FusedPairs - fused.FusedQuads
	t.Logf("%d instructions in %d dispatches (%.3f per instruction), %d quads",
		fused.ICount, dispatches, float64(dispatches)/float64(fused.ICount), fused.FusedQuads)
	if 10*dispatches >= 9*fused.ICount {
		t.Errorf("%d dispatches for %d instructions: at least 0.9 per instruction, fusion is not engaging", dispatches, fused.ICount)
	}
}

// TestAuditEquivalenceStaleCorruptedPage: a machine that corrupts a page of
// its own state which the guest never touches again commits snapshot roots
// over the corrupted contents, while the replica — whose incremental live
// tree keeps that page's hash from its verified seed and never refreshes it
// (the page is never re-dirtied) — derives the honest root. The audit must
// flag the first snapshot committed after the corruption, identically on
// the serial engine and on the dist engine over entries and over a Source.
// This is the scenario a buggy incremental verifier would miss: the
// corruption lives entirely in leaves outside every dirty set the replay
// ever folds.
func TestAuditEquivalenceStaleCorruptedPage(t *testing.T) {
	cfg := game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 99, SnapshotEveryNs: eqSnapNs, FakeSignatures: true,
	}
	const pokeNs = eqMatchNs
	const endNs = 2 * eqMatchNs

	// Dry run: find a page of player1's machine that nothing — no guest
	// fetch, load or store, no host write — touches after the poke point.
	// Corrupting such a page cannot perturb execution (so the dry run's
	// touched set holds for the corrupted run too) and it stays stale for
	// the rest of the match.
	dry, err := game.NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dry.Run(pokeNs)
	mach := dry.Player(1).Machine
	mach.TrackAccess(true)
	floor := mach.DirtyEpoch()
	dry.Run(endNs)
	touched := make(map[int]bool)
	for _, p := range mach.AccessedPages() {
		touched[p] = true
	}
	for _, p := range mach.DirtyPagesSince(floor) {
		touched[p] = true
	}
	stale := -1
	for p := 0; p < mach.NumPages(); p++ {
		if !touched[p] {
			stale = p
			break
		}
	}
	if stale < 0 {
		t.Fatal("every page is touched after the poke point; no stale page to corrupt")
	}

	// Real run: flip a byte of that page mid-match through the host write
	// path, so the monitor's own dirty tracking folds the corrupted page
	// into its next snapshot root — exactly what a machine tampering with
	// cold state looks like to an auditor.
	s, err := game.NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(pokeNs)
	target := s.Player(1)
	snapsBefore := target.Snaps.Count()
	addr := uint32(stale)*vm.PageSize + 17
	if err := target.Machine.WriteBytes(addr, []byte{target.Machine.Mem[addr] ^ 0xA5}); err != nil {
		t.Fatal(err)
	}
	s.Run(endNs)
	if target.Snaps.Count() <= snapsBefore {
		t.Fatal("no snapshot committed after the corruption; the scenario proves nothing")
	}
	// Staleness proof: the corrupted page enters exactly one increment (the
	// first snapshot after the poke) and is never re-captured.
	for k := snapsBefore + 1; k < target.Snaps.Count(); k++ {
		sn, err := target.Snaps.Snapshot(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := sn.MemPages[stale]; ok {
			t.Fatalf("page %d re-captured at snapshot %d; it is not stale", stale, k)
		}
	}

	serial := auditBothWays(t, s, "player1", "stale-corrupt/player1")
	if serial.Passed {
		t.Fatal("corrupted stale page escaped the audit")
	}
	if serial.Fault.Check != audit.CheckSnapshot {
		t.Fatalf("fault check = %v, want %v (detail: %s)", serial.Fault.Check, audit.CheckSnapshot, serial.Fault.Detail)
	}
	if !strings.Contains(serial.Fault.Detail, "committed snapshot root") {
		t.Fatalf("fault is not a replayed-root mismatch: %s", serial.Fault.Detail)
	}
	honest := auditBothWays(t, s, "player2", "stale-corrupt/player2")
	if !honest.Passed {
		t.Errorf("honest player failed audit: %v", honest.Fault)
	}
}

func TestParallelAuditEquivalenceCheats(t *testing.T) {
	if testing.Short() {
		t.Skip("26 matches; skipped in -short")
	}
	for i, cheat := range game.Catalog() {
		t.Run(cheat.Name, func(t *testing.T) {
			s, cheater, honest := recordedCatalog(t, i)
			auditAgainst(t, s, "player1", "cheater/"+cheat.Name, cheater)
			auditAgainst(t, s, "player2", "honest/"+cheat.Name, honest)
			if !honest.Passed {
				t.Errorf("honest player failed audit during %q match: %v", cheat.Name, honest.Fault)
			}
		})
	}
}

// TestMaterializeFaultEveryEngine: a start state the snapshot source cannot
// hand over, or hands over wrong, is the epoch's verdict, and the dist
// engine reaches the same one whatever its input — in-process epochs over
// entries, over a Source with a small window, and a simulated network's
// coordinator, which materializes before dispatch. An in-process worker
// whose previous epoch ended at snapshot k holds a replica there and rolls
// onto the state it fetches when that state's memory is its own; the
// doctored states cover both ways out of the roll (a memory that differs
// boots, and the boot refuses it; blobs that differ are refused by the
// roll's root check) and the one blob the root does not cover, which the
// replica restores from the fetched state, whether rolled or booted. A
// fetch that fails is snapshot k's CheckSnapshot at the snapshot entry's
// seq, whether k alone fails or k and k+2 do; a state that does not hash to
// the committed root is the same check at the same seq; and the Results are
// equal to the byte. At one worker the in-process epochs open in order,
// from entries or a Source, and stop at the fault: they ask for no snapshot
// past k.
func TestMaterializeFaultEveryEngine(t *testing.T) {
	s, err := game.NewScenario(game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 7, SnapshotEveryNs: eqSnapNs, FakeSignatures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2 * eqMatchNs)
	target, auths, a, err := s.AuditInputs("player1")
	if err != nil {
		t.Fatal(err)
	}
	entries := target.Log.Entries()
	points, err := audit.FindSnapshots(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 4 {
		t.Fatalf("%d snapshots: need 4 to fail k and k+2 with an epoch in between", len(points))
	}
	const k = 1
	kAt := -1 // position of snapshot k among the log's snapshot entries
	for i, p := range points {
		if p.SnapIdx == k {
			kAt = i
		}
	}
	if kAt < 0 {
		t.Fatalf("no snapshot %d in the log", k)
	}
	serial, _ := mustAudit(t, a, audit.AuditRequest{Node: target.Node(), NodeIdx: uint32(target.Index()), Entries: entries, Auths: auths})
	compressed := logcomp.CompressEntries(entries)

	// flip returns a copy of b with one bit of byte i flipped.
	flip := func(b []byte, i int) []byte {
		b = slices.Clone(b)
		b[i] ^= 0x10
		return b
	}
	const notCommitted = "does not match committed root"
	doctored := []struct {
		name    string
		failing []uint32
		doctor  func(st *snapshot.Restored) (*snapshot.Restored, error)
		// check and detail are the verdict's check and what its detail
		// starts with (the fetch error) or contains (the others).
		check  audit.Check
		detail string
	}{
		{"unreadable k", []uint32{k}, nil, audit.CheckSnapshot, fmt.Sprintf("materializing snapshot %d: ", k)},
		{"unreadable k and k+2", []uint32{k, k + 2}, nil, audit.CheckSnapshot, fmt.Sprintf("materializing snapshot %d: ", k)},
		{"memory byte flipped", []uint32{k}, func(st *snapshot.Restored) (*snapshot.Restored, error) {
			st.Mem = flip(st.Mem, len(st.Mem)/3)
			return st, nil
		}, audit.CheckSnapshot, notCommitted},
		{"machine blob changed", []uint32{k}, func(st *snapshot.Restored) (*snapshot.Restored, error) {
			st.Machine = flip(st.Machine, 0)
			return st, nil
		}, audit.CheckSnapshot, notCommitted},
		{"auth-device blob changed", []uint32{k}, func(st *snapshot.Restored) (*snapshot.Restored, error) {
			st.AuthDevice = flip(st.AuthDevice, 0)
			return st, nil
		}, audit.CheckSnapshot, notCommitted},
		{"device blob cut short", []uint32{k}, func(st *snapshot.Restored) (*snapshot.Restored, error) {
			// The root covers AuthDevice, not Device: only restoring the
			// device state from it can notice.
			st.Device = st.Device[:len(st.Device)-1]
			return st, nil
		}, audit.CheckSemantic, "restoring device state"},
		{"memory a page short", []uint32{k}, func(st *snapshot.Restored) (*snapshot.Restored, error) {
			st.Mem = st.Mem[:len(st.Mem)-vm.PageSize]
			return st, nil
		}, audit.CheckSnapshot, notCommitted},
	}
	for _, dc := range doctored {
		var calls atomic.Int64
		materialize := func(idx uint32) (*snapshot.Restored, error) {
			calls.Add(1)
			st, err := target.Snaps.Materialize(int(idx))
			if err != nil || !slices.Contains(dc.failing, idx) {
				return st, err
			}
			if dc.doctor == nil {
				return nil, fmt.Errorf("snapshot %d is not in the store", idx)
			}
			cp := *st
			return dc.doctor(&cp)
		}
		legs := []struct {
			name string
			req  audit.AuditRequest
			// inOrder: one worker opening epochs in index order, so the
			// fault stops every later Materialize call.
			inOrder bool
		}{
			{"entries/1", audit.AuditRequest{Engine: audit.EngineDist, Entries: entries,
				Options: audit.EngineOptions{Workers: 1}}, true},
			{"entries/4", audit.AuditRequest{Engine: audit.EngineDist, Entries: entries,
				Options: audit.EngineOptions{Workers: 4}}, false},
			{"source/1", audit.AuditRequest{Engine: audit.EngineDist, Source: audit.ContainerSource(compressed),
				Options: audit.EngineOptions{Workers: 1, Window: 16}}, true},
			{"source/4", audit.AuditRequest{Engine: audit.EngineDist, Source: audit.ContainerSource(compressed),
				Options: audit.EngineOptions{Workers: 4, Window: 16}}, false},
			{"netsim", audit.AuditRequest{Engine: audit.EngineDist, Entries: entries,
				Backend: &audit.NetsimBackend{Net: lossyNet(13), Workers: 3, MaxAttempts: 10}}, false},
		}
		var first *audit.Result
		for _, leg := range legs {
			label := fmt.Sprintf("%s: %s", dc.name, leg.name)
			req := leg.req
			req.Node, req.NodeIdx, req.Auths = target.Node(), uint32(target.Index()), auths
			req.Options.Materialize = materialize
			calls.Store(0)
			res, _ := mustAudit(t, a, req)
			if first == nil {
				first = res
				f := res.Fault
				switch {
				case res.Passed || f == nil:
					t.Fatalf("%s: passed with a start state that is not snapshot %d's", label, k)
				case f.Check != dc.check:
					t.Errorf("%s: fault (%s, seq %d: %s), want %s", label, f.Check, f.EntrySeq, f.Detail, dc.check)
				case f.Check == audit.CheckSnapshot && f.EntrySeq != points[kAt].Seq:
					t.Errorf("%s: fault at seq %d, want snapshot %d's entry, seq %d", label, f.EntrySeq, k, points[kAt].Seq)
				case dc.doctor == nil && !strings.HasPrefix(f.Detail, dc.detail):
					t.Errorf("%s: fault detail %q names another snapshot", label, f.Detail)
				case dc.doctor != nil && !strings.Contains(f.Detail, dc.detail):
					t.Errorf("%s: fault detail %q, want it to say %q", label, f.Detail, dc.detail)
				}
				if res.Syntactic != serial.Syntactic {
					t.Errorf("%s: syntactic stats %+v, serial %+v", label, res.Syntactic, serial.Syntactic)
				}
			} else if !reflect.DeepEqual(res, first) {
				t.Errorf("%s: Result %+v (fault %+v), %s's %+v (fault %+v)", label, res, res.Fault, legs[0].name, first, first.Fault)
			}
			// Epochs 1..kAt+1 start at snapshot entries 0..kAt.
			if n := calls.Load(); leg.inOrder && n != int64(kAt+1) {
				t.Errorf("%s: %d Materialize calls, want %d: an epoch past the fault was opened", label, n, kAt+1)
			}
		}
	}
}

// TestMaterializeSkippedPastChainFault: a log with an entry missing from
// an epoch's middle breaks its chain there, a log fault on every engine.
// The in-process epochs over a log in memory replay the epochs that
// closed before the break, but never open the epoch it cuts short; a
// remote backend is sent no job at all.
func TestMaterializeSkippedPastChainFault(t *testing.T) {
	s, err := game.NewScenario(game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 7, SnapshotEveryNs: eqSnapNs, FakeSignatures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2 * eqMatchNs)
	target, auths, a, err := s.AuditInputs("player1")
	if err != nil {
		t.Fatal(err)
	}
	entries := target.Log.Entries()
	points, err := audit.FindSnapshots(entries)
	if err != nil {
		t.Fatal(err)
	}
	// Epochs 1..m start at snapshot entries 0..m-1 and close before the
	// gap; epoch m+1, from snapshot entry m, holds it.
	const m = 2
	if len(points) < m+2 {
		t.Fatalf("%d snapshots: need %d", len(points), m+2)
	}
	gap := (points[m].EntryIndex + points[m+1].EntryIndex) / 2
	if gap <= points[m].EntryIndex+1 {
		t.Fatalf("epoch %d has no middle entry", m+1)
	}
	broken := slices.Delete(slices.Clone(entries), gap, gap+1)
	serial, _ := mustAudit(t, a, audit.AuditRequest{Node: target.Node(), NodeIdx: uint32(target.Index()), Entries: broken, Auths: auths})
	if serial.Passed || serial.Fault.Check != audit.CheckLog {
		t.Fatalf("serial audit of a log with a gap: passed=%v fault %+v, want a log fault", serial.Passed, serial.Fault)
	}

	var calls atomic.Int64
	materialize := func(idx uint32) (*snapshot.Restored, error) {
		calls.Add(1)
		return target.Snaps.Materialize(int(idx))
	}
	legs := []struct {
		name  string
		req   audit.AuditRequest
		calls int64
	}{
		{"entries/1", audit.AuditRequest{Engine: audit.EngineDist, Options: audit.EngineOptions{Workers: 1}}, m},
		{"entries/4", audit.AuditRequest{Engine: audit.EngineDist, Options: audit.EngineOptions{Workers: 4}}, m},
		{"netsim", audit.AuditRequest{Engine: audit.EngineDist,
			Backend: &audit.NetsimBackend{Net: lossyNet(13), Workers: 3, MaxAttempts: 10}}, 0},
	}
	for _, leg := range legs {
		req := leg.req
		req.Node, req.NodeIdx, req.Entries, req.Auths = target.Node(), uint32(target.Index()), broken, auths
		req.Options.Materialize = materialize
		calls.Store(0)
		res, _ := mustAudit(t, a, req)
		compareVerdicts(t, leg.name, serial, res)
		if res.Fault != nil && res.Fault.Detail != serial.Fault.Detail {
			t.Errorf("%s: fault detail %q, serial %q", leg.name, res.Fault.Detail, serial.Fault.Detail)
		}
		if n := calls.Load(); n != leg.calls {
			t.Errorf("%s: %d Materialize calls, want %d", leg.name, n, leg.calls)
		}
	}
}
