package audit_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/game"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/snapshot"
)

// Equivalence harness for the archive-backed audit paths: whatever the
// in-memory serial auditor concludes, auditing the same recording through
// a disk archive — serial over ReadLog, streaming over an EntrySource,
// distributed over archive-materialized states — must conclude
// byte-identically. A corrupted archive must surface as a fault, never as
// a different verdict.

// writeNodeArchive archives node's recording into a fresh directory and
// reopens it cold, so every subsequent read comes off disk through the
// manifest the reopen replayed.
func writeNodeArchive(t *testing.T, s *game.Scenario, node string) (string, *archive.Archive) {
	t.Helper()
	target, _, _, err := s.AuditInputs(sig.NodeID(node))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	arc, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sf *snapshot.StoreFile
	if target.Snaps != nil && target.Snaps.Count() > 0 {
		f := target.Snaps.File()
		sf = &f
	}
	if err := arc.WriteRecording(node, target.Log.All(), sf); err != nil {
		t.Fatal(err)
	}
	if err := arc.Close(); err != nil {
		t.Fatal(err)
	}
	arc2, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { arc2.Close() })
	return dir, arc2
}

// archiveClosures builds the Materialize/DeltaSource engine options over
// the archive's increment source, as cmd/avm-audit wires them.
func archiveClosures(t *testing.T, arc *archive.Archive, node string) (func(uint32) (*snapshot.Restored, error), func(uint32) (*snapshot.Delta, error)) {
	t.Helper()
	n, err := arc.Snapshots(node)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		return nil, nil
	}
	src, err := arc.IncrementSource(node)
	if err != nil {
		t.Fatal(err)
	}
	materialize := func(snapIdx uint32) (*snapshot.Restored, error) {
		return snapshot.MaterializeFrom(src, int(snapIdx))
	}
	deltaSrc := func(k uint32) (*snapshot.Delta, error) {
		return snapshot.DeltaFrom(src, int(k))
	}
	return materialize, deltaSrc
}

// auditViaArchive audits node through the archive on the serial, stream
// and dist engines and fails the test on any divergence from serial.
func auditViaArchive(t *testing.T, s *game.Scenario, node, label string, serial *audit.Result) {
	t.Helper()
	_, arc := writeNodeArchive(t, s, node)
	target, auths, a, err := s.AuditInputs(sig.NodeID(node))
	if err != nil {
		t.Fatal(err)
	}
	nodeIdx := uint32(target.Index())
	materialize, deltaSrc := archiveClosures(t, arc, node)

	entries, err := arc.ReadLog(node)
	if err != nil {
		t.Fatalf("%s: ReadLog: %v", label, err)
	}
	res, _, err := a.Audit(audit.AuditRequest{
		Node: sig.NodeID(node), NodeIdx: nodeIdx,
		Engine: audit.EngineSerial, Entries: entries, Auths: auths,
	})
	if err != nil {
		t.Fatalf("%s: archive serial: %v", label, err)
	}
	compareVerdicts(t, label+": archive serial", serial, res)

	src, err := arc.EntrySource(node)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err = a.Audit(audit.AuditRequest{
		Node: sig.NodeID(node), NodeIdx: nodeIdx,
		Engine: audit.EngineDist, Source: src, Auths: auths,
		Options: audit.EngineOptions{Workers: 2, Materialize: materialize},
	})
	if err != nil {
		t.Fatalf("%s: archive stream: %v", label, err)
	}
	compareVerdicts(t, label+": archive stream", serial, res)

	res, _, err = a.Audit(audit.AuditRequest{
		Node: sig.NodeID(node), NodeIdx: nodeIdx,
		Engine: audit.EngineDist, Entries: entries, Auths: auths,
		Options: audit.EngineOptions{Workers: 2, Materialize: materialize, DeltaSource: deltaSrc},
	})
	if err != nil {
		t.Fatalf("%s: archive dist: %v", label, err)
	}
	compareVerdicts(t, label+": archive dist", serial, res)
}

func TestArchiveAuditEquivalenceClean(t *testing.T) {
	s, err := game.NewScenario(game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 7, SnapshotEveryNs: eqSnapNs, FakeSignatures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2 * eqMatchNs)
	for _, node := range []string{"player1", "player2"} {
		serial, err := s.AuditNode(sig.NodeID(node))
		if err != nil {
			t.Fatal(err)
		}
		if !serial.Passed {
			t.Fatalf("clean run: serial audit of %s failed: %v", node, serial.Fault)
		}
		auditViaArchive(t, s, node, "clean/"+node, serial)
	}
}

func TestArchiveAuditEquivalenceCheats(t *testing.T) {
	if testing.Short() {
		t.Skip("26 matches; skipped in -short")
	}
	for i, cheat := range game.Catalog() {
		t.Run(cheat.Name, func(t *testing.T) {
			s, serial, honest := recordedCatalog(t, i)
			auditViaArchive(t, s, "player1", "cheater/"+cheat.Name, serial)
			if !honest.Passed {
				t.Errorf("honest player failed audit during %q match: %v", cheat.Name, honest.Fault)
			}
			auditViaArchive(t, s, "player2", "honest/"+cheat.Name, honest)
		})
	}
}

// TestArchiveDistSource: the dist engine reads an archive's EntrySource
// with a backend as it does in-process, cutting the stream into the jobs
// it ships to a (simulated) fleet. A clean recording and a cheat reach the
// serial verdict; a byte flipped in an archived entry segment is the
// CheckLog fault the in-process audit reports over that source, text and
// all.
func TestArchiveDistSource(t *testing.T) {
	aimbot, err := game.CatalogByName("aimbot")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		cheat *game.Cheat
	}{{"clean", nil}, {"aimbot", aimbot}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := game.ScenarioConfig{
				Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
				Seed: 7, SnapshotEveryNs: eqSnapNs, FakeSignatures: true,
			}
			if tc.cheat != nil {
				cfg.CheatPlayer, cfg.Cheat = 1, tc.cheat
			}
			s, err := game.NewScenario(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Run(2 * eqMatchNs)
			node := "player1"
			serial, err := s.AuditNode(sig.NodeID(node))
			if err != nil {
				t.Fatal(err)
			}
			if serial.Passed != (tc.cheat == nil) {
				t.Fatalf("serial audit: passed %v, fault %v", serial.Passed, serial.Fault)
			}
			target, auths, a, err := s.AuditInputs(sig.NodeID(node))
			if err != nil {
				t.Fatal(err)
			}
			// run audits the archive's Source on the dist engine, on backend
			// or, when it is nil, in-process.
			run := func(arc *archive.Archive, backend audit.EpochBackend) (*audit.Result, audit.AuditStats) {
				t.Helper()
				src, err := arc.EntrySource(node)
				if err != nil {
					t.Fatal(err)
				}
				materialize, _ := archiveClosures(t, arc, node)
				req := audit.AuditRequest{
					Node: sig.NodeID(node), NodeIdx: uint32(target.Index()),
					Engine: audit.EngineDist, Source: src, Auths: auths, Backend: backend,
					Options: audit.EngineOptions{Workers: 2, Materialize: materialize},
				}
				res, stats, err := a.Audit(req)
				if err != nil {
					t.Fatalf("dist over the archive, backend %T: %v", backend, err)
				}
				return res, stats
			}

			dir, arc := writeNodeArchive(t, s, node)
			dist, stats := run(arc, reliableNetsim())
			if !reflect.DeepEqual(dist, serial) {
				t.Fatalf("dist over the archive: %+v (fault %v), serial %+v (fault %v)", dist, dist.Fault, serial, serial.Fault)
			}
			if stats.Dist.Epochs < 2 || stats.Dist.Dispatched == 0 {
				t.Fatalf("dist over the archive shipped %d of %d epochs", stats.Dist.Dispatched, stats.Dist.Epochs)
			}
			arc.Close()

			// The last tile byte sits inside the final epoch's entry segment.
			tile := filepath.Join(dir, node+archive.TileSuffix)
			raw, err := os.ReadFile(tile)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-1] ^= 0xFF
			if err := os.WriteFile(tile, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			corrupt, err := archive.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer corrupt.Close()
			stream, _ := run(corrupt, nil)
			dist, _ = run(corrupt, reliableNetsim())
			if stream.Passed || stream.Fault.Check != audit.CheckLog {
				t.Fatalf("stream over a corrupt entry segment: passed %v, fault %+v; want a %s fault", stream.Passed, stream.Fault, audit.CheckLog)
			}
			if !reflect.DeepEqual(dist, stream) {
				t.Fatalf("dist over a corrupt entry segment: fault %+v, stream %+v", dist.Fault, stream.Fault)
			}
		})
	}
}

// increment0Spots walks the snapshot payload a tile starts with (the layout
// of docs/ARCHIVE_FORMAT.md §4.2) and returns one offset in each part of it,
// by name: the bytes a tamper table flips a bit of.
func increment0Spots(t *testing.T, tile []byte) map[string]int {
	t.Helper()
	at := 1 // past the version byte
	uv := func() int {
		v, n := binary.Uvarint(tile[at:])
		if n <= 0 {
			t.Fatalf("tile does not start with a snapshot payload: bad varint at %d", at)
		}
		at += n
		return int(v)
	}
	for range 6 { // index, landmark (3), icount, incrementBytes
		uv()
	}
	regs := 0
	for i := range 3 { // machine, device, authenticated device
		n := uv()
		if i == 0 {
			regs = at
		}
		at += n
	}
	var index, length, page int
	for range uv() {
		index = at
		uv()
		length = at
		n := uv()
		page = at + n/2
		at += n
	}
	proof := at
	uv() // proof.leaves
	nIdx := uv()
	for range nIdx {
		uv()
	}
	at += 32 * nIdx
	at += 32 * uv() // siblings
	at += 64        // root, memRoot
	return map[string]int{
		"a page byte": page, "a page length": length, "a page index": index,
		"the register blob": regs, "the proof": proof,
		"the version byte": 0, "a trailing byte": at - 1,
	}
}

// TestArchiveCorruptionSurfacesAsFault: flipping archived bytes must
// surface as the tampered-input fault class — CheckLog for an entry
// segment, CheckSnapshot for a snapshot increment — never as a pass or a
// silent divergence.
func TestArchiveCorruptionSurfacesAsFault(t *testing.T) {
	s, err := game.NewScenario(game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 7, SnapshotEveryNs: eqSnapNs, FakeSignatures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2 * eqMatchNs)
	node := "player1"
	dir, arc := writeNodeArchive(t, s, node)
	entries, err := arc.ReadLog(node)
	if err != nil {
		t.Fatal(err)
	}
	arc.Close()
	target, auths, a, err := s.AuditInputs(sig.NodeID(node))
	if err != nil {
		t.Fatal(err)
	}
	nodeIdx := uint32(target.Index())

	tile := filepath.Join(dir, node+archive.TileSuffix)
	raw, err := os.ReadFile(tile)
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot increments precede epoch segments in the tile: increment 0 is
	// its first payload. A bit flipped in any part of increment 0's layout —
	// the version byte turned from 2 to 1 included — is the version-1 read
	// error, a payload hash mismatch. The dist engine in-process over the
	// Source and over a NetsimBackend, whose starts are materialized through
	// it, report a CheckSnapshot fault; the spot check returns the error of
	// the source that could not hand over a start state.
	want := "archive: " + node + " snapshot 0 payload hash mismatch (corrupt or tampered segment)"
	for what, at := range increment0Spots(t, raw) {
		corrupt := append([]byte(nil), raw...)
		flip := byte(0x01)
		if what == "the version byte" {
			flip = archive.SnapshotPayloadVersion ^ 1
		}
		corrupt[at] ^= flip
		if err := os.WriteFile(tile, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		arc2, err := archive.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		materialize, _ := archiveClosures(t, arc2, node)
		if _, err := materialize(0); err == nil || err.Error() != want {
			t.Fatalf("%s: materializing snapshot 0: %v, want %q", what, err, want)
		}
		src, err := arc2.EntrySource(node)
		if err != nil {
			t.Fatal(err)
		}
		stream, _, err := a.Audit(audit.AuditRequest{
			Node: sig.NodeID(node), NodeIdx: nodeIdx,
			Engine: audit.EngineDist, Source: src, Auths: auths,
			Options: audit.EngineOptions{Workers: 2, Materialize: materialize},
		})
		if err != nil {
			t.Fatal(err)
		}
		dist, _, err := a.Audit(audit.AuditRequest{
			Node: sig.NodeID(node), NodeIdx: nodeIdx,
			Engine: audit.EngineDist, Entries: entries, Auths: auths,
			Backend: &audit.NetsimBackend{Net: netsim.New(netsim.Config{BaseLatencyNs: 96_000, Seed: 5}), Workers: 2, MaxAttempts: 10},
			Options: audit.EngineOptions{Workers: 2, Materialize: materialize},
		})
		if err != nil {
			t.Fatal(err)
		}
		for engine, res := range map[string]*audit.Result{"stream": stream, "dist over netsim": dist} {
			if res.Passed || res.Fault.Check != audit.CheckSnapshot || !strings.Contains(res.Fault.Detail, "payload hash mismatch") {
				t.Fatalf("%s: %s audit over a corrupt snapshot increment: passed %v, fault %+v; want a %s fault", what, engine, res.Passed, res.Fault, audit.CheckSnapshot)
			}
		}
		disk := &audit.ArchiveSource{Arc: arc2, Node: sig.NodeID(node), NodeIdx: nodeIdx, Auths: auths}
		if _, err := a.SpotCheckParallel(disk, audit.RecentFirst{K: 1 << 30}, 2); err == nil || err.Error() != want {
			t.Fatalf("%s: spot check over a corrupt snapshot increment: %v, want %q", what, err, want)
		}
		arc2.Close()
	}

	// The last tile byte sits inside the final epoch's entry segment: the
	// stream source errors there and the verdict is a log fault.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)-1] ^= 0xFF
	if err := os.WriteFile(tile, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	arc3, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer arc3.Close()
	if _, err := arc3.ReadLog(node); err == nil {
		t.Fatal("ReadLog over a corrupt epoch segment succeeded")
	}
	materialize, _ := archiveClosures(t, arc3, node)
	src, err := arc3.EntrySource(node)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := a.Audit(audit.AuditRequest{
		Node: sig.NodeID(node), NodeIdx: nodeIdx,
		Engine: audit.EngineDist, Source: src, Auths: auths,
		Options: audit.EngineOptions{Workers: 2, Materialize: materialize},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatal("audit over a corrupt entry segment passed")
	}
	if res.Fault.Check != audit.CheckLog {
		t.Fatalf("fault check = %v, want %v (detail: %s)", res.Fault.Check, audit.CheckLog, res.Fault.Detail)
	}
}

// TestArchiveSpotCheckSource: the disk-backed SegmentSource must agree
// with the in-memory MonitorSource on segment geometry and outcomes, and
// must refuse to serve chunks from a corrupted window.
func TestArchiveSpotCheckSource(t *testing.T) {
	s, err := game.NewScenario(game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 7, SnapshotEveryNs: eqSnapNs, FakeSignatures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2 * eqMatchNs)
	node := "player1"
	target, auths, a, err := s.AuditInputs(sig.NodeID(node))
	if err != nil {
		t.Fatal(err)
	}
	dir, arc := writeNodeArchive(t, s, node)

	mem := &audit.MonitorSource{
		Node: sig.NodeID(node), NodeIdx: uint32(target.Index()),
		Entries: target.Log.All(), Auths: auths,
		Increments: target.Snaps,
	}
	disk := &audit.ArchiveSource{
		Arc: arc, Node: sig.NodeID(node), NodeIdx: uint32(target.Index()), Auths: auths,
	}
	memPts, err := mem.Segments()
	if err != nil {
		t.Fatal(err)
	}
	diskPts, err := disk.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(memPts) != len(diskPts) {
		t.Fatalf("segment points: disk %d, memory %d", len(diskPts), len(memPts))
	}
	for i := range memPts {
		if memPts[i] != diskPts[i] {
			t.Fatalf("segment point %d: disk %+v, memory %+v", i, diskPts[i], memPts[i])
		}
	}
	policy := audit.RecentFirst{K: 1 << 30}
	want, err := a.SpotCheckParallel(mem, policy, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.SpotCheckParallel(disk, policy, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.SegmentsTotal != want.SegmentsTotal || got.SegmentsChecked != want.SegmentsChecked || got.FaultFound != want.FaultFound {
		t.Fatalf("spot check outcome: disk %+v, memory %+v", got, want)
	}
	if got.SegmentsChecked == 0 {
		t.Fatal("no segments spot-checked; the recording has no snapshots")
	}

	// Corrupt epoch 1 — the segment chunk 0 reads — so a spot check over
	// it must error out, not audit garbage. Epoch segments end the tile:
	// epoch 1 starts at fileSize - sum(bytes of epochs 1..n-1).
	nEpochs, err := arc.Epochs(node)
	if err != nil {
		t.Fatal(err)
	}
	var fromEnd int64
	for k := 1; k < nEpochs; k++ {
		info, err := arc.EpochInfo(node, k)
		if err != nil {
			t.Fatal(err)
		}
		fromEnd += info.Bytes
	}
	arc.Close()
	tile := filepath.Join(dir, node+archive.TileSuffix)
	raw, err := os.ReadFile(tile)
	if err != nil {
		t.Fatal(err)
	}
	raw[int64(len(raw))-fromEnd] ^= 0xFF
	if err := os.WriteFile(tile, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	arcC, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer arcC.Close()
	diskC := &audit.ArchiveSource{
		Arc: arcC, Node: sig.NodeID(node), NodeIdx: uint32(target.Index()), Auths: auths,
	}
	if _, err := a.SpotCheckParallel(diskC, policy, 2); err == nil {
		t.Fatal("spot check over a corrupt archive succeeded")
	}
}

// TestArchiveGoldenFormat pins the archive's on-disk format. Both golden
// directories hold coordScenario's player1, archived by WriteRecording:
// testdata/golden_archive was written with snapshot payload version 1 (by
// cbc8a72, before the move to internal/wal) and testdata/golden_archive_v2
// with version 2, the version every writer writes now. An archive of the
// same recording written now must be the v2 golden's bytes; the v1 golden
// stays readable — the same tile but for each increment's version byte, the
// same log root, the serial verdict through the dist engine's Source, and
// every snapshot's committed root from a replica's boot.
func TestArchiveGoldenFormat(t *testing.T) {
	s := coordScenario(t, "")
	serial, err := s.AuditNode("player1")
	if err != nil {
		t.Fatal(err)
	}
	freshDir, fresh := writeNodeArchive(t, s, "player1")
	freshRoot, err := fresh.LogRoot("player1")
	if err != nil {
		t.Fatal(err)
	}
	increments, err := fresh.Snapshots("player1")
	if err != nil {
		t.Fatal(err)
	}
	target, auths, a, err := s.AuditInputs("player1")
	if err != nil {
		t.Fatal(err)
	}
	tileName := "player1" + archive.TileSuffix

	for _, g := range []struct {
		dir     string
		version byte
	}{{"golden_archive", 1}, {"golden_archive_v2", archive.SnapshotPayloadVersion}} {
		goldenDir := t.TempDir() // Open may write (compaction); keep testdata pristine
		for _, name := range []string{archive.ManifestName, tileName} {
			want, err := os.ReadFile(filepath.Join("testdata", g.dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(goldenDir, name), want, 0o644); err != nil {
				t.Fatal(err)
			}
			got, _ := os.ReadFile(filepath.Join(freshDir, name))
			switch {
			// The tile's epoch payloads are compress/flate output; should a
			// Go release change the compressor, these comparisons (and only
			// these) have to be re-based on golden directories written by
			// that release.
			case g.version == archive.SnapshotPayloadVersion && !bytes.Equal(got, want):
				t.Errorf("%s/%s: the same recording archives to %d bytes that differ from the golden %d", g.dir, name, len(got), len(want))
			case g.version != archive.SnapshotPayloadVersion && name == tileName:
				// Version 1 differs from version 2 in each increment's
				// version byte and nowhere else in the tile.
				diff := 0
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						diff++
						if want[i] != g.version || got[i] != archive.SnapshotPayloadVersion {
							t.Errorf("%s: tile byte %d is %#x, fresh %#x; only version bytes may differ", g.dir, i, want[i], got[i])
						}
					}
				}
				if len(got) != len(want) || diff != increments {
					t.Errorf("%s: tile of %d bytes differs from the fresh %d in %d bytes, want the %d version bytes", g.dir, len(want), len(got), diff, increments)
				}
			}
		}
		golden, err := archive.Open(goldenDir)
		if err != nil {
			t.Fatal(err)
		}
		defer golden.Close()
		if got := golden.Nodes(); len(got) != 1 || got[0] != "player1" {
			t.Fatalf("%s holds nodes %v, want [player1]", g.dir, got)
		}
		goldenRoot, err := golden.LogRoot("player1")
		if err != nil {
			t.Fatal(err)
		}
		if goldenRoot != freshRoot {
			t.Fatalf("%s: log root %x, fresh archive's %x", g.dir, goldenRoot, freshRoot)
		}
		for _, name := range []string{archive.ManifestName, tileName} {
			before, _ := os.ReadFile(filepath.Join("testdata", g.dir, name))
			if after, _ := os.ReadFile(filepath.Join(goldenDir, name)); !bytes.Equal(after, before) {
				t.Fatalf("opening %s rewrote %s", g.dir, name)
			}
		}

		materialize, _ := archiveClosures(t, golden, "player1")
		src, err := golden.EntrySource("player1")
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := a.Audit(audit.AuditRequest{
			Node: "player1", NodeIdx: uint32(target.Index()),
			Engine: audit.EngineDist, Source: src, Auths: auths,
			Options: audit.EngineOptions{Workers: 2, Materialize: materialize},
		})
		if err != nil {
			t.Fatal(err)
		}
		compareVerdicts(t, g.dir+" stream", serial, res)

		// A replica's boot folds and hashes in one pass, on the leaves the
		// read computed for version 2 and on its own hashes for version 1.
		incs, err := golden.IncrementSource("player1")
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < increments; k++ {
			var lh snapshot.LiveStateHasher
			inc, err := lh.SeedFold(incs, k, make([]byte, incs.MemSize()))
			if err == nil {
				err = lh.Verify(inc.Machine, inc.AuthDevice, inc.Root)
			}
			if err != nil {
				t.Fatalf("%s: booting at snapshot %d: %v", g.dir, k, err)
			}
		}
	}
}
