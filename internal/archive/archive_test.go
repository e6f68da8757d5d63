package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
)

// testRecording is one synthetic node recording: a chained log with two
// snapshot entries (so it archives as two closed epochs plus an unclosed
// tail) and the matching two-increment snapshot store.
type testRecording struct {
	node    string
	entries []tevlog.Entry
	store   *snapshot.Store
}

func makeRecording(t *testing.T) *testRecording {
	t.Helper()
	m := vm.NewMachine(8*vm.PageSize, nil)
	st := snapshot.NewStore(len(m.Mem))
	l := tevlog.New(sig.NullSigner{Node: "n1"})

	snapEntry := func(icount uint64) {
		t.Helper()
		if err := m.Store32(uint32(icount%8)*uint32(vm.PageSize), uint32(icount)); err != nil {
			t.Fatal(err)
		}
		s, err := st.Take(m, []byte("dev"), []byte("authdev"))
		if err != nil {
			t.Fatal(err)
		}
		ev := wire.EventContent{
			Kind: wire.EventSnapshot, SnapIdx: uint32(s.Index), Root: s.Root,
			Landmark: vm.Landmark{ICount: icount},
		}
		l.Append(tevlog.TypeSnapshot, ev.Marshal())
	}

	for i := 0; i < 5; i++ {
		l.Append(tevlog.TypeNondet, []byte{byte(i)})
	}
	snapEntry(100)
	for i := 0; i < 4; i++ {
		l.Append(tevlog.TypeSend, []byte("payload"))
	}
	snapEntry(200)
	l.Append(tevlog.TypeAck, []byte("tail-1"))
	l.Append(tevlog.TypeAck, []byte("tail-2"))

	return &testRecording{node: "n1", entries: l.All(), store: st}
}

func writeArchive(t *testing.T, rec *testRecording) (string, *Archive) {
	t.Helper()
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sf := rec.store.File()
	if err := a.WriteRecording(rec.node, rec.entries, &sf); err != nil {
		t.Fatal(err)
	}
	return dir, a
}

func sameEntries(a, b []tevlog.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Type != b[i].Type ||
			a[i].Hash != b[i].Hash || string(a[i].Content) != string(b[i].Content) {
			return false
		}
	}
	return true
}

func TestArchiveRoundTrip(t *testing.T) {
	rec := makeRecording(t)
	dir, a := writeArchive(t, rec)

	if n, _ := a.Epochs(rec.node); n != 3 {
		t.Fatalf("epochs = %d, want 3 (2 closed + unclosed tail)", n)
	}
	if n, _ := a.Snapshots(rec.node); n != 2 {
		t.Fatalf("snapshots = %d, want 2", n)
	}
	got, err := a.ReadLog(rec.node)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEntries(got, rec.entries) {
		t.Fatal("ReadLog differs from the recorded entries")
	}
	bounds, err := a.Boundaries(rec.node)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 2 {
		t.Fatalf("boundaries = %d, want 2", len(bounds))
	}
	if bounds[0].Seq != 6 || bounds[0].SnapIdx != 0 || bounds[1].Seq != 11 || bounds[1].SnapIdx != 1 {
		t.Fatalf("boundary seqs/snaps = %+v", bounds)
	}
	if bounds[1].EntryHash != rec.entries[10].Hash {
		t.Fatal("boundary entry hash does not match the live chain")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the manifest round-trips and reads stay identical.
	a2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	got2, err := a2.ReadLog(rec.node)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEntries(got2, rec.entries) {
		t.Fatal("ReadLog after reopen differs from the recorded entries")
	}
	info, err := a2.EpochInfo(rec.node, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Closed || info.Boot || info.FirstSeq != 7 || info.Entries != 5 || info.EndSnap != 1 {
		t.Fatalf("epoch 1 info = %+v", info)
	}
}

func TestArchiveEntrySourceStreams(t *testing.T) {
	rec := makeRecording(t)
	_, a := writeArchive(t, rec)
	defer a.Close()
	src, err := a.EntrySource(rec.node)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := range rec.entries {
		e, err := src.Next()
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if e.Seq != rec.entries[i].Seq || e.Type != rec.entries[i].Type {
			t.Fatalf("entry %d = seq %d type %v, want seq %d type %v",
				i, e.Seq, e.Type, rec.entries[i].Seq, rec.entries[i].Type)
		}
	}
	if _, err := src.Next(); err == nil {
		t.Fatal("source yields entries past the end")
	}
}

func TestArchiveWindowMatchesLogSlice(t *testing.T) {
	rec := makeRecording(t)
	_, a := writeArchive(t, rec)
	defer a.Close()
	// Window after boundary 0 of length 1 = epoch 1 = entries 7..11.
	win, err := a.ReadWindow(rec.node, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEntries(win, rec.entries[6:11]) {
		t.Fatal("window differs from the corresponding log slice")
	}
}

func TestArchiveSnapshotPayloadRoundTrip(t *testing.T) {
	rec := makeRecording(t)
	sf := rec.store.File()
	for _, s := range sf.Snaps {
		payload := marshalSnapshotPayload(s)
		back, err := parseSnapshotPayload(payload)
		if err != nil {
			t.Fatalf("snapshot %d: %v", s.Index, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("snapshot %d does not round-trip", s.Index)
		}
	}
}

func TestArchiveMaterializeMatchesStore(t *testing.T) {
	rec := makeRecording(t)
	_, a := writeArchive(t, rec)
	defer a.Close()
	src, err := a.IncrementSource(rec.node)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < rec.store.Count(); k++ {
		want, err := rec.store.Materialize(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := snapshot.MaterializeFrom(src, k)
		if err != nil {
			t.Fatalf("snapshot %d: %v", k, err)
		}
		if got.Root != want.Root || string(got.Mem) != string(want.Mem) {
			t.Fatalf("materialized state %d differs from the in-memory store", k)
		}
	}
	// Deltas build identically too.
	for k := 1; k < rec.store.Count(); k++ {
		want, err := rec.store.Delta(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := snapshot.DeltaFrom(src, k)
		if err != nil {
			t.Fatal(err)
		}
		if got.ToRoot != want.ToRoot || got.FromRoot != want.FromRoot || len(got.Pages) != len(want.Pages) {
			t.Fatalf("delta %d differs from the in-memory store", k)
		}
	}
}

// TestArchiveTornManifestTail pins the crash contract on the manifest: a
// torn final record is dropped, everything before it survives, and appends
// resume cleanly after the compacting reopen.
func TestArchiveTornManifestTail(t *testing.T) {
	rec := makeRecording(t)
	dir, a := writeArchive(t, rec)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop mid-frame: the final record (the unclosed tail epoch) tears.
	path := filepath.Join(dir, ManifestName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	a2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := a2.Epochs(rec.node); n != 2 {
		t.Fatalf("epochs after torn tail = %d, want 2", n)
	}
	got, err := a2.ReadLog(rec.node)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEntries(got, rec.entries[:11]) {
		t.Fatal("surviving prefix differs from the first two epochs")
	}
	// The writer can re-archive the lost tail and the full log reads back.
	if err := a2.AppendEpoch(rec.node, EpochMeta{StartSnap: 1, StartSeq: 11}, rec.entries[11:]); err != nil {
		t.Fatal(err)
	}
	if err := a2.Close(); err != nil {
		t.Fatal(err)
	}
	a3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a3.Close()
	got, err = a3.ReadLog(rec.node)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEntries(got, rec.entries) {
		t.Fatal("log after recovered append differs from the original")
	}
}

// TestArchiveTornTilePayload pins the other crash shape: the manifest
// record made it to disk but its payload did not. The record (and
// everything after it) is dropped, and the first append cuts the tile back
// to the last indexed byte before it writes.
func TestArchiveTornTilePayload(t *testing.T) {
	rec := makeRecording(t)
	dir, a := writeArchive(t, rec)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	tile := filepath.Join(dir, rec.node+TileSuffix)
	fi, err := os.Stat(tile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tile, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	a2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if n, _ := a2.Epochs(rec.node); n != 2 {
		t.Fatalf("epochs after torn payload = %d, want 2", n)
	}
	got, err := a2.ReadLog(rec.node)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEntries(got, rec.entries[:11]) {
		t.Fatal("surviving prefix differs from the first two epochs")
	}
	src, err := a2.IncrementSource(rec.node)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < src.Count(); k++ {
		if _, err := src.Increment(k); err != nil {
			t.Fatalf("snapshot %d unreadable after truncation recovery: %v", k, err)
		}
	}
	// Re-archiving the lost tail lands exactly at the indexed tail: the
	// torn payload's remains are gone from under it.
	if err := a2.AppendEpoch(rec.node, EpochMeta{StartSnap: 1, StartSeq: 11}, rec.entries[11:]); err != nil {
		t.Fatal(err)
	}
	if err := a2.Sync(); err != nil {
		t.Fatal(err)
	}
	fi, err = os.Stat(tile)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != fileTail(t, a2, rec.node) {
		t.Fatalf("tile is %d bytes, want truncation to the last indexed byte %d",
			fi.Size(), fileTail(t, a2, rec.node))
	}
	if got, err = a2.ReadLog(rec.node); err != nil || !sameEntries(got, rec.entries) {
		t.Fatalf("log after the recovered append differs from the original (%v)", err)
	}
}

// TestArchiveOrphanTileOfLostNode: a crash can keep a tile's payload bytes
// while losing every manifest record, the node's own included (the
// manifest is fsynced after the tiles). The tile then belongs to a node the
// archive does not know; archiving that node again must not append behind
// the stale bytes. Found by the crash enumeration in crash_test.go.
func TestArchiveOrphanTileOfLostNode(t *testing.T) {
	rec := makeRecording(t)
	dir, a := writeArchive(t, rec)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, ManifestName), 0); err != nil {
		t.Fatal(err)
	}
	tile := filepath.Join(dir, rec.node+TileSuffix)
	if err := os.Truncate(tile, 100); err != nil {
		t.Fatal(err)
	}

	a2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(a2.Nodes()) != 0 {
		t.Fatalf("nodes with an empty manifest: %v", a2.Nodes())
	}
	sf := rec.store.File()
	if err := a2.WriteRecording(rec.node, rec.entries, &sf); err != nil {
		t.Fatal(err)
	}
	if err := a2.Close(); err != nil {
		t.Fatal(err)
	}
	a3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a3.Close()
	if got, err := a3.ReadLog(rec.node); err != nil || !sameEntries(got, rec.entries) {
		t.Fatalf("log archived over an orphan tile does not read back: %v", err)
	}
	if fi, err := os.Stat(tile); err != nil || fi.Size() != fileTail(t, a3, rec.node) {
		t.Fatalf("tile still carries the orphan bytes: %v", err)
	}
}

// snapshotSpots are the places in a version-2 snapshot payload the tamper
// table flips a bit at, by name: one byte of each part of the layout.
func snapshotSpots(t *testing.T, payload []byte) map[string]int {
	t.Helper()
	sc, err := scanSnapshotPayload(payload)
	if err != nil || len(sc.pages) == 0 || len(sc.blobs[0]) == 0 {
		t.Fatalf("payload does not scan to pages and registers: %v", err)
	}
	last := sc.pages[len(sc.pages)-1]
	lenAt := last.off - len(binary.AppendUvarint(nil, uint64(last.n)))
	return map[string]int{
		"a page byte":       last.off + last.n/2,
		"a page length":     lenAt,
		"a page index":      lenAt - len(binary.AppendUvarint(nil, uint64(last.p))),
		"the register blob": cap(payload) - cap(sc.blobs[0]), // the blob is a window of the payload
		"the proof":         len(payload) - len(sc.rest.b),
		"the version byte":  0,
		"a trailing byte":   len(payload) - 1,
	}
}

// TestArchiveCorruptSegmentDetected flips single payload bits: every read
// path must surface a precise error, never decoded garbage. In a snapshot
// increment, whatever part of the layout the bit is in, the error is the
// one a version-1 payload gives, a payload hash mismatch — also when the
// damage makes the payload unscannable, or turns the version byte from 2
// to 1 — and a payload verifies under the digest of its own version only.
func TestArchiveCorruptSegmentDetected(t *testing.T) {
	rec := makeRecording(t)
	dir, a := writeArchive(t, rec)
	epoch1, err := a.EpochInfo(rec.node, 1)
	if err != nil {
		t.Fatal(err)
	}
	epoch2, err := a.EpochInfo(rec.node, 2)
	if err != nil {
		t.Fatal(err)
	}
	snaps := append([]snapRec(nil), a.nodes[rec.node].snaps...)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	tile := filepath.Join(dir, rec.node+TileSuffix)
	raw, err := os.ReadFile(tile)
	if err != nil {
		t.Fatal(err)
	}
	for k, sr := range snaps {
		payload := raw[sr.Off : sr.Off+sr.Len]
		for what, at := range snapshotSpots(t, payload) {
			label := fmt.Sprintf("snapshot %d, %s", k, what)
			flip := byte(0x01)
			if what == "the version byte" {
				flip = SnapshotPayloadVersion ^ snapshotPayloadV1
			}
			payload[at] ^= flip
			if err := os.WriteFile(tile, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			payload[at] ^= flip // restored in memory; the file keeps the damage
			a2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			src, err := a2.IncrementSource(rec.node)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("archive: %s snapshot %d payload hash mismatch (corrupt or tampered segment)", rec.node, k)
			if _, err := src.Increment(k); err == nil || err.Error() != want {
				t.Fatalf("%s: read error %v, want %q", label, err, want)
			}
			if _, err := snapshot.MaterializeFrom(src, len(snaps)-1); err == nil || err.Error() != want {
				t.Fatalf("%s: materialization error %v, want %q", label, err, want)
			}
			a2.Close()
		}

		// Across versions: the same layout under the other version's byte
		// and digest never verifies.
		v2 := bytes.Clone(payload)
		v1 := bytes.Clone(payload)
		v1[0] = snapshotPayloadV1
		if s, ok, err := openSnapshotPayload(bytes.Clone(v2), sr.Hash); !ok || err != nil || s.Index != k {
			t.Fatalf("snapshot %d: the archived payload does not verify: %v, %v", k, ok, err)
		}
		sc, err := scanSnapshotPayload(v1)
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]struct {
			b    []byte
			want [32]byte
		}{
			"v1 payload, v2 digest":              {v1, sr.Hash},
			"v1 payload, v2 digest of its bytes": {v1, snapshotDigest(v1, sc.pages, pageLeaves(v1, sc.pages))},
			"v2 payload, v1 digest of v1 bytes":  {v2, payloadHash(v1)},
			"v2 payload, v1 digest of its bytes": {v2, payloadHash(v2)},
		} {
			if _, ok, _ := openSnapshotPayload(bytes.Clone(c.b), c.want); ok {
				t.Fatalf("snapshot %d: %s verifies", k, name)
			}
		}
		if _, ok, err := openSnapshotPayload(bytes.Clone(v1), payloadHash(v1)); !ok || err != nil {
			t.Fatalf("snapshot %d: a v1 payload does not verify under its own digest: %v, %v", k, ok, err)
		}
	}
	// Epoch 2's payload ends the tile; epoch 1's sits just before it.
	raw[int64(len(raw))-epoch2.Bytes-epoch1.Bytes] ^= 0xFF
	if err := os.WriteFile(tile, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	a3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a3.Close()
	if _, err := a3.ReadLog(rec.node); err == nil {
		t.Fatal("corrupt epoch segment read back without error")
	}
	src2, err := a3.EntrySource(rec.node)
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	streamErr := error(nil)
	for {
		if _, err := src2.Next(); err != nil {
			streamErr = err
			break
		}
	}
	if streamErr == nil {
		t.Fatal("streaming a corrupt archive reached EOF without error")
	}
}

func fileTail(t *testing.T, a *Archive, node string) int64 {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nodes[node].tail
}

// TestArchiveManifestCorruptionEndsPrefix flips a byte inside an early
// manifest record: the crc catches it and the prefix ends there even
// though later frames are intact.
func TestArchiveManifestCorruptionEndsPrefix(t *testing.T) {
	rec := makeRecording(t)
	dir, a := writeArchive(t, rec)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// First frame is the node record; corrupt the second frame's body.
	first := int(binary.BigEndian.Uint32(raw))
	raw[FrameHeaderSize+first+FrameHeaderSize] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	a2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if n, _ := a2.Epochs(rec.node); n != 0 {
		t.Fatalf("epochs past corruption = %d, want 0", n)
	}
	if n, _ := a2.Snapshots(rec.node); n != 0 {
		t.Fatalf("snapshots past corruption = %d, want 0", n)
	}
}

func TestArchiveInclusionProofs(t *testing.T) {
	rec := makeRecording(t)
	_, a := writeArchive(t, rec)
	defer a.Close()
	root, err := a.LogRoot(rec.node)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := a.Epochs(rec.node)
	for k := 0; k < n; k++ {
		proof, proot, err := a.ProveEpoch(rec.node, k)
		if err != nil {
			t.Fatal(err)
		}
		if proot != root {
			t.Fatalf("epoch %d proof root differs from LogRoot", k)
		}
		info, err := a.EpochInfo(rec.node, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyInclusion(root, proof, info.Hash); err != nil {
			t.Fatalf("epoch %d inclusion proof rejected: %v", k, err)
		}
		var wrong [32]byte
		copy(wrong[:], info.Hash[:])
		wrong[0] ^= 1
		if err := VerifyInclusion(root, proof, wrong); err == nil {
			t.Fatalf("epoch %d inclusion proof accepts a tampered segment hash", k)
		}
	}
	if _, _, err := a.ProveEpoch(rec.node, n); err == nil {
		t.Fatal("proof for out-of-range epoch succeeded")
	}
}

func TestArchiveAppendDiscipline(t *testing.T) {
	rec := makeRecording(t)
	_, a := writeArchive(t, rec)
	defer a.Close()
	// Epoch 2 is unclosed: nothing may append after it.
	if err := a.AppendEpoch(rec.node, EpochMeta{}, rec.entries[:1]); err == nil {
		t.Fatal("append after an unclosed epoch succeeded")
	}
	if err := a.AppendEpoch(rec.node, EpochMeta{}, nil); err == nil {
		t.Fatal("empty epoch accepted")
	}
	sf := rec.store.File()
	if err := a.AppendSnapshot(rec.node, sf.Snaps[0]); err == nil {
		t.Fatal("out-of-order snapshot accepted")
	}
	if err := a.BeginNode(rec.node, rec.store.MemSize()); err != nil {
		t.Fatalf("idempotent BeginNode rejected: %v", err)
	}
	if err := a.BeginNode(rec.node, rec.store.MemSize()+1); err == nil {
		t.Fatal("BeginNode with a different memSize accepted")
	}
	if _, err := a.ReadLog("ghost"); err == nil {
		t.Fatal("unknown node read succeeded")
	}
}

// minimalSnapshotPayload builds a hand-rolled snapshot payload up to (and
// excluding) the proof index count, for hostile-count tests.
func minimalSnapshotPayload() []byte {
	b := []byte{SnapshotPayloadVersion}
	for i := 0; i < 6; i++ {
		b = binary.AppendUvarint(b, 0) // index, landmark×3, icount, incrementBytes
	}
	for i := 0; i < 3; i++ {
		b = binary.AppendUvarint(b, 0) // empty machine/device/authDevice blobs
	}
	b = binary.AppendUvarint(b, 0) // nPages
	b = binary.AppendUvarint(b, 0) // proof.leaves
	return b
}

// TestArchiveSnapshotPayloadHostileCounts pins the overflow guards: a
// declared count whose ×32 wraps the uint64 bound must error at decode,
// never panic allocating (regression: nSib=1<<59 made nSib*32 wrap to 0).
func TestArchiveSnapshotPayloadHostileCounts(t *testing.T) {
	hostile := minimalSnapshotPayload()
	hostile = binary.AppendUvarint(hostile, 0)     // nIdx
	hostile = binary.AppendUvarint(hostile, 1<<59) // nSib: ×32 wraps to 0
	if _, err := parseSnapshotPayload(hostile); err == nil {
		t.Fatal("huge sibling count decoded without error")
	}

	hostile = minimalSnapshotPayload()
	hostile = binary.AppendUvarint(hostile, 1<<59) // nIdx
	if _, err := parseSnapshotPayload(hostile); err == nil {
		t.Fatal("huge index count decoded without error")
	}
}

// TestArchiveSnapshotPayloadOversizedPage pins the per-page length bound:
// a page longer than vm.PageSize must be rejected at decode, not bleed
// into its neighbor at materialization.
func TestArchiveSnapshotPayloadOversizedPage(t *testing.T) {
	b := []byte{SnapshotPayloadVersion}
	for i := 0; i < 6; i++ {
		b = binary.AppendUvarint(b, 0)
	}
	for i := 0; i < 3; i++ {
		b = binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, 1) // nPages
	b = binary.AppendUvarint(b, 0) // page index
	b = binary.AppendUvarint(b, uint64(vm.PageSize+1))
	b = append(b, make([]byte, vm.PageSize+1)...)
	b = binary.AppendUvarint(b, 0)     // proof.leaves
	b = binary.AppendUvarint(b, 0)     // nIdx
	b = binary.AppendUvarint(b, 0)     // nSib
	b = append(b, make([]byte, 64)...) // root + memRoot
	if _, err := parseSnapshotPayload(b); err == nil {
		t.Fatal("oversized page decoded without error")
	}
}

// TestArchiveManifestHugeExtentRejected pins the overflow-safe extent
// check in replay: a record whose off+len wraps int64 must end the valid
// prefix, not corrupt the replayed tail (regression: the sum-based bound
// accepted it and poisoned every later open).
func TestArchiveManifestHugeExtentRejected(t *testing.T) {
	rec := makeRecording(t)
	dir, a := writeArchive(t, rec)
	tail := fileTail(t, a, rec.node)
	nSnaps, _ := a.Snapshots(rec.node)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// off = the replayed tail (so the contiguity check passes) and
	// off+len ≥ 2^63, wrapping negative under a sum-based bound.
	hostile := snapRec{Off: tail, Len: int64(uint64(1)<<63 - uint64(tail))}
	frame := wal.AppendFrame(nil, marshalSnapRecord(rec.node, nSnaps, &hostile))
	path := filepath.Join(dir, ManifestName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	a2, err := Open(dir)
	if err != nil {
		t.Fatalf("archive with a hostile extent record does not open: %v", err)
	}
	defer a2.Close()
	if n, _ := a2.Snapshots(rec.node); n != nSnaps {
		t.Fatalf("snapshots = %d, want the hostile record dropped (%d)", n, nSnaps)
	}
	if got, err := a2.ReadLog(rec.node); err != nil || !sameEntries(got, rec.entries) {
		t.Fatalf("log unreadable after dropping the hostile record: %v", err)
	}
}

// TestArchiveWriteFailurePoisonsAppends pins the sticky-failure contract:
// after a failed tile write (a short one: the disk filled up mid-payload)
// the archive refuses further appends with that same error — the O_APPEND
// offset no longer matches the indexed tail — and touches the disk no more,
// even though it would work again; reads of already-indexed segments keep
// working, and the directory reopens to the acknowledged prefix.
func TestArchiveWriteFailurePoisonsAppends(t *testing.T) {
	rec := makeRecording(t)
	dir := t.TempDir()
	fsys, err := waltest.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := open(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.BeginNode(rec.node, rec.store.MemSize()); err != nil {
		t.Fatal(err)
	}
	sf := rec.store.File()
	if err := a.AppendSnapshot(rec.node, sf.Snaps[0]); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}

	// The next operation is the tile write of the second increment.
	fsys.FailAt(fsys.Ops()+1, syscall.ENOSPC)
	if err := a.AppendSnapshot(rec.node, sf.Snaps[1]); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append over a full disk = %v, want ENOSPC", err)
	}
	ops := fsys.Ops()
	if err := a.AppendSnapshot(rec.node, sf.Snaps[1]); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append after a write failure = %v, want the sticky ENOSPC", err)
	}
	if err := a.BeginNode("other", 0); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("BeginNode after a write failure = %v, want the sticky ENOSPC", err)
	}
	if err := a.Sync(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Sync after a write failure = %v, want the sticky ENOSPC", err)
	}
	if fsys.Ops() != ops {
		t.Fatalf("%d filesystem operations after the failure, want none", fsys.Ops()-ops)
	}
	// Already-indexed segments stay readable.
	src, err := a.IncrementSource(rec.node)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Increment(0); err != nil {
		t.Fatalf("indexed snapshot unreadable after poisoning: %v", err)
	}

	// The half-written payload is an orphan past the indexed tail: a fresh
	// open finds the one acknowledged increment, and appending the second
	// one again first cuts the orphan off.
	a2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if n, _ := a2.Snapshots(rec.node); n != 1 {
		t.Fatalf("reopened archive holds %d snapshots, want the 1 acknowledged", n)
	}
	if err := a2.AppendSnapshot(rec.node, sf.Snaps[1]); err != nil {
		t.Fatal(err)
	}
	if err := a2.Sync(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, rec.node+TileSuffix)); err != nil || fi.Size() != fileTail(t, a2, rec.node) {
		t.Fatalf("tile is not exactly the indexed %d bytes after the recovered append: %v", fileTail(t, a2, rec.node), err)
	}
	src, err = a2.IncrementSource(rec.node)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Increment(1); err != nil {
		t.Fatalf("re-appended snapshot unreadable: %v", err)
	}
}

// TestArchiveFormatConstants pins the values documented in
// docs/ARCHIVE_FORMAT.md; changing either side must change both.
func TestArchiveFormatConstants(t *testing.T) {
	if ManifestName != "MANIFEST" || TileSuffix != ".tile" {
		t.Fatal("archive file naming drifted from docs/ARCHIVE_FORMAT.md")
	}
	if FrameHeaderSize != 8 || MaxRecordSize != 1<<20 {
		t.Fatal("manifest framing drifted from docs/ARCHIVE_FORMAT.md")
	}
	if SnapshotPayloadVersion != 2 || snapshotPayloadV1 != 1 {
		t.Fatal("snapshot payload version drifted from docs/ARCHIVE_FORMAT.md")
	}
	if SnapshotDigestTag != "avm-archive snapshot digest v2" || len(SnapshotDigestTag) != 30 {
		t.Fatal("snapshot digest tag drifted from docs/ARCHIVE_FORMAT.md")
	}
	if RecordNode != 1 || RecordEpoch != 2 || RecordSnapshot != 3 {
		t.Fatal("manifest record kinds drifted from docs/ARCHIVE_FORMAT.md")
	}
}
