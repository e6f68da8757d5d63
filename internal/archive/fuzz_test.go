package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/merkle"
	"repro/internal/snapshot"
	"repro/internal/vm"
	"repro/internal/wal"
)

// FuzzManifestReplay feeds arbitrary bytes to the archive as a MANIFEST
// file. Open must never panic: it folds the valid prefix, compacts, and
// the surviving state must itself re-open identically (replay is a
// fixpoint — the crash-recovery guarantee for arbitrary torn tails).
func FuzzManifestReplay(f *testing.F) {
	// Seed with a real manifest so the fuzzer starts from valid framing.
	rec := &testRecording{node: "n1"}
	m := vm.NewMachine(2*vm.PageSize, nil)
	st := snapshot.NewStore(len(m.Mem))
	if _, err := st.Take(m, nil, nil); err != nil {
		f.Fatal(err)
	}
	rec.store = st
	dir := f.TempDir()
	a, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := a.BeginNode("n1", len(m.Mem)); err != nil {
		f.Fatal(err)
	}
	sf := st.File()
	if err := a.AppendSnapshot("n1", sf.Snaps[0]); err != nil {
		f.Fatal(err)
	}
	if err := a.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(wal.AppendFrame(nil, marshalNodeRecord("x", 4096)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(fdir, ManifestName), data, 0o644); err != nil {
			t.Skip()
		}
		a, err := Open(fdir)
		if err != nil {
			return
		}
		first := a.marshalManifest()
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopening the compacted archive must reproduce the same state.
		a2, err := Open(fdir)
		if err != nil {
			t.Fatalf("compacted manifest does not re-open: %v", err)
		}
		defer a2.Close()
		if second := a2.marshalManifest(); !bytes.Equal(first, second) {
			t.Fatal("manifest replay is not a fixpoint")
		}
	})
}

// marshalV1 is the version-1 payload of s: the layout is version 2's.
func marshalV1(s *snapshot.Snapshot) []byte {
	b := marshalSnapshotPayload(s)
	b[0] = snapshotPayloadV1
	return b
}

// handDigest is the version-2 digest of the payload that encodes s, built
// the long way: the tag, then the payload's fields written out one by one
// with each page's Merkle leaf where its bytes would be.
func handDigest(s *snapshot.Snapshot) [32]byte {
	b := []byte(SnapshotDigestTag)
	b = append(b, SnapshotPayloadVersion)
	for _, v := range []uint64{uint64(s.Index), s.Landmark.ICount, s.Landmark.Branches, uint64(s.Landmark.PC), s.ICount, uint64(s.IncrementBytes)} {
		b = binary.AppendUvarint(b, v)
	}
	for _, blob := range [][]byte{s.Machine, s.Device, s.AuthDevice} {
		b = binary.AppendUvarint(b, uint64(len(blob)))
		b = append(b, blob...)
	}
	b = binary.AppendUvarint(b, uint64(len(s.MemPages)))
	for _, p := range slices.Sorted(maps.Keys(s.MemPages)) {
		leaf := merkle.HashLeaf(p, s.MemPages[p])
		b = binary.AppendUvarint(b, uint64(p))
		b = binary.AppendUvarint(b, uint64(len(s.MemPages[p])))
		b = append(b, leaf[:]...)
	}
	b = binary.AppendUvarint(b, uint64(s.Proof.Leaves))
	b = binary.AppendUvarint(b, uint64(len(s.Proof.Indices)))
	for _, i := range s.Proof.Indices {
		b = binary.AppendUvarint(b, uint64(i))
	}
	for _, h := range s.Proof.Old {
		b = append(b, h[:]...)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Proof.Siblings)))
	for _, h := range s.Proof.Siblings {
		b = append(b, h[:]...)
	}
	b = append(b, s.Root[:]...)
	b = append(b, s.MemRoot[:]...)
	return sha256.Sum256(b)
}

// FuzzSnapshotPayload feeds arbitrary bytes to the snapshot-increment
// decoder. It must error or decode, never panic; and whatever decodes must
// re-encode to a payload that decodes to the same value (no divergence
// between what was verified and what replay consumes). A decoded snapshot's
// pages are windows of the payload it was decoded from, so two more things
// must hold: every page's capacity is its length (an append by a consumer
// reallocates rather than writing over the page behind it), and the
// snapshot looks at no bytes but its own payload's — the decode of a copy
// is unmoved by what happens to the original afterwards.
//
// The digest the manifest binds a payload to is checked here too. Whatever
// the bytes, openSnapshotPayload must not panic, and must refuse them under
// a digest that is not theirs. For a payload that decodes, the streaming
// version-2 digest of a canonical payload must be handDigest's, a version-2
// payload must open under its digest (and under no version-1 digest), a
// version-1 payload under its SHA-256 (and under no version-2 digest), and
// decode ∘ encode must be the identity within each version.
func FuzzSnapshotPayload(f *testing.F) {
	m := vm.NewMachine(4*vm.PageSize, nil)
	st := snapshot.NewStore(len(m.Mem))
	s0, err := st.Take(m, []byte("dev"), []byte("auth"))
	if err != nil {
		f.Fatal(err)
	}
	if err := m.Store32(vm.PageSize, 7); err != nil {
		f.Fatal(err)
	}
	s1, err := st.Take(m, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(marshalSnapshotPayload(s0))
	f.Add(marshalSnapshotPayload(s1))
	f.Add(marshalV1(s1))
	f.Add([]byte{SnapshotPayloadVersion})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoder owns what it is given and the fuzzer owns data, so
		// every decode here gets a copy of its own.
		for _, want := range [][32]byte{{}, payloadHash(data)} {
			if _, ok, _ := openSnapshotPayload(bytes.Clone(data), want); ok && (len(data) == 0 || data[0] != snapshotPayloadV1 || want != payloadHash(data)) {
				t.Fatalf("a payload opens under a digest %x that is not its own", want[:8])
			}
		}
		owned := bytes.Clone(data)
		s, err := parseSnapshotPayload(owned)
		if err != nil {
			return
		}
		sc, err := scanSnapshotPayload(data)
		if err != nil {
			t.Fatalf("a payload that decodes does not scan: %v", err)
		}
		digest := snapshotDigest(data, sc.pages, pageLeaves(data, sc.pages))
		// A varint may be written longer than it needs to be; the digest
		// hashes the bytes as they lie, the hand-built stream the shortest.
		canonical := bytes.Equal(data[1:], marshalSnapshotPayload(s)[1:])
		if data[0] == SnapshotPayloadVersion && canonical && digest != handDigest(s) {
			t.Fatal("the streaming digest differs from the digest of the stream built by hand")
		}
		own, other := digest, payloadHash(data)
		if data[0] == snapshotPayloadV1 {
			own, other = other, own
		}
		if _, ok, err := openSnapshotPayload(bytes.Clone(data), own); !ok || err != nil {
			t.Fatalf("a version-%d payload that decodes does not open under its digest: %v, %v", data[0], ok, err)
		}
		if _, ok, _ := openSnapshotPayload(bytes.Clone(data), other); ok {
			t.Fatalf("a version-%d payload opens under the other version's digest", data[0])
		}
		for p, page := range s.MemPages {
			if cap(page) != len(page) {
				t.Fatalf("page %d has length %d and capacity %d", p, len(page), cap(page))
			}
		}
		fromCopy, err := parseSnapshotPayload(bytes.Clone(data))
		if err != nil {
			t.Fatalf("a copy of a payload that decodes does not: %v", err)
		}
		if !reflect.DeepEqual(s, fromCopy) {
			t.Fatal("the decode of a copy differs from the decode of the original")
		}
		// Overwrite the buffer the first decode owns. That snapshot is now
		// garbage, by the ownership rule; the second must not have moved.
		encoded := marshalSnapshotPayload(fromCopy)
		if bound := snapshotPayloadBound(fromCopy); cap(encoded) != bound {
			t.Fatalf("a %d-byte payload grew its buffer: capacity %d, bound %d", len(encoded), cap(encoded), bound)
		}
		for i := range owned {
			owned[i] = ^owned[i]
		}
		if !bytes.Equal(encoded, marshalSnapshotPayload(fromCopy)) {
			t.Fatal("the decode of a copy changed when the original was overwritten")
		}
		for _, encoded := range [][]byte{encoded, marshalV1(fromCopy)} {
			again, err := parseSnapshotPayload(encoded)
			if err != nil {
				t.Fatalf("re-encoded version-%d payload does not decode: %v", encoded[0], err)
			}
			if !reflect.DeepEqual(fromCopy, again) {
				t.Fatalf("decode ∘ encode at version %d diverges from the first decode", encoded[0])
			}
		}
	})
}
