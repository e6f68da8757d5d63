package archive

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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

// FuzzSnapshotPayload feeds arbitrary bytes to the snapshot-increment
// decoder. It must error or decode, never panic; and whatever decodes must
// re-encode to a payload that decodes to the same value (no divergence
// between what was verified and what replay consumes). A decoded snapshot's
// pages are windows of the payload it was decoded from, so two more things
// must hold: every page's capacity is its length (an append by a consumer
// reallocates rather than writing over the page behind it), and the
// snapshot looks at no bytes but its own payload's — the decode of a copy
// is unmoved by what happens to the original afterwards.
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
	f.Add([]byte{SnapshotPayloadVersion})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoder owns what it is given and the fuzzer owns data, so
		// every decode here gets a copy of its own.
		owned := bytes.Clone(data)
		s, err := parseSnapshotPayload(owned)
		if err != nil {
			return
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
		for i := range owned {
			owned[i] = ^owned[i]
		}
		if !bytes.Equal(encoded, marshalSnapshotPayload(fromCopy)) {
			t.Fatal("the decode of a copy changed when the original was overwritten")
		}
		again, err := parseSnapshotPayload(encoded)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if !reflect.DeepEqual(fromCopy, again) {
			t.Fatal("decode ∘ encode diverges from the first decode")
		}
	})
}
