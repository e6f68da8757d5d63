package archive

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/merkle"
	"repro/internal/snapshot"
)

// TestSnapshotDigestLeafPass: the leaves an increment's digest is taken
// over are merkle.HashLeaf of each page, whether the leaf pass runs on the
// caller's goroutine (one P, or a payload short of readAheadMin) or on
// several (a payload of readAheadMin or more with four Ps); the digest is
// the one built by hand; the writer's seal and the reader's open agree; and
// the leaves the read hands on are the ones a replica's tree holds: a boot
// folded from the archive, on the leaves, and one folded from the store,
// hashing every page, give the same memory and the same tree.
func TestSnapshotDigestLeafPass(t *testing.T) {
	st := raStore(t, raChain)
	dir := raArchive(t, st)
	sf := st.File()
	if n := len(marshalSnapshotPayload(sf.Snaps[0])); n < readAheadMin {
		t.Fatalf("increment 0 is %d bytes, short of the parallel pass's %d", n, readAheadMin)
	}
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, s := range sf.Snaps {
				label := fmt.Sprintf("P%d, increment %d", procs, s.Index)
				payload := marshalSnapshotPayload(s)
				sc, err := scanSnapshotPayload(payload)
				if err != nil || len(sc.pages) != len(s.MemPages) {
					t.Fatalf("%s: scan finds %d of %d pages: %v", label, len(sc.pages), len(s.MemPages), err)
				}
				leaves := pageLeaves(payload, sc.pages)
				for j, pg := range sc.pages {
					if leaves[j] != merkle.HashLeaf(pg.p, s.MemPages[pg.p]) {
						t.Fatalf("%s: leaf %d is not page %d's", label, j, pg.p)
					}
				}
				digest := snapshotDigest(payload, sc.pages, leaves)
				if digest != handDigest(s) {
					t.Fatalf("%s: digest differs from the one built by hand", label)
				}
				sealed, sealedDigest, err := sealSnapshotPayload(s)
				if err != nil || !bytes.Equal(sealed, payload) || sealedDigest != digest {
					t.Fatalf("%s: the writer seals other bytes or another digest: %v", label, err)
				}
				opened, ok, err := openSnapshotPayload(payload, digest)
				if !ok || err != nil || len(opened.MemPages) != len(s.MemPages) {
					t.Fatalf("%s: the sealed payload does not open: %v, %v", label, ok, err)
				}
			}

			a, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			src, err := a.IncrementSource("n1")
			if err != nil {
				t.Fatal(err)
			}
			for k := range sf.Snaps {
				var fromArchive, fromStore snapshot.LiveStateHasher
				memA, memS := make([]byte, src.MemSize()), make([]byte, st.MemSize())
				if _, err := fromArchive.SeedFold(src, k, memA); err != nil {
					t.Fatal(err)
				}
				if _, err := fromStore.SeedFold(st, k, memS); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(memA, memS) || fromArchive.MemRoot() != fromStore.MemRoot() {
					t.Fatalf("P%d: a boot at %d from the archive's leaves differs from one that hashes every page", procs, k)
				}
			}
		}()
	}
}
