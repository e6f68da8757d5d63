package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/vm"
)

// raPages is the guest size of the read-ahead tests: 2 MiB, so that an
// increment of more than half the pages is past readAheadMin without the
// test writing 16 MiB captures.
const raPages = 512

// raStore takes one snapshot per element of dirty: increment i captures
// the pages [dirty[i][0], dirty[i][1]) (increment 0 captures everything
// whatever it names). Every captured page differs between increments.
func raStore(t *testing.T, dirty [][2]int) *snapshot.Store {
	t.Helper()
	m := vm.NewMachine(raPages*vm.PageSize, nil)
	st := snapshot.NewStore(len(m.Mem))
	for i, d := range dirty {
		for p := d[0]; p < d[1]; p++ {
			if err := m.Store32(uint32(p*vm.PageSize), uint32(i*raPages+p+1)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Take(m, []byte("dev"), []byte("authdev")); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// Two layouts of four increments, each payload past readAheadMin. In
// covering every increment holds every page, so a fold of k asks for k
// alone and whatever was read ahead is never collected. In chain the
// later increments hold overlapping parts, so a fold of 3 walks 3, 2, 1, 0.
var (
	raCovering = [][2]int{{0, raPages}, {0, raPages}, {0, raPages}, {0, raPages}}
	raChain    = [][2]int{{0, raPages}, {0, 300}, {200, 500}, {0, 300}}
)

// raArchive archives st as node n1 and returns the directory, closed.
func raArchive(t *testing.T, st *snapshot.Store) string {
	t.Helper()
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sf := st.File()
	if err := a.BeginNode("n1", sf.MemSize); err != nil {
		t.Fatal(err)
	}
	for _, s := range sf.Snaps {
		if err := a.AppendSnapshot("n1", s); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// raDamage is one way of ruining increment k's extent in the tile.
type raDamage func(t *testing.T, tile string, rec snapRec)

func raFlip(t *testing.T, tile string, rec snapRec) {
	t.Helper()
	f, err := os.OpenFile(tile, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	at := rec.Off + rec.Len/2
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
}

// raTruncate cuts the tile in the middle of the extent, after the archive
// was opened (an open drops the records of extents the tile no longer
// holds; a file that shrinks under an open archive is what a read sees).
func raTruncate(t *testing.T, tile string, rec snapRec) {
	t.Helper()
	if err := os.Truncate(tile, rec.Off+rec.Len/2); err != nil {
		t.Fatal(err)
	}
}

// TestReadAheadDoesNotChangeWhatAFoldReports: reading increment k-1 ahead
// of the fold that asked for k changes when the bytes are read and by
// whom, never what the fold reports. A ruined increment the fold does not
// ask for stays unreported; one it asks for gives the error text the
// serial read gave, whether the read-ahead or the caller met it. Every
// case runs with one P (no read-ahead) and with four.
func TestReadAheadDoesNotChangeWhatAFoldReports(t *testing.T) {
	const (
		hashMismatch = "archive: n1 snapshot %d payload hash mismatch (corrupt or tampered segment)"
		shortRead    = "archive: reading n1 snapshot %d: EOF"
	)
	cases := []struct {
		name   string
		layout [][2]int
		damage raDamage
		victim int // the increment ruined
		fold   int // the snapshot materialized
		// wantErr is the fold's error ("" for success); askErr what asking
		// for the victim alone reports afterwards.
		wantErr, askErr string
	}{
		{"intact/covering", raCovering, nil, -1, 3, "", ""},
		{"intact/chain", raChain, nil, -1, 3, "", ""},
		{"flipped bit, read ahead, never asked for", raCovering, raFlip, 2, 3, "", fmt.Sprintf(hashMismatch, 2)},
		{"flipped bit in the full capture, never asked for", raCovering, raFlip, 0, 1, "", fmt.Sprintf(hashMismatch, 0)},
		{"flipped bit, read ahead, asked for", raChain, raFlip, 2, 3, fmt.Sprintf(hashMismatch, 2), fmt.Sprintf(hashMismatch, 2)},
		{"flipped bit two behind, asked for", raChain, raFlip, 1, 3, fmt.Sprintf(hashMismatch, 1), fmt.Sprintf(hashMismatch, 1)},
		{"flipped bit in the one the caller reads", raChain, raFlip, 3, 3, fmt.Sprintf(hashMismatch, 3), fmt.Sprintf(hashMismatch, 3)},
		{"truncated, the caller's own and the one read ahead", raChain, raTruncate, 2, 3, fmt.Sprintf(shortRead, 3), fmt.Sprintf(shortRead, 2)},
		{"truncated, the one the caller reads", raChain, raTruncate, 2, 2, fmt.Sprintf(shortRead, 2), fmt.Sprintf(shortRead, 2)},
	}
	for _, procs := range []int{1, 4} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("P%d/%s", procs, tc.name), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				st := raStore(t, tc.layout)
				dir := raArchive(t, st)
				a, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				src, err := a.IncrementSource("n1")
				if err != nil {
					t.Fatal(err)
				}
				recs := src.(*incrementSource).recs
				for k, rec := range recs {
					if rec.Len < readAheadMin {
						t.Fatalf("increment %d is %d bytes: below readAheadMin, the case would test nothing", k, rec.Len)
					}
				}
				if tc.damage != nil {
					tc.damage(t, filepath.Join(dir, "n1"+TileSuffix), recs[tc.victim])
				}
				got, err := snapshot.MaterializeFrom(src, tc.fold)
				switch {
				case tc.wantErr == "" && err != nil:
					t.Fatalf("fold of %d reports %v; the serial fold never reads increment %d", tc.fold, err, tc.victim)
				case tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr):
					t.Fatalf("fold of %d reports %v, want %q", tc.fold, err, tc.wantErr)
				case tc.wantErr == "":
					want, err := st.Materialize(tc.fold)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatal("state folded from the archive differs from the store's")
					}
					if tc.name == "intact/covering" {
						// The never-asked-for cases test something only if the
						// increment behind the fold's only one is read ahead
						// with several Ps and left alone with one.
						is := src.(*incrementSource)
						is.mu.Lock()
						ahead := is.reads[tc.fold-1]
						is.mu.Unlock()
						if (ahead != nil) != (procs > 1) {
							t.Fatalf("with %d Ps: increment %d read = %v", procs, tc.fold-1, ahead != nil)
						}
					}
				}
				if tc.askErr != "" {
					// Twice: a failed read is not kept, so the second request
					// reads again and must see the same thing.
					for i := 0; i < 2; i++ {
						if _, err := src.Increment(tc.victim); err == nil || err.Error() != tc.askErr {
							t.Fatalf("asking for increment %d reports %v, want %q", tc.victim, err, tc.askErr)
						}
					}
				}
			})
		}
	}
}

// TestCloseWaitsForReadAhead: a fold that needs only increment k returns
// while k-1 may still be being read ahead; Close must wait for that read
// rather than close the tile under it, and start none afterwards.
func TestCloseWaitsForReadAhead(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("P%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			dir := raArchive(t, raStore(t, raCovering))
			for round := 0; round < 8; round++ {
				a, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				src, err := a.IncrementSource("n1")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := src.Increment(3); err != nil {
					t.Fatal(err)
				}
				if err := a.Close(); err != nil {
					t.Fatal(err)
				}
				is := src.(*incrementSource)
				is.mu.Lock()
				ahead := is.reads[2]
				is.mu.Unlock()
				if procs == 1 && ahead != nil {
					t.Fatal("a read-ahead was started with one P")
				}
				if ahead != nil {
					select {
					case <-ahead.done:
						if ahead.err != nil {
							t.Fatalf("the read-ahead Close waited for failed: %v", ahead.err)
						}
					default:
						t.Fatal("Close returned while a read-ahead was still running")
					}
				}
				if a.beginReadAhead() {
					t.Fatal("a closed archive admitted a read-ahead")
				}
			}
		})
	}
}
