package snapshot

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/vm"
)

// incs is an IncrementSource over hand-made increments and a memory size of
// the test's choosing (a Store rounds its size up to whole pages).
type incs struct {
	mem   int
	snaps []*Snapshot
}

func (s incs) MemSize() int { return s.mem }
func (s incs) Count() int   { return len(s.snaps) }
func (s incs) Increment(k int) (*Snapshot, error) {
	if k < 0 || k >= len(s.snaps) {
		return nil, fmt.Errorf("increment %d of %d", k, len(s.snaps))
	}
	return s.snaps[k], nil
}

// randomIncs is a chain of n increments over mem bytes: increment 0
// captures every whole page, the later ones a random page set each, some
// pages shorter than a page, some indices past the image.
func randomIncs(rng *rand.Rand, mem, n int) incs {
	pages := mem / vm.PageSize
	src := incs{mem: mem}
	for k := 0; k < n; k++ {
		inc := &Snapshot{Index: k, MemPages: make(map[int][]byte), Machine: []byte{byte(k)}, AuthDevice: []byte{byte(k), 1}}
		for p := 0; p < pages; p++ {
			if k > 0 && rng.Intn(4) != 0 {
				continue
			}
			page := make([]byte, vm.PageSize)
			switch rng.Intn(3) {
			case 0:
				if k > 0 {
					page = page[:rng.Intn(vm.PageSize)]
				}
				rng.Read(page)
			case 1:
				rng.Read(page)
			} // else a page of zeros
			inc.MemPages[p] = page
		}
		inc.MemPages[pages+rng.Intn(3)] = []byte{1, 2, 3}
		src.snaps = append(src.snaps, inc)
	}
	return src
}

// TestFoldRejectsOverlongPage: a page longer than vm.PageSize is an error
// that names the increment and the page, from every fold — MaterializeFrom,
// SeedFold, IncrementRange — and is never copied over the head of the next
// page, even where a newer increment already supplied that page.
func TestFoldRejectsOverlongPage(t *testing.T) {
	full := func(b byte) []byte { return bytes.Repeat([]byte{b}, vm.PageSize) }
	base := &Snapshot{Index: 0, MemPages: map[int][]byte{0: full(0x11), 1: full(0x11), 2: full(0x11), 3: full(0x11)}}
	bad := &Snapshot{Index: 1, MemPages: map[int][]byte{1: append(full(0x22), 0x33)}}
	newer := &Snapshot{Index: 2, MemPages: map[int][]byte{2: full(0x44)}}
	src := incs{mem: 4 * vm.PageSize, snaps: []*Snapshot{base, bad, newer}}
	want := fmt.Sprintf("snapshot: increment 1 page 1 is %d bytes, page size is %d", vm.PageSize+1, vm.PageSize)
	if r, err := MaterializeFrom(src, 2); err == nil || err.Error() != want {
		head := -1
		if r != nil {
			head = int(r.Mem[2*vm.PageSize])
		}
		t.Fatalf("MaterializeFrom: error %v (page 2 starts %#x), want %q", err, head, want)
	}
	var lh LiveStateHasher
	if _, err := lh.SeedFold(src, 2, make([]byte, src.mem)); err == nil || err.Error() != want || lh.Seeded() {
		t.Fatalf("SeedFold: error %v, seeded %v; want %q and an unseeded hasher", err, lh.Seeded(), want)
	}
	if _, err := IncrementRange(src, 0, 2); err == nil || err.Error() != want {
		t.Fatalf("IncrementRange: error %v, want %q", err, want)
	}
	if _, err := MaterializeFrom(src, 0); err != nil {
		t.Fatalf("the state below the bad increment: %v", err)
	}
}

// TestSeedFoldAndSeedCopyMatchSeed: folding a state with SeedFold, or copying
// one with SeedCopy, leaves the memory MaterializeFrom builds and a tree whose
// root is Seed's over it, at every snapshot of random chains — images of
// whole pages and with a short tail, pages of zeros and not, one worker and
// four, at 1 and 4 Ps; and no goroutine outlives a fold.
func TestSeedFoldAndSeedCopyMatchSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	before := runtime.NumGoroutine()
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, mem := range []int{200 * vm.PageSize, 70*vm.PageSize + 100, 100} {
			chain := randomIncs(rng, mem, 4)
			for k := range chain.snaps {
				want, err := MaterializeFrom(chain, k)
				if err != nil {
					t.Fatal(err)
				}
				var seeded LiveStateHasher
				root := seeded.Seed(want.Mem, want.Machine, want.AuthDevice)
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("P%d, %d bytes, snapshot %d, %d workers", procs, mem, k, workers)
					folded := LiveStateHasher{Workers: workers}
					mem := make([]byte, mem)
					s, err := folded.SeedFold(chain, k, mem)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !bytes.Equal(mem, want.Mem) || s != chain.snaps[k] {
						t.Fatalf("%s: SeedFold's state is not MaterializeFrom's", label)
					}
					if err := folded.Verify(s.Machine, s.AuthDevice, root); err != nil || folded.MemRoot() != seeded.MemRoot() {
						t.Fatalf("%s: SeedFold's tree: %v", label, err)
					}
					copied := LiveStateHasher{Workers: workers}
					into := make([]byte, len(want.Mem)+vm.PageSize)
					copied.SeedCopy(want, into)
					if !bytes.Equal(into[:len(want.Mem)], want.Mem) || copied.MemRoot() != seeded.MemRoot() {
						t.Fatalf("%s: SeedCopy's copy or tree differs", label)
					}
					if err := copied.SeedVerify(want, root); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after the folds, %d before", after, before)
	}
}
