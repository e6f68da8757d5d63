package merkle

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestRootChangesWithAnyLeaf(t *testing.T) {
	tr := New(16)
	r0 := tr.Root()
	if err := tr.Update(3, []byte("x")); err != nil {
		t.Fatal(err)
	}
	r1 := tr.Root()
	if r0 == r1 {
		t.Fatal("root unchanged after update")
	}
	if err := tr.Update(3, nil); err != nil {
		t.Fatal(err)
	}
	if tr.Root() != r0 {
		t.Fatal("root did not return after undo")
	}
}

func TestProveVerify(t *testing.T) {
	tr := New(10)
	leaves := make([][]byte, 10)
	for i := range leaves {
		leaves[i] = []byte{byte(i), byte(i * 3)}
		if err := tr.Update(i, leaves[i]); err != nil {
			t.Fatal(err)
		}
	}
	root := tr.Root()
	for i := range leaves {
		p, err := tr.Prove(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyProof(root, p, leaves[i]); err != nil {
			t.Fatalf("leaf %d proof rejected: %v", i, err)
		}
		// Wrong data must fail.
		if VerifyProof(root, p, []byte("bogus")) == nil {
			t.Fatalf("leaf %d accepted wrong data", i)
		}
	}
}

func TestProofDoesNotTransferBetweenLeaves(t *testing.T) {
	tr := New(8)
	same := []byte("identical")
	for i := 0; i < 8; i++ {
		if err := tr.Update(i, same); err != nil {
			t.Fatal(err)
		}
	}
	p0, err := tr.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := tr.Prove(1)
	if err != nil {
		t.Fatal(err)
	}
	// Indexed leaf hashing: a proof for leaf 0 must not verify with leaf
	// 1's index even though contents are identical.
	p0.Index = 1
	if VerifyProof(tr.Root(), p0, same) == nil {
		t.Fatal("proof transferred to another index")
	}
	p0.Index = 0
	if err := VerifyProof(tr.Root(), p0, same); err != nil {
		t.Fatal(err)
	}
	_ = p1
}

func TestBoundsChecking(t *testing.T) {
	tr := New(4)
	if err := tr.Update(-1, nil); err == nil {
		t.Error("negative index accepted")
	}
	if err := tr.Update(4, nil); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := tr.Prove(9); err == nil {
		t.Error("out-of-range proof accepted")
	}
	if New(0).Leaves() != 1 {
		t.Error("zero-leaf tree not clamped")
	}
}

func TestRootOfMatchesIncremental(t *testing.T) {
	leaves := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc"), nil, []byte("e")}
	tr := New(len(leaves))
	for i, l := range leaves {
		if err := tr.Update(i, l); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Root() != RootOf(leaves) {
		t.Fatal("RootOf disagrees with incremental tree")
	}
}

// TestPropertyProofSoundness: random trees, random tampering — a proof
// verifies iff leaf data and index match what the tree committed to.
func TestPropertyProofSoundness(t *testing.T) {
	f := func(seed int64, nRaw uint8, idxRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%60) + 2
		tr := New(n)
		leaves := make([][]byte, n)
		for i := range leaves {
			leaves[i] = make([]byte, rng.Intn(50))
			rng.Read(leaves[i])
			if err := tr.Update(i, leaves[i]); err != nil {
				return false
			}
		}
		idx := int(idxRaw) % n
		p, err := tr.Prove(idx)
		if err != nil {
			return false
		}
		if VerifyProof(tr.Root(), p, leaves[idx]) != nil {
			return false
		}
		tampered := append([]byte(nil), leaves[idx]...)
		tampered = append(tampered, 0xFF)
		return VerifyProof(tr.Root(), p, tampered) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyUpdateBatchEquivalence: for random trees and random dirty
// sets, UpdateBatch must land on exactly the state a sequence of single
// Updates produces, which must equal a fresh Fill over the final leaves —
// including the padding-leaf boundary (leaf counts that are not powers of
// two) and duplicate/unsorted dirty indices.
func TestPropertyUpdateBatchEquivalence(t *testing.T) {
	f := func(seed int64, nRaw uint8, dirtyRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%70) + 1 // exercises 1-leaf trees and non-powers of two
		leaves := make([][]byte, n)
		for i := range leaves {
			leaves[i] = make([]byte, rng.Intn(40))
			rng.Read(leaves[i])
		}
		batched := Seeded(n, func(i int) []byte { return leaves[i] }, 1)
		sequential := Seeded(n, func(i int) []byte { return leaves[i] }, 1)

		nDirty := int(dirtyRaw % 32)
		dirty := make([]int, nDirty)
		for i := range dirty {
			dirty[i] = rng.Intn(n) // unsorted, possibly repeated
			leaves[dirty[i]] = append(leaves[dirty[i]], byte(rng.Intn(256)))
		}
		if err := batched.UpdateBatch(dirty, func(i int) []byte { return leaves[i] }, 4); err != nil {
			return false
		}
		for _, idx := range dirty {
			if err := sequential.Update(idx, leaves[idx]); err != nil {
				return false
			}
		}
		fresh := Seeded(n, func(i int) []byte { return leaves[i] }, 2)
		return batched.Root() == sequential.Root() && batched.Root() == fresh.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateBatchDuplicateIndicesParallel: heavy duplication across a
// parallel batch must neither race (two workers hashing the same leaf
// slot; caught under -race) nor corrupt the root.
func TestUpdateBatchDuplicateIndicesParallel(t *testing.T) {
	const n = 256
	leaves := make([][]byte, n)
	data := func(i int) []byte { return leaves[i] }
	for i := range leaves {
		leaves[i] = []byte{byte(i)}
	}
	tr := Seeded(n, data, 1)
	dirty := make([]int, 0, 4*n)
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < n; i++ {
			dirty = append(dirty, i)
			leaves[i] = []byte{byte(i), byte(rep)}
		}
	}
	if err := tr.UpdateBatch(dirty, data, 8); err != nil {
		t.Fatal(err)
	}
	if tr.Root() != RootOf(leaves) {
		t.Fatal("duplicated parallel batch root disagrees with RootOf")
	}
}

func TestUpdateBatchRejectsOutOfRange(t *testing.T) {
	tr := New(5)
	before := tr.Root()
	if err := tr.UpdateBatch([]int{1, 5}, func(int) []byte { return []byte("x") }, 1); err == nil {
		t.Fatal("out-of-range batch index accepted")
	}
	if tr.Root() != before {
		t.Fatal("failed batch mutated the tree")
	}
	if err := tr.UpdateBatch(nil, nil, 1); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestSeedFromReusesAndReshapes(t *testing.T) {
	var tr Tree
	data := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	tr.SeedFrom(3, func(i int) []byte { return data[i] }, 1)
	if tr.Root() != RootOf(data) {
		t.Fatal("seeded root disagrees with RootOf")
	}
	// Reshape to a different leaf count, then back.
	tr.SeedFrom(5, func(i int) []byte { return []byte{byte(i)} }, 1)
	if tr.Leaves() != 5 {
		t.Fatalf("Leaves() = %d after reshape, want 5", tr.Leaves())
	}
	tr.SeedFrom(3, func(i int) []byte { return data[i] }, 1)
	if tr.Root() != RootOf(data) {
		t.Fatal("re-seeded root disagrees with RootOf")
	}
}

func TestNonPowerOfTwoLeafCounts(t *testing.T) {
	for _, n := range []int{1, 3, 5, 7, 9, 100, 127} {
		tr := New(n)
		if tr.Leaves() != n {
			t.Fatalf("Leaves() = %d, want %d", tr.Leaves(), n)
		}
		if err := tr.Update(n-1, []byte("last")); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		p, err := tr.Prove(n - 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := VerifyProof(tr.Root(), p, []byte("last")); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestSetLeafThenFoldInterior: leaves set one by one, in any order and on
// several goroutines at once, then one interior fold, give the root a Fill
// over the same leaves gives — on a fresh tree, and on one reshaped from
// another leaf count and back, whose padding leaves must still be empty.
func TestSetLeafThenFoldInterior(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 5, 8, 100, 1000} {
		leaves := make([][]byte, n)
		for i := range leaves {
			leaves[i] = make([]byte, rng.Intn(64))
			rng.Read(leaves[i])
		}
		var tr Tree
		tr.Reshape(n + 3)
		tr.Reshape(n)
		order := rng.Perm(n)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(part []int) {
				defer wg.Done()
				for _, i := range part {
					tr.SetLeaf(i, leaves[i])
				}
			}(order[g*n/4 : (g+1)*n/4])
		}
		wg.Wait()
		tr.FoldInterior()
		if tr.Root() != RootOf(leaves) {
			t.Fatalf("n=%d: SetLeaf + FoldInterior root disagrees with RootOf", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetLeaf past the addressable leaves did not panic")
		}
	}()
	New(5).SetLeaf(5, nil)
}
