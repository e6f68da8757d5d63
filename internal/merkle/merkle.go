// Package merkle implements the hash tree the AVMM maintains over the AVM's
// state (paper §4.4, "Snapshots"). After each snapshot the monitor records
// the top-level hash in the tamper-evident log; an auditor who downloads a
// snapshot — or only the parts of the state accessed during replay — can
// authenticate what it received against that root.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"sort"
	"sync"
)

// HashSize is the size in bytes of all hashes used by the tree.
const HashSize = sha256.Size

// Hash is a node or leaf digest.
type Hash [HashSize]byte

// leafPrefix and innerPrefix domain-separate leaf hashes from interior
// hashes so that an interior node can never be presented as a leaf.
const (
	leafPrefix  = 0x00
	innerPrefix = 0x01
)

// hasher wraps a reusable SHA-256 state so bulk tree construction does not
// allocate a fresh digest (and output slice) per node.
type hasher struct{ h hash.Hash }

func (s *hasher) init() {
	if s.h == nil {
		s.h = sha256.New()
	}
}

func (s *hasher) leaf(index int, data []byte, out *Hash) {
	s.init()
	var hdr [9]byte
	hdr[0] = leafPrefix
	binary.BigEndian.PutUint64(hdr[1:], uint64(index))
	s.h.Reset()
	s.h.Write(hdr[:])
	s.h.Write(data)
	s.h.Sum(out[:0])
}

func (s *hasher) inner(left, right *Hash, out *Hash) {
	s.init()
	s.h.Reset()
	s.h.Write([]byte{innerPrefix})
	s.h.Write(left[:])
	s.h.Write(right[:])
	s.h.Sum(out[:0])
}

// HashLeaf digests one leaf (a page of machine state) together with its
// index, so that identical pages at different indices hash differently.
func HashLeaf(index int, data []byte) Hash {
	var s hasher
	var out Hash
	s.leaf(index, data, &out)
	return out
}

func hashInner(left, right Hash) Hash {
	var s hasher
	var out Hash
	s.inner(&left, &right, &out)
	return out
}

// Tree is a fixed-shape binary hash tree over a constant number of leaves.
// The AVMM builds one tree per state region (memory pages, disk blocks) and
// updates leaves incrementally as pages are dirtied.
type Tree struct {
	leaves int
	// nodes stores the complete binary tree in heap order: nodes[1] is the
	// root, nodes[2i] and nodes[2i+1] are children of nodes[i]. Leaf i lives
	// at nodes[base+i] where base is the number of internal slots.
	nodes []Hash
	base  int
	// hs is a reusable digest for the incremental Update path. Fill uses
	// per-worker digests instead; a Tree is not safe for concurrent use.
	hs hasher
	// scratch holds UpdateBatch's working set of node positions so repeated
	// batch updates (one per snapshot entry during replay) do not allocate.
	scratch []int
}

// newShell allocates a tree and hashes only the padding leaves beyond
// nLeaves; the addressable leaves and the interior are left for the caller
// to fill (via Fill, or New's empty-leaf initialization).
func newShell(nLeaves int) *Tree {
	if nLeaves < 1 {
		nLeaves = 1
	}
	base := 1
	for base < nLeaves {
		base *= 2
	}
	t := &Tree{leaves: nLeaves, base: base, nodes: make([]Hash, 2*base)}
	empty := HashLeaf(0, nil)
	for i := nLeaves; i < base; i++ {
		t.nodes[base+i] = empty
	}
	return t
}

// New builds a tree over nLeaves leaves, all initialized to the hash of an
// empty page. nLeaves is rounded up to a power of two internally.
func New(nLeaves int) *Tree {
	t := newShell(nLeaves)
	t.Fill(func(int) []byte { return nil }, 1)
	return t
}

// DefaultWorkers is the fan-out bulk hashing uses when the caller passes
// workers <= 0: every available CPU, capped to keep nested parallel audits
// from oversubscribing the scheduler.
func DefaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 16 {
		w = 16
	}
	return w
}

// Fill recomputes every addressable leaf from data (data(i) must return
// leaf i's contents; nil means an empty page) and rebuilds the interior.
// Leaf hashing — the bulk of the work for page-sized leaves — fans out
// over up to workers goroutines; workers <= 0 selects DefaultWorkers().
// The interior fold is serial: it is ~1.5% of the hashed bytes when leaves
// are 4 KiB pages.
func (t *Tree) Fill(data func(i int) []byte, workers int) {
	HashLeaves(t.nodes[t.base:t.base+t.leaves], func(i int) (int, []byte) { return i, data(i) }, workers)
	t.FoldInterior()
}

// HashLeaves sets out[j] to HashLeaf(leaf(j)) for every j, where leaf(j)
// returns the index and the contents of the j-th leaf: the leaf hashing of
// Fill, for a caller that keeps the hashes itself. It runs on up to workers
// goroutines (<= 0 selects DefaultWorkers()), each with a digest of its own,
// and returns when every hash is set.
func HashLeaves(out []Hash, leaf func(j int) (index int, data []byte), workers int) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	workers = min(workers, len(out))
	hash := func(lo, hi int) {
		var s hasher
		for j := lo; j < hi; j++ {
			i, data := leaf(j)
			s.leaf(i, data, &out[j])
		}
	}
	if workers <= 1 {
		hash(0, len(out))
		return
	}
	var wg sync.WaitGroup
	chunk := (len(out) + workers - 1) / workers
	for lo := 0; lo < len(out); lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			hash(lo, hi)
		}(lo, min(lo+chunk, len(out)))
	}
	wg.Wait()
}

// FoldInterior recomputes every interior node from the leaves, bottom up.
// It is the second half of Fill, for a caller that set the leaves itself
// (SetLeaf) as their contents arrived.
func (t *Tree) FoldInterior() {
	t.hs.init()
	for i := t.base - 1; i >= 1; i-- {
		t.hs.inner(&t.nodes[2*i], &t.nodes[2*i+1], &t.nodes[i])
	}
}

// leafHashers lends SetLeaf a digest per call, so calls on other goroutines
// neither share one nor allocate one per leaf.
var leafHashers = sync.Pool{New: func() any { return new(hasher) }}

// SetLeaf sets leaf i to the hash of data and leaves the interior alone:
// the root is stale until FoldInterior. Calls for distinct leaves may run
// concurrently with each other (not with any other method). i must be in
// [0, Leaves()).
func (t *Tree) SetLeaf(i int, data []byte) {
	if i < 0 || i >= t.leaves {
		panic(fmt.Sprintf("merkle: leaf index %d out of range [0,%d)", i, t.leaves))
	}
	s := leafHashers.Get().(*hasher)
	s.leaf(i, data, &t.nodes[t.base+i])
	leafHashers.Put(s)
}

// SetLeafHash sets leaf i to h, a hash the caller already holds for the
// leaf's contents (HashLeaf(i, data)), and otherwise behaves as SetLeaf.
func (t *Tree) SetLeafHash(i int, h Hash) {
	if i < 0 || i >= t.leaves {
		panic(fmt.Sprintf("merkle: leaf index %d out of range [0,%d)", i, t.leaves))
	}
	t.nodes[t.base+i] = h
}

// Reshape makes the tree one over nLeaves leaves, reusing node storage when
// the shape is unchanged, with the padding leaves hashed and nothing else:
// the caller fills the addressable leaves (Fill, or SetLeaf then
// FoldInterior). A zero-value Tree is a valid receiver.
func (t *Tree) Reshape(nLeaves int) {
	if nLeaves < 1 {
		nLeaves = 1
	}
	if t.nodes == nil || t.leaves != nLeaves {
		*t = *newShell(nLeaves)
	}
}

// SeedFrom re-seeds the tree over nLeaves leaves from data with one
// parallel Fill. Node storage is reused when nLeaves matches the tree's
// current shape and reallocated otherwise, so a long-lived tree (e.g. a
// replay's live state hasher) can be pointed at a new epoch's materialized
// state in a single call. A zero-value Tree is a valid receiver.
func (t *Tree) SeedFrom(nLeaves int, data func(i int) []byte, workers int) {
	t.Reshape(nLeaves)
	t.Fill(data, workers)
}

// Seeded builds a tree over nLeaves leaves and fills it from data in one
// parallel pass — New followed by Fill, without New's wasted empty-leaf
// build.
func Seeded(nLeaves int, data func(i int) []byte, workers int) *Tree {
	t := newShell(nLeaves)
	t.Fill(data, workers)
	return t
}

// Leaves returns the number of addressable leaves.
func (t *Tree) Leaves() int { return t.leaves }

// Update recomputes the path from leaf index to the root after the leaf's
// data changed. It is O(log n), which is what makes incremental snapshots
// cheap (§4.4).
func (t *Tree) Update(index int, data []byte) error {
	if index < 0 || index >= t.leaves {
		return fmt.Errorf("merkle: leaf index %d out of range [0,%d)", index, t.leaves)
	}
	i := t.base + index
	t.hs.leaf(index, data, &t.nodes[i])
	for i > 1 {
		i /= 2
		t.hs.inner(&t.nodes[2*i], &t.nodes[2*i+1], &t.nodes[i])
	}
	return nil
}

// batchLeavesPerWorker is the minimum number of leaves UpdateBatch hashes
// per goroutine before fanning out; below it the spawn cost dwarfs the
// hashing and the batch runs serially.
const batchLeavesPerWorker = 32

// UpdateBatch recomputes the given leaves from data (data(i) must return
// leaf i's contents, as in Fill) and then rebuilds only the union of their
// root paths, visiting each interior node once no matter how many dirty
// leaves share it. Cost is O(dirty) leaf hashes plus O(dirty · log n)
// interior hashes with shared prefixes deduplicated — the §4.4 incremental
// commitment, generalized from Update's single leaf. Large batches fan the
// leaf hashing out over up to workers goroutines (workers <= 0 selects
// DefaultWorkers()); the path fold is serial, as in Fill. Indices may be
// unsorted and may repeat; an out-of-range index fails the whole batch
// before any leaf is written.
func (t *Tree) UpdateBatch(indices []int, data func(i int) []byte, workers int) error {
	return t.UpdateBatchKnown(indices, data, nil, workers)
}

// UpdateBatchKnown is UpdateBatch for a caller that already holds some of
// the new leaf hashes: where known(i) reports a hash, that hash is leaf i and
// data(i) is not called. known may be nil, and is called on the leaf pass's
// goroutines.
func (t *Tree) UpdateBatchKnown(indices []int, data func(i int) []byte, known func(i int) (Hash, bool), workers int) error {
	if len(indices) == 0 {
		return nil
	}
	for _, idx := range indices {
		if idx < 0 || idx >= t.leaves {
			return fmt.Errorf("merkle: leaf index %d out of range [0,%d)", idx, t.leaves)
		}
	}
	// Sort and dedupe into the scratch buffer first: the path fold needs
	// sorted positions anyway, and the parallel leaf pass must never hand
	// the same leaf slot to two goroutines (repeated indices would race on
	// the node write even though the bytes agree).
	cur := append(t.scratch[:0], indices...)
	sort.Ints(cur)
	w := 0
	for _, idx := range cur {
		if w > 0 && cur[w-1] == idx {
			continue
		}
		cur[w] = idx
		w++
	}
	cur = cur[:w]

	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if max := len(cur) / batchLeavesPerWorker; workers > max {
		workers = max
	}
	leaf := func(s *hasher, idx int) {
		if known != nil {
			if h, ok := known(idx); ok {
				t.nodes[t.base+idx] = h
				return
			}
		}
		s.leaf(idx, data(idx), &t.nodes[t.base+idx])
	}
	if workers <= 1 {
		for _, idx := range cur {
			leaf(&t.hs, idx)
		}
	} else {
		var wg sync.WaitGroup
		chunk := (len(cur) + workers - 1) / workers
		for lo := 0; lo < len(cur); lo += chunk {
			hi := lo + chunk
			if hi > len(cur) {
				hi = len(cur)
			}
			wg.Add(1)
			go func(part []int) {
				defer wg.Done()
				var s hasher
				for _, idx := range part {
					leaf(&s, idx)
				}
			}(cur[lo:hi])
		}
		wg.Wait()
	}

	// Fold the union of root paths level by level. Positions stay sorted, so
	// each level's parents dedupe with a linear compaction; every interior
	// node on any dirty path is rehashed exactly once.
	for i := range cur {
		cur[i] += t.base
	}
	t.hs.init()
	for cur[0] > 1 {
		w := 0
		for _, pos := range cur {
			p := pos / 2
			if w > 0 && cur[w-1] == p {
				continue
			}
			cur[w] = p
			w++
			t.hs.inner(&t.nodes[2*p], &t.nodes[2*p+1], &t.nodes[p])
		}
		cur = cur[:w]
	}
	t.scratch = cur[:0]
	return nil
}

// Root returns the current top-level hash.
func (t *Tree) Root() Hash { return t.nodes[1] }

// Proof is an inclusion proof: the sibling hashes on the path from a leaf
// to the root. An auditor uses proofs to authenticate partial state
// downloads ("incrementally request the parts of the state that are
// accessed during replay", §4.4).
type Proof struct {
	Index    int
	Siblings []Hash
}

// Prove returns the inclusion proof for leaf index.
func (t *Tree) Prove(index int) (Proof, error) {
	if index < 0 || index >= t.leaves {
		return Proof{}, fmt.Errorf("merkle: leaf index %d out of range [0,%d)", index, t.leaves)
	}
	p := Proof{Index: index}
	for i := t.base + index; i > 1; i /= 2 {
		p.Siblings = append(p.Siblings, t.nodes[i^1])
	}
	return p, nil
}

// ErrProofMismatch reports that a proof does not connect the claimed leaf
// data to the given root.
var ErrProofMismatch = errors.New("merkle: proof does not match root")

// VerifyProof checks that data is the content of leaf proof.Index in a tree
// whose root is root.
func VerifyProof(root Hash, proof Proof, data []byte) error {
	h := HashLeaf(proof.Index, data)
	pos := proof.Index
	for _, sib := range proof.Siblings {
		if pos%2 == 0 {
			h = hashInner(h, sib)
		} else {
			h = hashInner(sib, h)
		}
		pos /= 2
	}
	if h != root {
		return ErrProofMismatch
	}
	return nil
}

// BatchProof proves a batch leaf update against two roots: it carries the
// old hashes of the updated leaves plus the sibling hashes on the union of
// their root paths that are not derivable from the updated leaves
// themselves. FoldVerify folds the old leaf hashes through the siblings to
// recover the pre-update root, and the new leaf contents through the same
// siblings to recover the post-update root — the §4.4 incremental
// commitment made checkable by a third party holding no tree at all.
type BatchProof struct {
	// Leaves is the number of addressable leaves in the proven tree; the
	// fold needs it to reproduce the tree's padded shape.
	Leaves int
	// Indices are the updated leaf indices, sorted and deduplicated.
	Indices []int
	// Old are the pre-update hashes of the updated leaves, parallel to
	// Indices.
	Old []Hash
	// Siblings are the interior/leaf hashes adjacent to the union of root
	// paths, in fold order (level by level from the leaves up), excluding
	// every node derivable from the updated leaves.
	Siblings []Hash
}

// ProveBatch extracts a BatchProof for the given leaf indices from the
// tree's current state. Call it before applying the corresponding
// UpdateBatch: the proof's Old hashes and Siblings are read from the
// pre-update tree, and the siblings are untouched by the update itself, so
// the same proof folds both the old and the new leaf set. Indices may be
// unsorted and may repeat.
func (t *Tree) ProveBatch(indices []int) (BatchProof, error) {
	if len(indices) == 0 {
		return BatchProof{Leaves: t.leaves}, nil
	}
	for _, idx := range indices {
		if idx < 0 || idx >= t.leaves {
			return BatchProof{}, fmt.Errorf("merkle: leaf index %d out of range [0,%d)", idx, t.leaves)
		}
	}
	sorted := append([]int(nil), indices...)
	sort.Ints(sorted)
	w := 0
	for _, idx := range sorted {
		if w > 0 && sorted[w-1] == idx {
			continue
		}
		sorted[w] = idx
		w++
	}
	sorted = sorted[:w]

	p := BatchProof{Leaves: t.leaves, Indices: sorted}
	p.Old = make([]Hash, len(sorted))
	cur := make([]int, len(sorted))
	for i, idx := range sorted {
		p.Old[i] = t.nodes[t.base+idx]
		cur[i] = t.base + idx
	}
	// Walk the union of root paths level by level, exactly as UpdateBatch
	// folds it. A position's sibling is emitted only when it is not itself
	// in the current level's set — siblings inside the set are recomputed by
	// the verifier from the leaves, not supplied.
	for cur[0] > 1 {
		w := 0
		for i := 0; i < len(cur); i++ {
			pos := cur[i]
			if pos%2 == 0 && i+1 < len(cur) && cur[i+1] == pos^1 {
				i++ // sibling pair both in the set: no external sibling
			} else {
				p.Siblings = append(p.Siblings, t.nodes[pos^1])
			}
			par := pos / 2
			if w > 0 && cur[w-1] == par {
				continue
			}
			cur[w] = par
			w++
		}
		cur = cur[:w]
	}
	return p, nil
}

// foldBatch folds a set of leaf hashes (parallel to proof.Indices) through
// proof.Siblings up to a root. It returns ErrProofMismatch when the proof's
// sibling stream is too short or too long for the tree shape.
func foldBatch(proof *BatchProof, leafHash []Hash) (Hash, error) {
	base := 1
	nLeaves := proof.Leaves
	if nLeaves < 1 {
		nLeaves = 1
	}
	for base < nLeaves {
		base *= 2
	}
	pos := make([]int, len(proof.Indices))
	hs := make([]Hash, len(proof.Indices))
	for i, idx := range proof.Indices {
		pos[i] = base + idx
		hs[i] = leafHash[i]
	}
	sib := proof.Siblings
	for pos[0] > 1 {
		w := 0
		for i := 0; i < len(pos); i++ {
			p := pos[i]
			var left, right Hash
			if p%2 == 0 && i+1 < len(pos) && pos[i+1] == p^1 {
				left, right = hs[i], hs[i+1]
				i++
			} else {
				if len(sib) == 0 {
					return Hash{}, ErrProofMismatch
				}
				if p%2 == 0 {
					left, right = hs[i], sib[0]
				} else {
					left, right = sib[0], hs[i]
				}
				sib = sib[1:]
			}
			par := p / 2
			if w > 0 && pos[w-1] == par {
				continue
			}
			pos[w] = par
			hs[w] = hashInner(left, right)
			w++
		}
		pos, hs = pos[:w], hs[:w]
	}
	if len(sib) != 0 {
		return Hash{}, ErrProofMismatch
	}
	return hs[0], nil
}

// FoldVerify checks a proof-carrying batch update: that proof's old leaf
// hashes fold to prevRoot, and that newData — the updated contents of
// proof.Indices, in the same order — folds through the same siblings to
// nextRoot. A verifier holding neither tree nor state authenticates the
// whole transition in O(dirty · log n); any tampering with the shipped
// pages, the proof, or either root yields ErrProofMismatch.
func FoldVerify(prevRoot, nextRoot Hash, proof BatchProof, newData [][]byte) error {
	if len(proof.Indices) != len(proof.Old) || len(proof.Indices) != len(newData) {
		return ErrProofMismatch
	}
	if len(proof.Indices) == 0 {
		if prevRoot != nextRoot || len(proof.Siblings) != 0 {
			return ErrProofMismatch
		}
		return nil
	}
	for i := 1; i < len(proof.Indices); i++ {
		if proof.Indices[i] <= proof.Indices[i-1] {
			return ErrProofMismatch
		}
	}
	if proof.Indices[0] < 0 || proof.Indices[len(proof.Indices)-1] >= proof.Leaves {
		return ErrProofMismatch
	}
	got, err := foldBatch(&proof, proof.Old)
	if err != nil {
		return err
	}
	if got != prevRoot {
		return ErrProofMismatch
	}
	newHashes := make([]Hash, len(newData))
	var s hasher
	for i, idx := range proof.Indices {
		s.leaf(idx, newData[i], &newHashes[i])
	}
	got, err = foldBatch(&proof, newHashes)
	if err != nil {
		return err
	}
	if got != nextRoot {
		return ErrProofMismatch
	}
	return nil
}

// RootOf computes the root over a full set of leaves without building a
// persistent tree. Used by auditors to check a downloaded snapshot against
// the root recorded in the log (§4.5, "Verifying the snapshot").
func RootOf(leaves [][]byte) Hash {
	return RootOfParallel(leaves, 1)
}

// RootOfParallel is RootOf with the leaf hashing fanned out over up to
// workers goroutines (workers <= 0 selects DefaultWorkers()).
func RootOfParallel(leaves [][]byte, workers int) Hash {
	t := newShell(len(leaves))
	t.Fill(func(i int) []byte { return leaves[i] }, workers)
	return t.Root()
}
