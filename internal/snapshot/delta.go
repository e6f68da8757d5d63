// Proof-carrying snapshot deltas: the dirty-page increment between two
// consecutive snapshots, packaged with the Merkle fold proof that connects
// the previous memory root to the next one. A party holding the verified
// state at snapshot k-1 — or no state at all — can check the transition
// k-1 → k in O(dirty · log n) without trusting whoever shipped the delta,
// which is what lets dispatched epoch jobs carry increments instead of
// full materialized states.
package snapshot

import (
	"fmt"
	"sort"

	"repro/internal/merkle"
	"repro/internal/vm"
)

// DeltaPage is one dirtied page in a delta, in ascending index order.
type DeltaPage struct {
	Index int
	Data  []byte
}

// Cost is the per-epoch cost model the scheduler sizes and prices jobs
// with: how many guest instructions the epoch replays and how many dirty
// bytes its delta ships.
type Cost struct {
	// Instructions retired between the two snapshots (0 when the recording
	// predates ICount capture).
	Instructions uint64
	// DirtyBytes is the payload size of the dirty-page increment.
	DirtyBytes int
}

// Delta is the proof-carrying transition from snapshot FromIndex to
// FromIndex+1: the dirty-page increment, the fold proof over it, the
// machine/device blobs of the destination snapshot, and both committed
// roots.
type Delta struct {
	// FromIndex is the base snapshot; the delta advances it to FromIndex+1.
	FromIndex int
	// FromRoot/ToRoot are the combined (log-committed) roots of the two
	// snapshots; FromMemRoot/ToMemRoot the memory tree roots the fold proof
	// connects.
	FromRoot    [32]byte
	ToRoot      [32]byte
	FromMemRoot merkle.Hash
	ToMemRoot   merkle.Hash
	// Pages is the dirty increment, sorted by page index and parallel to
	// Proof.Indices.
	Pages []DeltaPage
	// Proof folds Pages' old hashes to FromMemRoot and their new contents
	// to ToMemRoot.
	Proof merkle.BatchProof
	// Machine, Device and AuthDevice are the destination snapshot's blobs.
	Machine    []byte
	Device     []byte
	AuthDevice []byte
	// Cost prices the epoch that ends at the destination snapshot.
	Cost Cost
}

// DeltaBytes is the shipped payload size of the delta: pages, blobs, roots
// and proof material. It is what the dispatch stats report as delta job
// bytes.
func (d *Delta) DeltaBytes() int {
	n := len(d.Machine) + len(d.Device) + len(d.AuthDevice) + 4*32
	for _, p := range d.Pages {
		n += 4 + len(p.Data)
	}
	n += len(d.Proof.Old)*merkle.HashSize + len(d.Proof.Siblings)*merkle.HashSize + len(d.Proof.Indices)*4
	return n
}

// Delta returns the proof-carrying transition from snapshot k-1 to
// snapshot k (k >= 1) — DeltaFrom over this store.
func (st *Store) Delta(k int) (*Delta, error) {
	return DeltaFrom(st, k)
}

// DeltaFrom builds the proof-carrying transition from snapshot k-1 to
// snapshot k (k >= 1) out of any increment source — the archive-backed
// delta path behind delta-shipped dispatch. Snapshots recorded before
// proof capture rebuild the proof by materializing the base state —
// O(state) once, instead of the O(dirty · log n) the captured path pays.
func DeltaFrom(src IncrementSource, k int) (*Delta, error) {
	if k < 1 || k >= src.Count() {
		return nil, fmt.Errorf("snapshot: delta index %d out of range [1,%d)", k, src.Count())
	}
	from, err := src.Increment(k - 1)
	if err != nil {
		return nil, err
	}
	to, err := src.Increment(k)
	if err != nil {
		return nil, err
	}
	d := &Delta{
		FromIndex:   k - 1,
		FromRoot:    from.Root,
		ToRoot:      to.Root,
		FromMemRoot: from.MemRoot,
		ToMemRoot:   to.MemRoot,
		Machine:     to.Machine,
		Device:      to.Device,
		AuthDevice:  to.AuthDevice,
	}
	indices := make([]int, 0, len(to.MemPages))
	for p := range to.MemPages {
		indices = append(indices, p)
	}
	sort.Ints(indices)
	d.Pages = make([]DeltaPage, len(indices))
	for i, p := range indices {
		d.Pages[i] = DeltaPage{Index: p, Data: to.MemPages[p]}
		d.Cost.DirtyBytes += len(to.MemPages[p])
	}
	if to.ICount >= from.ICount {
		d.Cost.Instructions = to.ICount - from.ICount
	}
	if to.Proof.Leaves != 0 {
		d.Proof = to.Proof
	} else {
		// Legacy snapshot without a captured proof: rebuild the base tree
		// and extract the proof from it.
		base, err := MaterializeFrom(src, k-1)
		if err != nil {
			return nil, err
		}
		pageCount := src.MemSize() / vm.PageSize
		tree := merkle.Seeded(pageCount, func(p int) []byte { return statePage(base.Mem, p) }, 0)
		proof, err := tree.ProveBatch(indices)
		if err != nil {
			return nil, err
		}
		d.Proof = proof
	}
	return d, nil
}

// Cost returns the per-epoch cost model for the epoch that ends at
// snapshot k: instructions retired since snapshot k-1 (the epoch's replay
// work) and the dirty bytes its delta ships. k == 0 prices the boot
// capture (all pages, no instructions attributable to an epoch).
func (st *Store) Cost(k int) (Cost, error) {
	if k < 0 || k >= len(st.snaps) {
		return Cost{}, fmt.Errorf("snapshot: index %d out of range [0,%d)", k, len(st.snaps))
	}
	var c Cost
	for _, page := range st.snaps[k].MemPages {
		c.DirtyBytes += len(page)
	}
	if k > 0 && st.snaps[k].ICount >= st.snaps[k-1].ICount {
		c.Instructions = st.snaps[k].ICount - st.snaps[k-1].ICount
	}
	return c, nil
}

// VerifyDelta checks a delta against a trusted base: that the delta's
// claimed previous memory root is the one the base state commits to, and
// that the fold proof connects it — through exactly the shipped pages — to
// the claimed next roots. base is the verified state at d.FromIndex; its
// Root must have been checked against the log before trusting this call.
// Nothing is mutated. A tampered page, proof, or root fails here, before
// any replay work is spent.
func VerifyDelta(base *Restored, d *Delta) error {
	if base.Index != d.FromIndex {
		return fmt.Errorf("snapshot: delta applies to snapshot %d, base is %d", d.FromIndex, base.Index)
	}
	// Bind the claimed memory root to the base's combined root: the base's
	// machine/device blobs are part of the trusted state, so a fabricated
	// FromMemRoot cannot reproduce base.Root.
	if got := CombineRoot(d.FromMemRoot, base.Machine, base.AuthDevice); got != base.Root {
		return fmt.Errorf("snapshot: delta previous root %x does not match base state root %x", got[:8], base.Root[:8])
	}
	newData := make([][]byte, len(d.Pages))
	pageCount := statePages(len(base.Mem))
	for i, p := range d.Pages {
		if p.Index < 0 || p.Index >= pageCount {
			return fmt.Errorf("snapshot: delta page %d out of range [0,%d)", p.Index, pageCount)
		}
		if len(p.Data) > vm.PageSize {
			return fmt.Errorf("snapshot: delta page %d is %d bytes, page size is %d", p.Index, len(p.Data), vm.PageSize)
		}
		newData[i] = p.Data
	}
	if err := merkle.FoldVerify(d.FromMemRoot, d.ToMemRoot, d.Proof, newData); err != nil {
		return fmt.Errorf("snapshot: delta fold proof for snapshot %d: %w", d.FromIndex+1, err)
	}
	if got := CombineRoot(d.ToMemRoot, d.Machine, d.AuthDevice); got != d.ToRoot {
		return fmt.Errorf("snapshot: delta next root %x does not match combined root %x", d.ToRoot[:8], got[:8])
	}
	return nil
}

// ApplyDelta verifies d against base and returns the materialized state at
// snapshot d.FromIndex+1. base is not mutated, so the caller may keep it.
// The returned state's Root equals d.ToRoot, which the caller must still
// compare against the log-committed root for the epoch it starts.
func ApplyDelta(base *Restored, d *Delta) (*Restored, error) {
	if err := VerifyDelta(base, d); err != nil {
		return nil, err
	}
	mem := append([]byte(nil), base.Mem...)
	for _, p := range d.Pages {
		copy(mem[p.Index*vm.PageSize:], p.Data)
	}
	return &Restored{
		Index:      d.FromIndex + 1,
		Mem:        mem,
		Machine:    append([]byte(nil), d.Machine...),
		Device:     append([]byte(nil), d.Device...),
		AuthDevice: append([]byte(nil), d.AuthDevice...),
		Root:       d.ToRoot,
	}, nil
}
