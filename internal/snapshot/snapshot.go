// Package snapshot implements the AVMM's periodic state snapshots (§4.4):
// incremental dirty-page captures of machine memory plus the machine
// register file and device state, authenticated by a hash tree whose root
// is recorded in the tamper-evident log. Snapshots enable spot checking and
// incremental audits (§3.5, §6.12): an auditor can replay any log segment
// that begins and ends at a snapshot.
package snapshot

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sync"

	"repro/internal/merkle"
	"repro/internal/vm"
)

// Snapshot is one incremental capture. MemPages holds only the pages
// dirtied since the previous snapshot (all pages for the first), which is
// what makes frequent snapshots affordable (§4.4 cites Remus-style
// incremental snapshots).
type Snapshot struct {
	// Index is the snapshot's position in the machine's snapshot sequence,
	// starting at 0.
	Index int
	// Landmark is the execution point at which the snapshot was taken.
	Landmark vm.Landmark
	// Root is the authenticated digest recorded in the log: a hash over the
	// memory tree root and the machine/device state.
	Root [32]byte
	// MemRoot is the Merkle root over memory pages.
	MemRoot merkle.Hash
	// MemPages maps page index to page contents for dirtied pages.
	MemPages map[int][]byte
	// Machine is the serialized register file (vm.State.MarshalRegisters).
	Machine []byte
	// Device is the full serialized device state, including the virtual
	// disk, sufficient to resume execution.
	Device []byte
	// AuthDevice is the canonical (replay-deterministic) device state the
	// root is computed over; host-timing fields are excluded.
	AuthDevice []byte
	// IncrementBytes is the serialized size of this incremental snapshot,
	// the quantity §6.12 reports per snapshot.
	IncrementBytes int
	// ICount is the machine's retired-instruction count at capture time;
	// consecutive snapshots' differences give the per-epoch instruction
	// cost the job scheduler prices epochs with.
	ICount uint64
	// Proof is the fold proof for this increment, captured from the hash
	// tree as it stood at the previous snapshot: the dirty leaves' old
	// hashes plus the sibling path material that connects the previous
	// MemRoot to this snapshot's MemRoot. A zero Proof (Leaves == 0) means
	// the snapshot predates proof capture; Delta rebuilds it on demand.
	Proof merkle.BatchProof

	// leafPages and leaves are the Merkle leaves of full pages of MemPages
	// that the increment's source computed from the bytes it hands out
	// (AttachLeaves): leaves[j] is page leafPages[j]'s, and leafPages
	// ascends. Nil for an increment from anywhere but the archive.
	// Unexported, so neither gob nor the wire codec carries them.
	leafPages []int
	leaves    []pageLeaf
}

// pageLeaf is the Merkle leaf of a page, computed from the capture whose
// first byte is at.
type pageLeaf struct {
	at *byte
	h  merkle.Hash
}

// AttachLeaves records hashes[j] as merkle.HashLeaf(pages[j], page) for the
// captured pages named by pages, which ascend; only full pages keep theirs.
// A leaf stands in for hashing its page wherever a fold lands the page in
// memory (FoldInto's final hook, LiveStateHasher.FoldVerify), and only
// while MemPages[p] is still the capture it was computed from: a copy of the
// snapshot that swaps a page out loses that page's leaf.
//
// The caller must have computed the leaves from the very bytes MemPages
// holds and must own those bytes, so that nothing writes them afterwards.
// The archive's verified read is that caller, and the only one.
func (s *Snapshot) AttachLeaves(pages []int, hashes []merkle.Hash) {
	s.leafPages = make([]int, 0, len(pages))
	s.leaves = make([]pageLeaf, 0, len(pages))
	for j, p := range pages {
		if page := s.MemPages[p]; len(page) == vm.PageSize {
			s.leafPages = append(s.leafPages, p)
			s.leaves = append(s.leaves, pageLeaf{&page[0], hashes[j]})
		}
	}
}

// leaf returns the leaf attached for page p if page, p's capture, is the
// full page it was computed from, and nil otherwise.
func (s *Snapshot) leaf(p int, page []byte) *merkle.Hash {
	if len(s.leafPages) == 0 || len(page) != vm.PageSize {
		return nil
	}
	j, ok := slices.BinarySearch(s.leafPages, p)
	if !ok || s.leaves[j].at != &page[0] {
		return nil
	}
	return &s.leaves[j].h
}

// Restored is a materialized full state at some snapshot.
type Restored struct {
	Index      int
	Mem        []byte
	Machine    []byte
	Device     []byte
	AuthDevice []byte
	Root       [32]byte
}

// Store accumulates a machine's snapshot sequence and can materialize the
// full state at any index.
type Store struct {
	pageCount int
	memSize   int
	tree      *merkle.Tree
	snaps     []*Snapshot
}

// NewStore returns a store for machines with the given memory size.
func NewStore(memSize int) *Store {
	pages := (memSize + vm.PageSize - 1) / vm.PageSize
	return &Store{pageCount: pages, memSize: pages * vm.PageSize, tree: merkle.New(pages)}
}

// Count returns the number of snapshots taken.
func (st *Store) Count() int { return len(st.snaps) }

// StoreFile is a snapshot store's sequence of increments, handed to
// archive.WriteRecording, which writes each increment as an authenticated
// archive segment; auditors read the increments back through the
// archive's IncrementSource.
type StoreFile struct {
	MemSize int
	Snaps   []*Snapshot
}

// File returns the store's persistable form. The slice and its snapshots
// are shared, not copied; callers must not mutate them.
func (st *Store) File() StoreFile {
	return StoreFile{MemSize: st.memSize, Snaps: st.snaps}
}

// Snapshot returns snapshot k.
func (st *Store) Snapshot(k int) (*Snapshot, error) {
	if k < 0 || k >= len(st.snaps) {
		return nil, fmt.Errorf("snapshot: index %d out of range [0,%d)", k, len(st.snaps))
	}
	return st.snaps[k], nil
}

// Take captures an incremental snapshot of m (and the opaque serialized
// device state: devBlob for restore, authDevBlob for the authenticated
// root) and clears the machine's dirty tracking. The first snapshot
// captures all pages.
func (st *Store) Take(m *vm.Machine, devBlob, authDevBlob []byte) (*Snapshot, error) {
	if m.NumPages() != st.pageCount {
		return nil, fmt.Errorf("snapshot: machine has %d pages, store sized for %d", m.NumPages(), st.pageCount)
	}
	var pages []int
	if len(st.snaps) == 0 {
		pages = make([]int, st.pageCount)
		for i := range pages {
			pages[i] = i
		}
	} else {
		pages = m.DirtyPages()
	}
	s := &Snapshot{
		Index:      len(st.snaps),
		Landmark:   m.Landmark(),
		MemPages:   make(map[int][]byte, len(pages)),
		Machine:    m.CaptureStateRegisters(),
		Device:     append([]byte(nil), devBlob...),
		AuthDevice: append([]byte(nil), authDevBlob...),
		ICount:     m.ICount,
	}
	if len(st.snaps) == 0 {
		// Full capture: every page is dirty, so bulk-hash the leaves
		// concurrently instead of paying an O(log n) path per page.
		for _, p := range pages {
			s.MemPages[p] = append([]byte(nil), m.Page(p)...)
		}
		st.tree.Fill(func(p int) []byte { return s.MemPages[p] }, 0)
	} else {
		for _, p := range pages {
			s.MemPages[p] = append([]byte(nil), m.Page(p)...)
		}
		// Capture the fold proof against the tree as it still stands at the
		// previous snapshot — the proof's old leaf hashes and siblings must
		// predate the batch update they prove.
		proof, err := st.tree.ProveBatch(pages)
		if err != nil {
			return nil, err
		}
		s.Proof = proof
		// Batch path: rehash the dirty leaves, then fold the union of their
		// root paths once — shared interior nodes are not rehashed per page.
		if err := st.tree.UpdateBatch(pages, func(p int) []byte { return s.MemPages[p] }, 0); err != nil {
			return nil, err
		}
	}
	s.MemRoot = st.tree.Root()
	s.Root = CombineRoot(s.MemRoot, s.Machine, s.AuthDevice)
	s.IncrementBytes = len(s.Machine) + len(s.Device) + len(pages)*(vm.PageSize+4)
	st.snaps = append(st.snaps, s)
	m.ClearDirty()
	return s, nil
}

// CombineRoot folds the memory tree root and the machine/device blobs into
// the single digest recorded in the log.
func CombineRoot(memRoot merkle.Hash, machineBlob, devBlob []byte) [32]byte {
	h := sha256.New()
	h.Write(memRoot[:])
	meta := sha256.New()
	meta.Write(machineBlob)
	meta.Write(devBlob)
	h.Write(meta.Sum(nil))
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// IncrementSource supplies snapshot increments for audit-side
// materialization. *Store implements it over its in-memory sequence; the
// disk archive implements it over verified snapshot segments, which is
// how every engine's Materialize closure can fold states straight from an
// archive. Implementations may read from disk and must return an error —
// never a corrupted increment — when the underlying bytes fail
// verification.
type IncrementSource interface {
	// MemSize is the guest memory size in bytes the folds rebuild into.
	MemSize() int
	// Count is the number of increments available.
	Count() int
	// Increment returns increment k (0 <= k < Count).
	Increment(k int) (*Snapshot, error)
}

// MemSize implements IncrementSource.
func (st *Store) MemSize() int { return st.memSize }

// Increment implements IncrementSource; it is Snapshot by another name.
func (st *Store) Increment(k int) (*Snapshot, error) { return st.Snapshot(k) }

// MaterializeFrom reconstructs the complete state at snapshot k from any
// increment source: FoldInto a new image. Every page and blob the state
// holds is a copy, so a source may hand out increments whose pages are
// windows of its read buffers.
func MaterializeFrom(src IncrementSource, k int) (*Restored, error) {
	mem := make([]byte, src.MemSize())
	s, err := FoldInto(src, k, mem, nil, 1)
	if err != nil {
		return nil, err
	}
	return &Restored{
		Index: k, Mem: mem,
		Machine:    append([]byte(nil), s.Machine...),
		Device:     append([]byte(nil), s.Device...),
		AuthDevice: append([]byte(nil), s.AuthDevice...),
		Root:       s.Root,
	}, nil
}

// CheckIncrement is the rule every fold applies to increment k before it
// writes any of its pages: a page longer than vm.PageSize is an error that
// names the increment and the page. (A shorter page stands for its bytes and
// a zero tail; an index that is no page of the image is skipped.)
func CheckIncrement(k int, inc *Snapshot) error {
	for p, page := range inc.MemPages {
		if len(page) > vm.PageSize {
			return fmt.Errorf("snapshot: increment %d page %d is %d bytes, page size is %d", k, p, len(page), vm.PageSize)
		}
	}
	return nil
}

// FoldInto writes the state at snapshot k of src into mem, which must be
// zeroed and src.MemSize() bytes long (a tail short of a page is not
// written), and returns increment k, whose register and device blobs are the
// state's. Increments are read newest first and each page is copied once,
// from the newest capture of it at or below k, so a page is final the
// moment it is written: final(p, leaf), if set, is called then, with the
// page's Merkle leaf when the increment that wrote it carries one
// (AttachLeaves) and nil otherwise. Pages no increment captures stay zero
// and are final, with no leaf, when the walk ends. The walk stops as soon as
// every page is written, so folding a late snapshot costs its distinct
// pages, not the sum of all increment sizes.
//
// The order of the requests is part of the contract: a source may take
// Increment(i) as notice that Increment(i-1) comes next and start reading it
// (the archive's does). The increment that completes the fold — the full
// capture, for a fold that reaches increment 0 — usually holds most of the
// pages, and its pages are copied on up to workers goroutines (<= 0 selects
// merkle.DefaultWorkers()); the newer ones, behind which a source may still
// be reading, on the caller's. So final may be called for distinct pages at
// once, never twice for one.
func FoldInto(src IncrementSource, k int, mem []byte, final func(p int, leaf *merkle.Hash), workers int) (*Snapshot, error) {
	if k < 0 || k >= src.Count() {
		return nil, fmt.Errorf("snapshot: index %d out of range [0,%d)", k, src.Count())
	}
	pageCount := len(mem) / vm.PageSize
	written := make([]bool, pageCount)
	remaining := pageCount
	var s *Snapshot
	var batch []pageCopy
	for i := k; i >= 0 && (remaining > 0 || s == nil); i-- {
		inc, err := src.Increment(i)
		if err != nil {
			return nil, err
		}
		if err := CheckIncrement(i, inc); err != nil {
			return nil, err
		}
		if s == nil {
			s = inc
		}
		batch = batch[:0]
		for p, page := range inc.MemPages {
			if p >= 0 && p < pageCount && !written[p] {
				written[p] = true
				c := pageCopy{p: p, page: page}
				if final != nil {
					c.leaf = inc.leaf(p, page)
				}
				batch = append(batch, c)
			}
		}
		remaining -= len(batch)
		w := 1
		if remaining == 0 || i == 0 {
			w = workers
		}
		eachPage(len(batch), w, func(j int) {
			c := batch[j]
			copy(mem[c.p*vm.PageSize:], c.page)
			if final != nil {
				final(c.p, c.leaf)
			}
		})
	}
	if final != nil && remaining > 0 {
		for p, ok := range written {
			if !ok {
				final(p, nil)
			}
		}
	}
	return s, nil
}

// pageCopy is one page a fold copies: its index, the captured bytes and
// the leaf its increment carries for them, if any.
type pageCopy struct {
	p    int
	page []byte
	leaf *merkle.Hash
}

// minPagesPerWorker is the fewest pages a fold hands a goroutine of its
// own: below it the spawn costs more than copying and hashing the pages.
const minPagesPerWorker = 32

// eachPage calls fn(0) … fn(n-1) on up to workers goroutines (<= 0 selects
// merkle.DefaultWorkers()), each call once, and returns when all are done.
func eachPage(n, workers int, fn func(j int)) {
	if workers <= 0 {
		workers = merkle.DefaultWorkers()
	}
	workers = min(workers, n/minPagesPerWorker)
	if workers <= 1 {
		for j := 0; j < n; j++ {
			fn(j)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := lo; j < hi; j++ {
				fn(j)
			}
		}()
	}
	wg.Wait()
}

// IncrementRange returns increments a+1 … b of src, oldest first: written
// over the state at snapshot a in that order, page by page, they give the
// state at snapshot b, whose registers and device state are increment b's.
// It is what a holder of the state at a reads instead of MaterializeFrom(b):
// the increments in between and nothing at or below a. a == b is the empty
// range and asks the source for nothing. The requests are made newest first,
// the order FoldInto's contract lets a source read ahead in, and each
// increment is held to CheckIncrement. The pages are the source's own
// (possibly windows of its read buffers): a caller copies what it keeps.
func IncrementRange(src IncrementSource, a, b int) ([]*Snapshot, error) {
	if a < 0 || b < a || b >= src.Count() {
		return nil, fmt.Errorf("snapshot: increment range (%d,%d] outside [0,%d)", a, b, src.Count())
	}
	out := make([]*Snapshot, b-a)
	for i := b; i > a; i-- {
		inc, err := src.Increment(i)
		if err == nil {
			err = CheckIncrement(i, inc)
		}
		if err != nil {
			return nil, err
		}
		out[i-a-1] = inc
	}
	return out, nil
}

// Materialize reconstructs the complete state at snapshot k — the
// newest-first early-exit fold of MaterializeFrom over this store.
func (st *Store) Materialize(k int) (*Restored, error) {
	return MaterializeFrom(st, k)
}

// TransferBytes returns the number of bytes an auditor must download to
// obtain the full state at snapshot k (a materialized memory image plus
// machine and device state — the analogue of the paper's full memory dump
// plus disk snapshot, §6.12).
func (st *Store) TransferBytes(k int) (int, error) {
	if k < 0 || k >= len(st.snaps) {
		return 0, fmt.Errorf("snapshot: index %d out of range [0,%d)", k, len(st.snaps))
	}
	s := st.snaps[k]
	return st.memSize + len(s.Machine) + len(s.Device), nil
}

// VerifyRestored recomputes the root of a downloaded state and compares it
// with the root the log committed to (§4.5, "Verifying the snapshot").
// Callers that go on to replay from the state should use
// LiveStateHasher.SeedVerify instead, which leaves the verification tree
// primed for incremental folding.
func VerifyRestored(r *Restored, wantRoot [32]byte) error {
	got := RootOfState(r.Mem, r.Machine, r.AuthDevice)
	return checkRoot(got, wantRoot)
}

func checkRoot(got, want [32]byte) error {
	if got != want {
		return fmt.Errorf("snapshot: state root %x does not match committed root %x", got[:8], want[:8])
	}
	return nil
}

// statePages returns the leaf count for a memory image: whole pages,
// rounding up so a non-page-aligned tail is hashed rather than silently
// truncated.
func statePages(memLen int) int {
	return (memLen + vm.PageSize - 1) / vm.PageSize
}

// statePage returns page p of mem, clamped at a partial tail; nil beyond
// the image (padding leaves).
func statePage(mem []byte, p int) []byte {
	lo := p * vm.PageSize
	if lo >= len(mem) {
		return nil
	}
	hi := lo + vm.PageSize
	if hi > len(mem) {
		hi = len(mem)
	}
	return mem[lo:hi]
}

// StateHasher computes authenticated state digests, reusing one hash tree
// across calls so repeated full-state verifications do not rebuild (or
// reallocate) the tree each time. Page hashing — a pure fan-out over
// 4 KiB pages — runs on up to Workers goroutines. A StateHasher is not
// safe for concurrent use; concurrent verifiers each hold their own.
type StateHasher struct {
	// Workers bounds the page-hashing fan-out; <= 0 selects
	// merkle.DefaultWorkers().
	Workers int
	tree    merkle.Tree
}

// RootOfState computes the authenticated digest of a full state.
func (sh *StateHasher) RootOfState(mem []byte, machineBlob, devBlob []byte) [32]byte {
	sh.tree.SeedFrom(statePages(len(mem)), func(p int) []byte { return statePage(mem, p) }, sh.Workers)
	return CombineRoot(sh.tree.Root(), machineBlob, devBlob)
}

// RootOfState computes the authenticated digest of a full state, hashing
// pages concurrently. Callers that verify many snapshots should hold a
// StateHasher instead to reuse the tree.
func RootOfState(mem []byte, machineBlob, devBlob []byte) [32]byte {
	var sh StateHasher
	return sh.RootOfState(mem, machineBlob, devBlob)
}

// LiveStateHasher maintains a persistent hash tree over a machine state so
// a replay can verify successive snapshot roots incrementally: seed the
// tree once from a full state, then fold only the pages dirtied since the
// previous verification. Each fold costs O(dirty · log n) instead of the
// O(state) a full rehash pays — §4.4's incremental-commitment argument,
// applied on the auditor side. Not safe for concurrent use; parallel audit
// epochs each hold their own.
type LiveStateHasher struct {
	// Workers bounds the page-hashing fan-out of Seed (and of large Folds);
	// <= 0 selects merkle.DefaultWorkers().
	Workers int
	tree    merkle.Tree
	memLen  int
	seeded  bool
}

// Seeded reports whether the live tree has been initialized.
func (lh *LiveStateHasher) Seeded() bool { return lh.seeded }

// MemRoot returns the live tree's current memory root. Only valid after a
// Seed; delta-job workers use it to anchor a fold-proof chain at a state
// they verified themselves.
func (lh *LiveStateHasher) MemRoot() merkle.Hash { return lh.tree.Root() }

// Seed (re)initializes the live tree from a full memory image with one
// parallel fill and returns the authenticated digest of the state.
func (lh *LiveStateHasher) Seed(mem []byte, machineBlob, devBlob []byte) [32]byte {
	lh.tree.SeedFrom(statePages(len(mem)), func(p int) []byte { return statePage(mem, p) }, lh.Workers)
	lh.memLen = len(mem)
	lh.seeded = true
	return CombineRoot(lh.tree.Root(), machineBlob, devBlob)
}

// SeedVerify seeds the live tree from a restored state and checks the
// resulting digest against the root the log committed to — VerifyRestored,
// but leaving the hasher primed so the replay that starts from the state
// can fold dirty pages instead of rehashing everything at each snapshot
// entry.
func (lh *LiveStateHasher) SeedVerify(r *Restored, wantRoot [32]byte) error {
	return checkRoot(lh.Seed(r.Mem, r.Machine, r.AuthDevice), wantRoot)
}

// SeedFold is FoldInto and Seed in one pass over the pages: it folds the
// state at snapshot k of src into mem and hashes each page's leaf as soon as
// the page is final, on the goroutine that wrote it, then folds the tree's
// interior once. A page whose increment carries its leaf is not hashed: the
// leaf is taken as it is. It returns increment k; Verify with its blobs is
// then SeedVerify of the state. An error is FoldInto's, and leaves the hasher
// unseeded.
func (lh *LiveStateHasher) SeedFold(src IncrementSource, k int, mem []byte) (*Snapshot, error) {
	lh.seeded = false
	lh.tree.Reshape(statePages(len(mem)))
	s, err := FoldInto(src, k, mem, func(p int, leaf *merkle.Hash) {
		if leaf != nil {
			lh.tree.SetLeafHash(p, *leaf)
		} else {
			lh.tree.SetLeaf(p, statePage(mem, p))
		}
	}, lh.Workers)
	if err != nil {
		return nil, err
	}
	for p := len(mem) / vm.PageSize; p < lh.tree.Leaves(); p++ {
		lh.tree.SetLeaf(p, statePage(mem, p)) // a tail short of a page, which no fold writes
	}
	lh.tree.FoldInterior()
	lh.memLen = len(mem)
	lh.seeded = true
	return s, nil
}

// SeedCopy is Seed over r's memory that copies the memory into mem, which
// must be at least as long, in the same pass: each page is copied and hashed
// on the same goroutine, on up to Workers of them. Verify with r's blobs is
// then SeedVerify(r).
func (lh *LiveStateHasher) SeedCopy(r *Restored, mem []byte) {
	lh.tree.SeedFrom(statePages(len(r.Mem)), func(p int) []byte {
		page := statePage(r.Mem, p)
		copy(mem[p*vm.PageSize:], page)
		return page
	}, lh.Workers)
	lh.memLen = len(r.Mem)
	lh.seeded = true
}

// Verify checks the digest of the seeded tree and the given register and
// device blobs against the root the log committed to, with SeedVerify's
// error on a mismatch.
func (lh *LiveStateHasher) Verify(machineBlob, devBlob []byte, wantRoot [32]byte) error {
	return checkRoot(CombineRoot(lh.tree.Root(), machineBlob, devBlob), wantRoot)
}

// Fold rehashes only the given dirty pages of mem and returns the new
// authenticated digest. An unseeded hasher — or one seeded over a
// different-sized image — falls back to a full Seed.
func (lh *LiveStateHasher) Fold(mem []byte, dirty []int, machineBlob, devBlob []byte) ([32]byte, error) {
	return lh.fold(mem, dirty, nil, machineBlob, devBlob)
}

// fold is Fold where known(p), if set, may report page p's leaf in place
// of its being hashed from mem.
func (lh *LiveStateHasher) fold(mem []byte, dirty []int, known func(p int) (merkle.Hash, bool), machineBlob, devBlob []byte) ([32]byte, error) {
	if !lh.seeded || lh.memLen != len(mem) {
		return lh.Seed(mem, machineBlob, devBlob), nil
	}
	if err := lh.tree.UpdateBatchKnown(dirty, func(p int) []byte { return statePage(mem, p) }, known, lh.Workers); err != nil {
		return [32]byte{}, err
	}
	return CombineRoot(lh.tree.Root(), machineBlob, devBlob), nil
}

// FoldVerify is SeedVerify for a holder of a seeded tree: it folds the
// dirty pages of mem and checks the resulting digest against the root the
// log committed to, with SeedVerify's error on a mismatch. The digest covers
// every page, so a state that passes here is the state SeedVerify would have
// passed, at the cost of the pages that changed.
//
// incs are the increments the holder has just written over mem, oldest
// first, each captured page whole (a short one with a zero tail), or none:
// a dirty page that the newest of incs capturing it carries a leaf for
// (AttachLeaves) takes that leaf instead of being rehashed from mem. A leaf
// stands only for a page that lies wholly inside mem.
func (lh *LiveStateHasher) FoldVerify(mem []byte, dirty []int, incs []*Snapshot, machineBlob, devBlob []byte, wantRoot [32]byte) error {
	known := func(p int) (merkle.Hash, bool) {
		if (p+1)*vm.PageSize > len(mem) {
			return merkle.Hash{}, false
		}
		for i := len(incs) - 1; i >= 0; i-- {
			if page, ok := incs[i].MemPages[p]; ok {
				if l := incs[i].leaf(p, page); l != nil {
					return *l, true
				}
				return merkle.Hash{}, false
			}
		}
		return merkle.Hash{}, false
	}
	got, err := lh.fold(mem, dirty, known, machineBlob, devBlob)
	if err != nil {
		return err
	}
	return checkRoot(got, wantRoot)
}
