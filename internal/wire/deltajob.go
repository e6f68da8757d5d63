package wire

// Delta-shipped epoch jobs. After the first full-state job on a
// connection, subsequent jobs for the same audit can ship as a chain of
// proof-carrying snapshot deltas relative to a state the worker already
// verified and holds: each step carries the epoch's dirty pages plus the
// Merkle fold proof connecting the previous memory root to the next one,
// so the worker reaches its start state in O(dirty) wire bytes instead of
// O(state). A worker that no longer holds the base (eviction, reconnect, a
// faulted epoch) answers with a NeedState frame and the coordinator falls
// back to the full-state AuditJob frame.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/merkle"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
)

// Delta-dispatch protocol frames, extending the DistFrame* set.
const (
	// DistFrameDeltaJob (13) was the delta-shipped job of the retired
	// one-shot session protocol. Reserved.
	DistFrameDeltaJob DistFrameKind = DistFrameDrain + 1 + iota
	// DistFrameMuxDeltaJob carries one delta-shipped epoch job on a
	// multiplexed connection: uvarint session id, then the AuditDeltaJob
	// body.
	DistFrameMuxDeltaJob
	// DistFrameNeedState (15) was the need-state reply of the retired
	// one-shot session protocol. Reserved.
	DistFrameNeedState
	// DistFrameMuxNeedState reports that the worker does not hold a delta
	// job's base state: uvarint session id, then uvarint job index. The
	// coordinator re-ships the epoch as a full-state job.
	DistFrameMuxNeedState
)

// DeltaStep is one snapshot transition in a delta job's chain, mirroring
// snapshot.Delta field for field. PageIndices double as the fold proof's
// leaf indices (a delta's dirty set and its proof's updated-leaf set are
// the same by construction), so they travel once.
type DeltaStep struct {
	FromIndex   uint32
	FromRoot    [32]byte
	ToRoot      [32]byte
	FromMemRoot [32]byte
	ToMemRoot   [32]byte

	ProofLeaves uint32
	PageIndices []uint32
	PageData    [][]byte
	OldHashes   [][32]byte
	Siblings    [][32]byte

	Machine    []byte
	Device     []byte
	AuthDevice []byte

	Instructions uint64
}

// DeltaStepFromDelta converts a snapshot delta to its wire form.
func DeltaStepFromDelta(d *snapshot.Delta) DeltaStep {
	s := DeltaStep{
		FromIndex:   uint32(d.FromIndex),
		FromRoot:    d.FromRoot,
		ToRoot:      d.ToRoot,
		FromMemRoot: d.FromMemRoot,
		ToMemRoot:   d.ToMemRoot,
		ProofLeaves: uint32(d.Proof.Leaves),
		Machine:     d.Machine,
		Device:      d.Device,
		AuthDevice:  d.AuthDevice,

		Instructions: d.Cost.Instructions,
	}
	s.PageIndices = make([]uint32, len(d.Pages))
	s.PageData = make([][]byte, len(d.Pages))
	for i, p := range d.Pages {
		s.PageIndices[i] = uint32(p.Index)
		s.PageData[i] = p.Data
	}
	s.OldHashes = make([][32]byte, len(d.Proof.Old))
	for i, h := range d.Proof.Old {
		s.OldHashes[i] = h
	}
	s.Siblings = make([][32]byte, len(d.Proof.Siblings))
	for i, h := range d.Proof.Siblings {
		s.Siblings[i] = h
	}
	return s
}

// Delta reassembles the snapshot delta this step carries.
func (s *DeltaStep) Delta() (*snapshot.Delta, error) {
	if len(s.PageData) != len(s.PageIndices) || len(s.OldHashes) != len(s.PageIndices) {
		return nil, fmt.Errorf("wire: delta step carries %d pages, %d datas, %d old hashes",
			len(s.PageIndices), len(s.PageData), len(s.OldHashes))
	}
	d := &snapshot.Delta{
		FromIndex:   int(s.FromIndex),
		FromRoot:    s.FromRoot,
		ToRoot:      s.ToRoot,
		FromMemRoot: s.FromMemRoot,
		ToMemRoot:   s.ToMemRoot,
		Machine:     s.Machine,
		Device:      s.Device,
		AuthDevice:  s.AuthDevice,
	}
	d.Cost.Instructions = s.Instructions
	d.Pages = make([]snapshot.DeltaPage, len(s.PageIndices))
	d.Proof.Leaves = int(s.ProofLeaves)
	d.Proof.Indices = make([]int, len(s.PageIndices))
	d.Proof.Old = make([]merkle.Hash, len(s.OldHashes))
	for i := range s.PageIndices {
		d.Pages[i] = snapshot.DeltaPage{Index: int(s.PageIndices[i]), Data: s.PageData[i]}
		d.Proof.Indices[i] = int(s.PageIndices[i])
		d.Proof.Old[i] = s.OldHashes[i]
		d.Cost.DirtyBytes += len(s.PageData[i])
	}
	d.Proof.Siblings = make([]merkle.Hash, len(s.Siblings))
	for i, h := range s.Siblings {
		d.Proof.Siblings[i] = h
	}
	return d, nil
}

// Increment is the snapshot increment the step ships, as a worker writes it
// over the state it holds: the destination snapshot's dirty pages and
// blobs. The fold proof is left out.
func (s *DeltaStep) Increment() (*snapshot.Snapshot, error) {
	if len(s.PageData) != len(s.PageIndices) {
		return nil, fmt.Errorf("wire: delta step carries %d pages, %d datas", len(s.PageIndices), len(s.PageData))
	}
	inc := &snapshot.Snapshot{
		Index: int(s.FromIndex) + 1, Root: s.ToRoot, MemPages: make(map[int][]byte, len(s.PageIndices)),
		Machine: s.Machine, Device: s.Device, AuthDevice: s.AuthDevice,
	}
	for i, p := range s.PageIndices {
		inc.MemPages[int(p)] = s.PageData[i]
	}
	return inc, nil
}

// AuditDeltaJob is a delta-shipped epoch job: everything AuditJob carries
// except the materialized start state, which the worker reaches by writing
// Steps (covering snapshots BaseSnap+1 … StartSnap, in order) over the
// replica it holds, verified at BaseSnap with root BaseRoot, checking each
// step's ToRoot as it goes. The chain must end at StartRoot — the root the
// audited log committed — so a coordinator that ships a doctored chain is
// caught before any replay work is spent.
type AuditDeltaJob struct {
	Index     uint64
	StartSnap uint32
	StartSeq  uint64
	StartRoot [32]byte

	// BaseSnap/BaseRoot identify the held state the chain starts from.
	BaseSnap uint32
	BaseRoot [32]byte

	// Steps are the transitions BaseSnap→BaseSnap+1, …, StartSnap-1→StartSnap.
	Steps []DeltaStep

	// Entries is the epoch's entry run, exactly as in AuditJob.
	Entries []tevlog.Entry
}

// Marshal serializes the delta job.
func (j *AuditDeltaJob) Marshal() []byte {
	w := &writer{}
	w.uvarint(j.Index)
	w.uvarint(uint64(j.StartSnap))
	w.uvarint(j.StartSeq)
	w.hash(j.StartRoot)
	w.uvarint(uint64(j.BaseSnap))
	w.hash(j.BaseRoot)
	w.uvarint(uint64(len(j.Steps)))
	for i := range j.Steps {
		s := &j.Steps[i]
		w.uvarint(uint64(s.FromIndex))
		w.hash(s.FromRoot)
		w.hash(s.ToRoot)
		w.hash(s.FromMemRoot)
		w.hash(s.ToMemRoot)
		w.uvarint(uint64(s.ProofLeaves))
		w.uvarint(uint64(len(s.PageIndices)))
		for k, idx := range s.PageIndices {
			w.uvarint(uint64(idx))
			w.bytes(s.PageData[k])
			w.hash(s.OldHashes[k])
		}
		w.uvarint(uint64(len(s.Siblings)))
		for _, h := range s.Siblings {
			w.hash(h)
		}
		w.bytes(s.Machine)
		w.bytes(s.Device)
		w.bytes(s.AuthDevice)
		w.uvarint(s.Instructions)
	}
	w.uvarint(uint64(len(j.Entries)))
	for i := range j.Entries {
		w.b = j.Entries[i].Marshal(w.b)
	}
	return w.b
}

// ParseAuditDeltaJob decodes a delta job frame body. It accepts only the
// bytes Marshal writes for the job it returns.
func ParseAuditDeltaJob(b []byte) (*AuditDeltaJob, error) {
	r := &reader{b: b}
	j := &AuditDeltaJob{Index: r.uvarint()}
	j.StartSnap = r.u32()
	j.StartSeq = r.uvarint()
	j.StartRoot = r.hash()
	j.BaseSnap = r.u32()
	j.BaseRoot = r.hash()
	nsteps := r.uvarint()
	if r.err != nil {
		return nil, fmt.Errorf("parsing audit delta job: %w", r.err)
	}
	if nsteps > uint64(len(r.b)) {
		return nil, fmt.Errorf("parsing audit delta job: claims %d steps, %d bytes remain", nsteps, len(r.b))
	}
	j.Steps = make([]DeltaStep, 0, nsteps)
	for i := uint64(0); i < nsteps; i++ {
		var s DeltaStep
		s.FromIndex = r.u32()
		s.FromRoot = r.hash()
		s.ToRoot = r.hash()
		s.FromMemRoot = r.hash()
		s.ToMemRoot = r.hash()
		s.ProofLeaves = r.u32()
		npages := r.uvarint()
		if r.err != nil {
			return nil, fmt.Errorf("parsing audit delta job step %d: %w", i, r.err)
		}
		if npages > uint64(len(r.b)) {
			return nil, fmt.Errorf("parsing audit delta job step %d: claims %d pages, %d bytes remain", i, npages, len(r.b))
		}
		s.PageIndices = make([]uint32, npages)
		s.PageData = make([][]byte, npages)
		s.OldHashes = make([][32]byte, npages)
		for k := uint64(0); k < npages; k++ {
			s.PageIndices[k] = r.u32()
			s.PageData[k] = r.bytes()
			s.OldHashes[k] = r.hash()
		}
		nsib := r.uvarint()
		if r.err != nil {
			return nil, fmt.Errorf("parsing audit delta job step %d: %w", i, r.err)
		}
		if nsib > uint64(len(r.b)) {
			return nil, fmt.Errorf("parsing audit delta job step %d: claims %d siblings, %d bytes remain", i, nsib, len(r.b))
		}
		s.Siblings = make([][32]byte, nsib)
		for k := uint64(0); k < nsib; k++ {
			s.Siblings[k] = r.hash()
		}
		s.Machine = r.bytes()
		s.Device = r.bytes()
		s.AuthDevice = r.bytes()
		s.Instructions = r.uvarint()
		if r.err != nil {
			return nil, fmt.Errorf("parsing audit delta job step %d: %w", i, r.err)
		}
		j.Steps = append(j.Steps, s)
	}
	n := r.uvarint()
	if r.err != nil {
		return nil, fmt.Errorf("parsing audit delta job: %w", r.err)
	}
	if n > uint64(len(r.b)) {
		return nil, fmt.Errorf("parsing audit delta job: claims %d entries, %d bytes remain", n, len(r.b))
	}
	j.Entries = make([]tevlog.Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		e, rest, err := tevlog.UnmarshalEntry(r.b)
		if err != nil {
			return nil, fmt.Errorf("parsing audit delta job entry %d: %w", i, err)
		}
		r.b = rest
		j.Entries = append(j.Entries, e)
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("parsing audit delta job: %w", err)
	}
	return j, nil
}

// MarshalNeedState builds the body of a NeedState frame: the index of the
// delta job whose base state the worker does not hold.
func MarshalNeedState(index uint64) []byte {
	return binary.AppendUvarint(nil, index)
}

// ParseNeedState decodes a NeedState frame body.
func ParseNeedState(b []byte) (uint64, error) {
	index, n := binary.Uvarint(b)
	if n <= 0 || n != len(b) {
		return 0, fmt.Errorf("parsing need-state frame: malformed index")
	}
	return index, nil
}
