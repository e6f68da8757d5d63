package wire

// This file defines the wire formats of the distributed audit fan-out: the
// session frame a coordinator sends a replay worker once per audit and
// connection (the reference configuration — image, node, RNG seed), the
// epoch job frames that follow (verified start root, materialized start
// state, entry run), and the verdict frames a worker sends back. Workers are completely
// scenario-agnostic: everything a replay needs travels in these frames, so
// `avm-audit -serve` holds no recording, no keys and no guest sources.
//
// The codec reuses the package's primitive writer/reader; like the rest of
// the wire package, every Parse* rejects trailing bytes and truncations
// with precise errors.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/tevlog"
	"repro/internal/vm"
)

// DistFrameKind tags the frames of the coordinator↔worker protocol. Each
// frame travels length-prefixed on the transport; the kind is the first
// byte of the frame body.
type DistFrameKind uint8

// Distributed-audit protocol frames. The numbers are wire format: kinds are
// only ever added, and a retired kind keeps its number reserved so an old
// peer's frame is rejected by name instead of being mistaken for a new one
// (docs/DISPATCH_PROTOCOL.md lists every kind with its body).
const (
	// DistFrameSession (1) is reserved: it opened a connection of the
	// retired one-shot session protocol (one audit per connection,
	// synchronous jobs). A worker answers every retired kind with
	// DistFrameError.
	DistFrameSession DistFrameKind = 1 + iota
	// DistFrameSessionOK (2) is reserved: the retired session acknowledgement.
	DistFrameSessionOK
	// DistFrameJob (3) is reserved: the retired synchronous job.
	DistFrameJob
	// DistFrameVerdict (4) is reserved: the retired synchronous verdict.
	DistFrameVerdict
	// DistFrameError carries a worker-side protocol error (string body);
	// the worker closes the connection after sending it.
	DistFrameError

	// One connection multiplexes many audit sessions (each log being
	// audited registers a session once; its reference image ships once per
	// worker), carries pipelined jobs tagged with their session, and stays
	// under heartbeat surveillance. A worker that is draining refuses new
	// jobs explicitly instead of dying mid-epoch.

	// DistFrameMuxSession registers a session on a multiplexed connection:
	// uvarint session id, then the AuditSession body.
	DistFrameMuxSession
	// DistFrameMuxSessionOK acknowledges a multiplexed session: uvarint
	// session id.
	DistFrameMuxSessionOK
	// DistFrameMuxJob carries one epoch job on a multiplexed connection:
	// uvarint session id, then the AuditJob body.
	DistFrameMuxJob
	// DistFrameMuxVerdict carries one epoch verdict back: uvarint session
	// id, then the AuditVerdict body. (session id, epoch index) is the
	// verdict's unique key.
	DistFrameMuxVerdict
	// DistFramePing probes worker liveness: uvarint sequence number.
	DistFramePing
	// DistFramePong answers a ping, echoing its sequence number.
	DistFramePong
	// DistFrameDrain tells the coordinator this worker is draining: the job
	// that prompted it was refused and must be re-dispatched elsewhere, and
	// no further jobs will be accepted on this connection.
	DistFrameDrain
)

// DistFrameMuxSessionEnd ends a session on a multiplexed connection:
// uvarint session id. The coordinator sends it once a run is settled, on
// every connection it registered the run's session on; the worker drops
// the session, and the replica it holds for it once the session's queued
// jobs have run. A later job for the id is a protocol error.
const DistFrameMuxSessionEnd = DistFrameWelcome + 1

// Retired reports whether k is a reserved number of the retired one-shot
// session protocol, which no peer sends any more.
func (k DistFrameKind) Retired() bool {
	switch k {
	case DistFrameSession, DistFrameSessionOK, DistFrameJob, DistFrameVerdict,
		DistFrameDeltaJob, DistFrameNeedState:
		return true
	}
	return false
}

// AppendMuxID prefixes a multiplexed frame body with its session id.
func AppendMuxID(id uint64, body []byte) []byte {
	return append(binary.AppendUvarint(make([]byte, 0, len(body)+binary.MaxVarintLen64), id), body...)
}

// SplitMuxID strips the session id prefix from a multiplexed frame body.
func SplitMuxID(b []byte) (uint64, []byte, error) {
	id, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errors.New("wire: truncated mux session id")
	}
	return id, b[n:], nil
}

// AuditSession is the per-audit reference configuration a worker needs to
// replay epochs: the trusted reference image (the coordinator is the
// auditor; workers are its helpers and hold no independent trust), the
// audited node's identity and the reference RNG seed.
type AuditSession struct {
	Node             string
	RNGSeed          uint64
	DisablePredecode bool
	DisableFusion    bool

	// Reference image, field for field (vm.Image).
	ImageName string
	Code      []byte
	TextSize  uint32
	Entry     uint32
	Vectors   []uint32
	MemSize   uint64
	Disk      []byte
}

// SessionFromImage builds the session frame contents from a reference
// image and audit parameters.
func SessionFromImage(node string, img *vm.Image, rngSeed uint64, disablePredecode, disableFusion bool) *AuditSession {
	s := &AuditSession{
		Node: node, RNGSeed: rngSeed, DisablePredecode: disablePredecode, DisableFusion: disableFusion,
		ImageName: img.Name, Code: img.Code, TextSize: uint32(img.TextSize),
		Entry: img.Entry, MemSize: uint64(img.MemSize), Disk: img.Disk,
	}
	s.Vectors = make([]uint32, len(img.Vectors))
	copy(s.Vectors, img.Vectors[:])
	return s
}

// Image reassembles the reference image.
func (s *AuditSession) Image() (*vm.Image, error) {
	img := &vm.Image{
		Name: s.ImageName, Code: s.Code, TextSize: int(s.TextSize),
		Entry: s.Entry, MemSize: int(s.MemSize), Disk: s.Disk,
	}
	if len(s.Vectors) != len(img.Vectors) {
		return nil, fmt.Errorf("wire: session carries %d interrupt vectors, machine has %d",
			len(s.Vectors), len(img.Vectors))
	}
	copy(img.Vectors[:], s.Vectors)
	return img, nil
}

func boolByte(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Marshal serializes the session.
func (s *AuditSession) Marshal() []byte {
	w := &writer{}
	w.str(s.Node)
	w.uvarint(s.RNGSeed)
	w.uvarint(boolByte(s.DisablePredecode))
	w.uvarint(boolByte(s.DisableFusion))
	w.str(s.ImageName)
	w.bytes(s.Code)
	w.uvarint(uint64(s.TextSize))
	w.uvarint(uint64(s.Entry))
	w.uvarint(uint64(len(s.Vectors)))
	for _, v := range s.Vectors {
		w.uvarint(uint64(v))
	}
	w.uvarint(s.MemSize)
	w.bytes(s.Disk)
	return w.b
}

// ParseAuditSession decodes a session frame body.
func ParseAuditSession(b []byte) (*AuditSession, error) {
	r := &reader{b: b}
	s := &AuditSession{Node: r.str(), RNGSeed: r.uvarint(), DisablePredecode: r.uvarint() != 0, DisableFusion: r.uvarint() != 0}
	s.ImageName = r.str()
	s.Code = r.bytes()
	s.TextSize = r.u32()
	s.Entry = r.u32()
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = fmt.Errorf("wire: session claims %d vectors, %d bytes remain", n, len(r.b))
	}
	if r.err == nil {
		s.Vectors = make([]uint32, n)
		for i := range s.Vectors {
			s.Vectors[i] = r.u32()
		}
	}
	s.MemSize = r.uvarint()
	s.Disk = r.bytes()
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("parsing audit session: %w", err)
	}
	return s, nil
}

// AuditJob is one wire-shipped epoch replay job: a self-contained unit an
// untrusted worker can replay with nothing but the session's reference
// configuration. Non-boot jobs carry the materialized start state; the
// coordinator has already verified it against StartRoot (the root the
// audited log committed at the epoch's starting snapshot), and the worker
// re-verifies while seeding its live tree — the check is free there.
type AuditJob struct {
	Index     uint64
	Boot      bool
	StartSnap uint32
	StartSeq  uint64
	StartRoot [32]byte

	// Materialized start state (empty for boot jobs, which replay from the
	// session's reference image).
	Mem        []byte
	Machine    []byte
	Device     []byte
	AuthDevice []byte

	// Entries is the epoch's entry run. Chain hashes are not shipped: chain
	// verification is the coordinator's job, and replay never reads them.
	Entries []tevlog.Entry
}

// Marshal serializes the job.
func (j *AuditJob) Marshal() []byte {
	w := &writer{}
	w.uvarint(j.Index)
	w.uvarint(boolByte(j.Boot))
	w.uvarint(uint64(j.StartSnap))
	w.uvarint(j.StartSeq)
	w.hash(j.StartRoot)
	w.bytes(j.Mem)
	w.bytes(j.Machine)
	w.bytes(j.Device)
	w.bytes(j.AuthDevice)
	w.uvarint(uint64(len(j.Entries)))
	for i := range j.Entries {
		w.b = j.Entries[i].Marshal(w.b)
	}
	return w.b
}

// ParseAuditJob decodes a job frame body.
func ParseAuditJob(b []byte) (*AuditJob, error) {
	r := &reader{b: b}
	j := &AuditJob{Index: r.uvarint(), Boot: r.uvarint() != 0}
	j.StartSnap = r.u32()
	j.StartSeq = r.uvarint()
	j.StartRoot = r.hash()
	j.Mem = r.bytes()
	j.Machine = r.bytes()
	j.Device = r.bytes()
	j.AuthDevice = r.bytes()
	n := r.uvarint()
	if r.err != nil {
		return nil, fmt.Errorf("parsing audit job: %w", r.err)
	}
	if n > uint64(len(r.b)) {
		return nil, fmt.Errorf("parsing audit job: claims %d entries, %d bytes remain", n, len(r.b))
	}
	j.Entries = make([]tevlog.Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		e, rest, err := tevlog.UnmarshalEntry(r.b)
		if err != nil {
			return nil, fmt.Errorf("parsing audit job entry %d: %w", i, err)
		}
		r.b = rest
		j.Entries = append(j.Entries, e)
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("parsing audit job: %w", err)
	}
	return j, nil
}

// AuditVerdict is one epoch's replay outcome on the wire: the replay stats
// and, when the epoch faulted, the full fault report — enough for the
// coordinator's merge to be byte-identical to an in-process audit.
type AuditVerdict struct {
	Index uint64

	Instructions      uint64
	EntriesConsumed   uint64
	SendsMatched      uint64
	NondetsConsumed   uint64
	EventsInjected    uint64
	SnapshotsVerified uint64

	HasFault      bool
	FaultNode     string
	FaultCheck    string
	FaultDetail   string
	FaultEntrySeq uint64
	FaultLandmark vm.Landmark
}

// Marshal serializes the verdict.
func (v *AuditVerdict) Marshal() []byte {
	w := &writer{}
	w.uvarint(v.Index)
	w.uvarint(v.Instructions)
	w.uvarint(v.EntriesConsumed)
	w.uvarint(v.SendsMatched)
	w.uvarint(v.NondetsConsumed)
	w.uvarint(v.EventsInjected)
	w.uvarint(v.SnapshotsVerified)
	w.uvarint(boolByte(v.HasFault))
	if v.HasFault {
		w.str(v.FaultNode)
		w.str(v.FaultCheck)
		w.str(v.FaultDetail)
		w.uvarint(v.FaultEntrySeq)
		w.landmark(v.FaultLandmark)
	}
	return w.b
}

// ParseAuditVerdict decodes a verdict frame body.
func ParseAuditVerdict(b []byte) (*AuditVerdict, error) {
	r := &reader{b: b}
	v := &AuditVerdict{
		Index:             r.uvarint(),
		Instructions:      r.uvarint(),
		EntriesConsumed:   r.uvarint(),
		SendsMatched:      r.uvarint(),
		NondetsConsumed:   r.uvarint(),
		EventsInjected:    r.uvarint(),
		SnapshotsVerified: r.uvarint(),
	}
	v.HasFault = r.uvarint() != 0
	if v.HasFault {
		v.FaultNode = r.str()
		v.FaultCheck = r.str()
		v.FaultDetail = r.str()
		v.FaultEntrySeq = r.uvarint()
		v.FaultLandmark = r.landmark()
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("parsing audit verdict: %w", err)
	}
	return v, nil
}

// MaxDistFrame bounds one protocol frame (a job carrying a full
// materialized state plus an epoch of entries dominates; 1 GiB is far
// beyond any machine this VM models and keeps a corrupt length prefix from
// allocating unboundedly).
const MaxDistFrame = 1 << 30

// ErrFrameTooLarge reports a length prefix beyond MaxDistFrame.
var ErrFrameTooLarge = errors.New("wire: distributed-audit frame exceeds MaxDistFrame")
