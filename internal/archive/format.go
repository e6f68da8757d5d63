// On-disk encoding of the archive: the crc-framed manifest records and
// the snapshot-increment payload codec. Everything here is documented in
// docs/ARCHIVE_FORMAT.md — the constants below are referenced by name
// there and pinned by round-trip tests, so a change to either side must
// change both.
package archive

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/merkle"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
	"repro/internal/wal"
)

const (
	// ManifestName is the append-only manifest file inside an archive
	// directory.
	ManifestName = "MANIFEST"
	// TileSuffix is the per-node payload file extension: segment payloads
	// for node N are appended back-to-back to "N" + TileSuffix.
	TileSuffix = ".tile"

	// FrameHeaderSize is the fixed prefix of every manifest record:
	// uint32 BE body length followed by uint32 BE CRC-32 (IEEE) of the
	// body — internal/wal's framing, which the manifest is written in.
	FrameHeaderSize = wal.FrameHeaderSize
	// MaxRecordSize bounds a manifest record body; a larger length field
	// is treated as a torn tail, never allocated.
	MaxRecordSize = 1 << 20

	// SnapshotPayloadVersion is the leading version byte of every
	// snapshot-increment payload this package writes. A payload of version
	// 1, which earlier writers wrote in the same layout, is still read.
	SnapshotPayloadVersion = 2
	// SnapshotDigestTag opens the byte stream a version-2 payload's digest
	// is taken over (snapshotDigest). A version-1 digest is SHA-256 of the
	// payload, whose first byte is 1, so no stream of one kind is a stream
	// of the other.
	SnapshotDigestTag = "avm-archive snapshot digest v2"

	// snapshotPayloadV1 is the version byte of the payloads earlier writers
	// wrote, whose digest is SHA-256 of the payload.
	snapshotPayloadV1 = 1
)

// Manifest record kinds. A record's body starts with one of these bytes.
const (
	// RecordNode declares a node before any of its segments: name and
	// memory size (for the snapshot materializer).
	RecordNode = byte(1)
	// RecordEpoch indexes one epoch's log-entry segment in the node's
	// tile file.
	RecordEpoch = byte(2)
	// RecordSnapshot indexes one snapshot-increment segment in the node's
	// tile file.
	RecordSnapshot = byte(3)
)

// errTorn marks a structurally invalid manifest record; replay treats it
// as the end of the valid prefix (the torn tail of a crash) rather than an
// archive error.
var errTorn = errors.New("archive: torn record")

// epochRec is the decoded manifest state of one epoch segment.
type epochRec struct {
	Boot      bool
	Closed    bool // epoch ends at a snapshot entry
	StartSnap uint32
	StartSeq  uint64
	StartRoot [32]byte
	// End* describe the closing snapshot entry (valid when Closed).
	EndSnap   uint32
	EndRoot   [32]byte
	EndICount uint64
	// EndHash is the chain hash of the epoch's last entry.
	EndHash  tevlog.Hash
	Entries  int
	FirstSeq uint64
	Off      int64
	Len      int64
	Hash     [32]byte // SHA-256 of the segment payload
}

// snapRec is the decoded manifest state of one snapshot segment.
type snapRec struct {
	Root    [32]byte
	MemRoot merkle.Hash
	ICount  uint64
	Off     int64
	Len     int64
	Hash    [32]byte
}

// recReader cursors over a record body with sticky bounds checking, the
// same defensive shape as the wire package's reader: a truncated or
// hostile body flips err and every subsequent read returns zero values.
type recReader struct {
	b   []byte
	err bool
}

func (r *recReader) fail() { r.err = true }

func (r *recReader) byte() byte {
	if r.err || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *recReader) uvarint() uint64 {
	if r.err {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recReader) bytes(n int) []byte {
	if r.err || n < 0 || n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *recReader) hash32() (out [32]byte) {
	copy(out[:], r.bytes(32))
	return out
}

func (r *recReader) str() string {
	n := r.uvarint()
	if n > 255 {
		r.fail()
		return ""
	}
	return string(r.bytes(int(n)))
}

func (r *recReader) done() bool { return !r.err && len(r.b) == 0 }

// appendStr appends a uvarint-length-prefixed string.
func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func marshalNodeRecord(node string, memSize int) []byte {
	b := []byte{RecordNode}
	b = appendStr(b, node)
	b = binary.AppendUvarint(b, uint64(memSize))
	return b
}

func marshalEpochRecord(node string, idx int, e *epochRec) []byte {
	b := []byte{RecordEpoch}
	b = appendStr(b, node)
	b = binary.AppendUvarint(b, uint64(idx))
	var flags byte
	if e.Boot {
		flags |= 1
	}
	if e.Closed {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(e.StartSnap))
	b = binary.AppendUvarint(b, e.StartSeq)
	b = append(b, e.StartRoot[:]...)
	b = binary.AppendUvarint(b, uint64(e.EndSnap))
	b = append(b, e.EndRoot[:]...)
	b = binary.AppendUvarint(b, e.EndICount)
	b = append(b, e.EndHash[:]...)
	b = binary.AppendUvarint(b, uint64(e.Entries))
	b = binary.AppendUvarint(b, e.FirstSeq)
	b = binary.AppendUvarint(b, uint64(e.Off))
	b = binary.AppendUvarint(b, uint64(e.Len))
	b = append(b, e.Hash[:]...)
	return b
}

func marshalSnapRecord(node string, idx int, s *snapRec) []byte {
	b := []byte{RecordSnapshot}
	b = appendStr(b, node)
	b = binary.AppendUvarint(b, uint64(idx))
	b = append(b, s.Root[:]...)
	b = append(b, s.MemRoot[:]...)
	b = binary.AppendUvarint(b, s.ICount)
	b = binary.AppendUvarint(b, uint64(s.Off))
	b = binary.AppendUvarint(b, uint64(s.Len))
	b = append(b, s.Hash[:]...)
	return b
}

// parseEpochRecord decodes an epoch record body (after the kind byte).
func parseEpochRecord(r *recReader) (node string, idx int, e epochRec, err error) {
	node = r.str()
	idx = int(r.uvarint())
	flags := r.byte()
	e.Boot = flags&1 != 0
	e.Closed = flags&2 != 0
	e.StartSnap = uint32(r.uvarint())
	e.StartSeq = r.uvarint()
	e.StartRoot = r.hash32()
	e.EndSnap = uint32(r.uvarint())
	e.EndRoot = r.hash32()
	e.EndICount = r.uvarint()
	e.EndHash = tevlog.Hash(r.hash32())
	e.Entries = int(r.uvarint())
	e.FirstSeq = r.uvarint()
	e.Off = int64(r.uvarint())
	e.Len = int64(r.uvarint())
	e.Hash = r.hash32()
	if !r.done() || idx < 0 || e.Entries <= 0 || e.Off < 0 || e.Len <= 0 || flags&^byte(3) != 0 {
		return "", 0, epochRec{}, errTorn
	}
	return node, idx, e, nil
}

// parseSnapRecord decodes a snapshot record body (after the kind byte).
func parseSnapRecord(r *recReader) (node string, idx int, s snapRec, err error) {
	node = r.str()
	idx = int(r.uvarint())
	s.Root = r.hash32()
	s.MemRoot = merkle.Hash(r.hash32())
	s.ICount = r.uvarint()
	s.Off = int64(r.uvarint())
	s.Len = int64(r.uvarint())
	s.Hash = r.hash32()
	if !r.done() || idx < 0 || s.Off < 0 || s.Len <= 0 {
		return "", 0, snapRec{}, errTorn
	}
	return node, idx, s, nil
}

// maxSnapshotPages bounds the page count a snapshot payload may declare;
// a hostile count larger than this errors before any allocation.
const maxSnapshotPages = 1 << 22

// marshalSnapshotPayload encodes a snapshot increment as a self-contained
// segment payload (layout in docs/ARCHIVE_FORMAT.md). Pages are written in
// ascending index order so the encoding is deterministic.
func marshalSnapshotPayload(s *snapshot.Snapshot) []byte {
	b := make([]byte, 0, snapshotPayloadBound(s))
	b = append(b, SnapshotPayloadVersion)
	b = binary.AppendUvarint(b, uint64(s.Index))
	b = binary.AppendUvarint(b, s.Landmark.ICount)
	b = binary.AppendUvarint(b, s.Landmark.Branches)
	b = binary.AppendUvarint(b, uint64(s.Landmark.PC))
	b = binary.AppendUvarint(b, s.ICount)
	b = binary.AppendUvarint(b, uint64(s.IncrementBytes))
	for _, blob := range [][]byte{s.Machine, s.Device, s.AuthDevice} {
		b = binary.AppendUvarint(b, uint64(len(blob)))
		b = append(b, blob...)
	}
	pages := make([]int, 0, len(s.MemPages))
	for p := range s.MemPages {
		pages = append(pages, p)
	}
	sort.Ints(pages)
	b = binary.AppendUvarint(b, uint64(len(pages)))
	for _, p := range pages {
		b = binary.AppendUvarint(b, uint64(p))
		b = binary.AppendUvarint(b, uint64(len(s.MemPages[p])))
		b = append(b, s.MemPages[p]...)
	}
	b = binary.AppendUvarint(b, uint64(s.Proof.Leaves))
	b = binary.AppendUvarint(b, uint64(len(s.Proof.Indices)))
	for _, i := range s.Proof.Indices {
		b = binary.AppendUvarint(b, uint64(i))
	}
	for _, h := range s.Proof.Old {
		b = append(b, h[:]...)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Proof.Siblings)))
	for _, h := range s.Proof.Siblings {
		b = append(b, h[:]...)
	}
	b = append(b, s.Root[:]...)
	b = append(b, s.MemRoot[:]...)
	return b
}

// snapshotPayloadBound is at least the length of s's payload: every
// uvarint counted at its widest. marshalSnapshotPayload allocates it once,
// where growing by appends copied a payload of up to 16 MiB several times.
func snapshotPayloadBound(s *snapshot.Snapshot) int {
	const v = binary.MaxVarintLen64
	n := 1 + 6*v // the version and the header
	for _, blob := range [][]byte{s.Machine, s.Device, s.AuthDevice} {
		n += v + len(blob)
	}
	n += v
	for _, page := range s.MemPages {
		n += 2*v + len(page)
	}
	n += 3*v + v*len(s.Proof.Indices)
	n += len(merkle.Hash{}) * (len(s.Proof.Old) + len(s.Proof.Siblings) + 2)
	return n
}

// payloadScan is what a scan of a snapshot payload finds before anything
// is copied out of it or hashed: the version, the header, the register and
// device blobs as windows of the payload, where each captured page lies,
// and a reader positioned at the proof.
type payloadScan struct {
	version byte
	header  snapshot.Snapshot // Index, Landmark, ICount and IncrementBytes
	blobs   [3][]byte         // machine, device, authenticated device
	pages   []pageSpan
	rest    *recReader
}

// pageSpan is one captured page: its index p and its n bytes at off in the
// payload.
type pageSpan struct{ p, off, n int }

// scanSnapshotPayload finds the parts of a snapshot payload of either
// version. Arbitrary bytes must error, never panic: every count is checked
// against the bytes left before anything is allocated for it.
func scanSnapshotPayload(b []byte) (*payloadScan, error) {
	r := &recReader{b: b}
	sc := &payloadScan{rest: r}
	if sc.version = r.byte(); sc.version != SnapshotPayloadVersion && sc.version != snapshotPayloadV1 {
		return nil, fmt.Errorf("archive: snapshot payload version %d (want %d)", sc.version, SnapshotPayloadVersion)
	}
	sc.header.Index = int(r.uvarint())
	sc.header.Landmark = vm.Landmark{
		ICount:   r.uvarint(),
		Branches: r.uvarint(),
		PC:       uint32(r.uvarint()),
	}
	sc.header.ICount = r.uvarint()
	sc.header.IncrementBytes = int(r.uvarint())
	for i := range sc.blobs {
		n := r.uvarint()
		if n > uint64(len(r.b)) {
			return nil, fmt.Errorf("archive: snapshot payload truncated")
		}
		sc.blobs[i] = r.bytes(int(n))
	}
	nPages := r.uvarint()
	if nPages > maxSnapshotPages {
		return nil, fmt.Errorf("archive: snapshot payload declares %d pages", nPages)
	}
	// A page takes at least two bytes (its index and its length), so the
	// bytes left bound what a hostile count can make this allocate.
	sc.pages = make([]pageSpan, 0, min(nPages, uint64(len(r.b)/2)))
	lastPage := -1
	for i := uint64(0); i < nPages && !r.err; i++ {
		p := int(r.uvarint())
		n := r.uvarint()
		if r.err || p <= lastPage || n > uint64(vm.PageSize) || n > uint64(len(r.b)) {
			return nil, fmt.Errorf("archive: snapshot payload pages malformed")
		}
		lastPage = p
		sc.pages = append(sc.pages, pageSpan{p, len(b) - len(r.b), int(n)})
		r.bytes(int(n))
	}
	if r.err {
		return nil, fmt.Errorf("archive: snapshot payload truncated")
	}
	return sc, nil
}

// parseSnapshotPayload decodes a snapshot-increment payload of either
// version. Arbitrary bytes must error, never panic: every count is
// bounds-checked against the remaining payload before allocation, and
// trailing bytes are rejected.
//
// The returned snapshot owns b: its memory pages are windows of b, not
// copies (a 16 MiB first capture is 4096 pages), each with its capacity cut
// to its length so that an append by a consumer reallocates instead of
// running into the next page. The caller must not write to b or hand it to
// anyone else afterwards. Everything else in the snapshot is copied out.
func parseSnapshotPayload(b []byte) (*snapshot.Snapshot, error) {
	sc, err := scanSnapshotPayload(b)
	if err != nil {
		return nil, err
	}
	return sc.decode(b)
}

// decode builds the snapshot the scanned payload b encodes, with
// parseSnapshotPayload's errors and its ownership of b.
func (sc *payloadScan) decode(b []byte) (*snapshot.Snapshot, error) {
	s := &snapshot.Snapshot{
		Index: sc.header.Index, Landmark: sc.header.Landmark,
		ICount: sc.header.ICount, IncrementBytes: sc.header.IncrementBytes,
		Machine:    append([]byte(nil), sc.blobs[0]...),
		Device:     append([]byte(nil), sc.blobs[1]...),
		AuthDevice: append([]byte(nil), sc.blobs[2]...),
	}
	if len(sc.pages) > 0 {
		s.MemPages = make(map[int][]byte, len(sc.pages))
		for _, pg := range sc.pages {
			s.MemPages[pg.p] = b[pg.off : pg.off+pg.n : pg.off+pg.n]
		}
	}
	r := sc.rest
	s.Proof.Leaves = int(r.uvarint())
	nIdx := r.uvarint()
	if nIdx > uint64(len(r.b)) {
		return nil, fmt.Errorf("archive: snapshot payload truncated")
	}
	s.Proof.Indices = make([]int, 0, nIdx)
	for i := uint64(0); i < nIdx && !r.err; i++ {
		s.Proof.Indices = append(s.Proof.Indices, int(r.uvarint()))
	}
	if nIdx > uint64(len(r.b))/32 {
		return nil, fmt.Errorf("archive: snapshot payload truncated")
	}
	s.Proof.Old = make([]merkle.Hash, 0, nIdx)
	for i := uint64(0); i < nIdx && !r.err; i++ {
		s.Proof.Old = append(s.Proof.Old, merkle.Hash(r.hash32()))
	}
	nSib := r.uvarint()
	// Divide rather than multiply: nSib is attacker-controlled and
	// nSib*32 can wrap past the bound, panicking at make below.
	if nSib > uint64(len(r.b))/32 {
		return nil, fmt.Errorf("archive: snapshot payload truncated")
	}
	s.Proof.Siblings = make([]merkle.Hash, 0, nSib)
	for i := uint64(0); i < nSib && !r.err; i++ {
		s.Proof.Siblings = append(s.Proof.Siblings, merkle.Hash(r.hash32()))
	}
	s.Root = r.hash32()
	s.MemRoot = merkle.Hash(r.hash32())
	if !r.done() {
		return nil, fmt.Errorf("archive: snapshot payload malformed")
	}
	if s.Proof.Leaves == 0 {
		// Canonicalize the zero proof so decode(encode(x)) == x for
		// proof-free snapshots regardless of empty-vs-nil slices.
		s.Proof = merkle.BatchProof{}
	}
	if nIdx == 0 {
		s.Proof.Indices, s.Proof.Old = nil, nil
	}
	if nSib == 0 {
		s.Proof.Siblings = nil
	}
	return s, nil
}

// pageLeaves returns merkle.HashLeaf(p, page) for every scanned page of b,
// in scan order. From a payload of readAheadMin bytes on, the pages are
// hashed on up to merkle.DefaultWorkers() goroutines.
func pageLeaves(b []byte, pages []pageSpan) []merkle.Hash {
	workers := 1
	if len(b) >= readAheadMin {
		workers = merkle.DefaultWorkers()
	}
	leaves := make([]merkle.Hash, len(pages))
	merkle.HashLeaves(leaves, func(j int) (int, []byte) {
		pg := pages[j]
		return pg.p, b[pg.off : pg.off+pg.n]
	}, workers)
	return leaves
}

// snapshotDigest is the digest the manifest binds a version-2 snapshot
// payload b to: SHA-256 over SnapshotDigestTag followed by b with the bytes
// of each scanned page replaced by that page's leaf (leaves, in scan order).
// Everything else — the version byte, the header, the blobs, each page's
// index and length, the proof and the roots — is hashed as it lies.
func snapshotDigest(b []byte, pages []pageSpan, leaves []merkle.Hash) [32]byte {
	h := sha256.New()
	h.Write([]byte(SnapshotDigestTag))
	at := 0
	for j, pg := range pages {
		h.Write(b[at:pg.off])
		h.Write(leaves[j][:])
		at = pg.off + pg.n
	}
	h.Write(b[at:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// sealSnapshotPayload is the writer's half of openSnapshotPayload: the
// version-2 payload of s and its digest, from leaves it hashes itself.
func sealSnapshotPayload(s *snapshot.Snapshot) ([]byte, [32]byte, error) {
	b := marshalSnapshotPayload(s)
	sc, err := scanSnapshotPayload(b)
	if err != nil {
		return nil, [32]byte{}, err
	}
	return b, snapshotDigest(b, sc.pages, pageLeaves(b, sc.pages)), nil
}

// openSnapshotPayload checks the snapshot payload b against want, the
// digest its manifest record holds, and decodes it only once it matches:
// nothing of a payload is used before then. ok is false for a payload that
// does not match, whatever the way — a version-1 payload whose SHA-256
// differs; a version-2 payload that does not scan, or whose digest differs;
// any other version byte. A version-2 snapshot comes back carrying the leaves
// the check computed (Snapshot.AttachLeaves). The snapshot owns b, as
// parseSnapshotPayload's does.
func openSnapshotPayload(b []byte, want [32]byte) (s *snapshot.Snapshot, ok bool, err error) {
	if len(b) > 0 && b[0] == snapshotPayloadV1 {
		if payloadHash(b) != want {
			return nil, false, nil
		}
		s, err = parseSnapshotPayload(b)
		return s, true, err
	}
	sc, err := scanSnapshotPayload(b)
	if err != nil || sc.version != SnapshotPayloadVersion {
		return nil, false, nil
	}
	leaves := pageLeaves(b, sc.pages)
	if snapshotDigest(b, sc.pages, leaves) != want {
		return nil, false, nil
	}
	if s, err = sc.decode(b); err != nil {
		return nil, true, err
	}
	pages := make([]int, len(sc.pages))
	for j, pg := range sc.pages {
		pages[j] = pg.p
	}
	s.AttachLeaves(pages, leaves)
	return s, true, nil
}

// payloadHash is the digest the manifest binds an epoch segment, and a
// version-1 snapshot segment, to.
func payloadHash(b []byte) [32]byte { return sha256.Sum256(b) }
