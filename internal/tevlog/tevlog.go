// Package tevlog implements the tamper-evident log at the heart of the AVMM
// (paper §4.3). The log is a hash chain: each entry e_i = (s_i, t_i, c_i,
// h_i) carries a monotonically increasing sequence number, a type, content,
// and a hash h_i = H(h_{i-1} || s_i || t_i || H(c_i)) linking it to every
// previous entry. Authenticators — signed (s_i, h_i) pairs — commit a
// machine to its log: once issued, the machine cannot forge, omit, modify
// or reorder entries, or fork its log, without the chain failing to match.
//
// The technique is adapted from PeerReview (Haeberlen et al., SOSP 2007),
// extended to also carry the VMM's execution trace (nondeterministic inputs
// and interrupt landmarks) alongside message exchanges.
package tevlog

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"

	"repro/internal/sig"
)

// EntryType tags a log entry. Message entries (Send/Recv/Ack) and execution
// entries (Nondet/IRQ/Snapshot) form the two parallel streams §4.4
// describes; the auditor cross-references them.
type EntryType uint8

// Log entry types.
const (
	// TypeSend records an outgoing network message.
	TypeSend EntryType = 1 + iota
	// TypeRecv records an incoming network message, together with the
	// sender's signature so it can be verified during an audit.
	TypeRecv
	// TypeAck records an acknowledgment received for a sent message.
	TypeAck
	// TypeNondet records a synchronous nondeterministic input, e.g. the
	// value returned by a clock read. The timing of synchronous inputs need
	// not be recorded because the guest re-requests them during replay.
	TypeNondet
	// TypeIRQ records an asynchronous event (a hardware interrupt) together
	// with the precise execution landmark at which it was delivered, so it
	// can be re-injected at the exact same point during replay. These play
	// the role of the paper's TimeTracker entries.
	TypeIRQ
	// TypeSnapshot records the top-level hash of a state snapshot.
	TypeSnapshot
	// TypeAnnotation records non-semantic metadata (epoch markers, etc.).
	// Annotations are hashed like any other entry but ignored by replay.
	TypeAnnotation
)

// String returns the conventional name of the entry type.
func (t EntryType) String() string {
	switch t {
	case TypeSend:
		return "SEND"
	case TypeRecv:
		return "RECV"
	case TypeAck:
		return "ACK"
	case TypeNondet:
		return "NONDET"
	case TypeIRQ:
		return "IRQ"
	case TypeSnapshot:
		return "SNAPSHOT"
	case TypeAnnotation:
		return "ANNOTATION"
	default:
		return fmt.Sprintf("EntryType(%d)", uint8(t))
	}
}

// HashSize is the size of chain hashes.
const HashSize = sha256.Size

// Hash is a chain or content hash.
type Hash [HashSize]byte

// HashContent returns H(c), the content digest folded into the chain.
func HashContent(c []byte) Hash { return sha256.Sum256(c) }

// ChainHash computes h_i = H(h_{i-1} || s_i || t_i || H(c_i)).
func ChainHash(prev Hash, seq uint64, typ EntryType, contentHash Hash) Hash {
	var buf [HashSize + 8 + 1 + HashSize]byte
	copy(buf[:HashSize], prev[:])
	binary.BigEndian.PutUint64(buf[HashSize:], seq)
	buf[HashSize+8] = byte(typ)
	copy(buf[HashSize+9:], contentHash[:])
	return sha256.Sum256(buf[:])
}

// Entry is one element e_i of the log.
type Entry struct {
	Seq     uint64
	Type    EntryType
	Content []byte
	Hash    Hash // h_i, the chain hash including this entry
}

// WireSize returns the serialized size of the entry in bytes. Chain hashes
// are recomputable and therefore not stored, but each entry pays a small
// framing overhead; this is what log-growth measurements count.
func (e *Entry) WireSize() int { return 8 + 1 + 4 + len(e.Content) }

// Marshal appends the serialized entry to dst and returns the result.
func (e *Entry) Marshal(dst []byte) []byte {
	var hdr [13]byte
	binary.BigEndian.PutUint64(hdr[0:], e.Seq)
	hdr[8] = byte(e.Type)
	binary.BigEndian.PutUint32(hdr[9:], uint32(len(e.Content)))
	dst = append(dst, hdr[:]...)
	return append(dst, e.Content...)
}

// UnmarshalEntry decodes one entry from b, returning it and the remaining
// bytes. The chain hash is left zero; callers recompute it via Rechain.
func UnmarshalEntry(b []byte) (Entry, []byte, error) {
	if len(b) < 13 {
		return Entry{}, nil, errors.New("tevlog: truncated entry header")
	}
	e := Entry{
		Seq:  binary.BigEndian.Uint64(b[0:]),
		Type: EntryType(b[8]),
	}
	n := binary.BigEndian.Uint32(b[9:])
	b = b[13:]
	if uint32(len(b)) < n {
		return Entry{}, nil, fmt.Errorf("tevlog: truncated entry content: want %d bytes, have %d", n, len(b))
	}
	e.Content = append([]byte(nil), b[:n]...)
	return e, b[n:], nil
}

// Authenticator is a_i = (node, s_i, h_i, σ(s_i || h_i)): a signed
// commitment to the log prefix ending at entry s_i. Attached to every
// outgoing message, collected by recipients, and checked during audits.
type Authenticator struct {
	Node sig.NodeID
	Seq  uint64
	Hash Hash
	Sig  []byte
}

// authBody returns the byte string an authenticator signature covers.
func authBody(seq uint64, h Hash) []byte {
	var buf [8 + HashSize]byte
	binary.BigEndian.PutUint64(buf[:8], seq)
	copy(buf[8:], h[:])
	return buf[:]
}

// Verify checks the authenticator's signature against the key store.
func (a Authenticator) Verify(ks *sig.KeyStore) bool {
	return ks.Verify(a.Node, authBody(a.Seq, a.Hash), a.Sig)
}

// WireSize returns the transmitted size of the authenticator in bytes.
func (a Authenticator) WireSize() int {
	return len(a.Node) + 8 + HashSize + len(a.Sig)
}

// ErrForkDetected reports two valid authenticators from the same node with
// the same sequence number but different hashes — proof that the node
// forked its log.
var ErrForkDetected = errors.New("tevlog: fork detected: conflicting authenticators for same sequence number")

// CheckFork examines two authenticators from the same node. If they commit
// to different hashes for the same sequence number, the pair is evidence of
// a forked log and ErrForkDetected is returned.
func CheckFork(a, b Authenticator) error {
	if a.Node == b.Node && a.Seq == b.Seq && a.Hash != b.Hash {
		return ErrForkDetected
	}
	return nil
}

// chainer streams the two hashes of one chain link — H(c_i) and
// h_i = H(h_{i-1} || s_i || t_i || H(c_i)) — through a single reusable
// SHA-256 state, producing bytes identical to HashContent+ChainHash while
// avoiding the intermediate buffer assembly and per-entry digest
// allocations on the append and rechain hot paths.
type chainer struct {
	h   hash.Hash
	sum Hash // scratch for the content digest
}

func (c *chainer) init() {
	if c.h == nil {
		c.h = sha256.New()
	}
}

// link writes h_i into *out given the previous chain hash and the entry
// fields.
func (c *chainer) link(prev Hash, seq uint64, typ EntryType, content []byte, out *Hash) {
	c.init()
	c.h.Reset()
	c.h.Write(content)
	c.h.Sum(c.sum[:0])
	var hdr [9]byte
	binary.BigEndian.PutUint64(hdr[0:8], seq)
	hdr[8] = byte(typ)
	c.h.Reset()
	c.h.Write(prev[:])
	c.h.Write(hdr[:])
	c.h.Write(c.sum[:])
	c.h.Sum(out[:0])
}

// Log is the append-only tamper-evident log a machine maintains.
type Log struct {
	node    sig.NodeID
	signer  sig.Signer
	entries []Entry
	// baseSeq is the sequence number of entries[0]; a log always starts at 1.
	wireBytes int
	// ch is the reusable hash state for the append hot path.
	ch chainer
}

// New returns an empty log for node, signing authenticators with signer.
func New(signer sig.Signer) *Log {
	return &Log{node: signer.ID(), signer: signer}
}

// Node returns the machine the log belongs to.
func (l *Log) Node() sig.NodeID { return l.node }

// Len returns the number of entries.
func (l *Log) Len() int { return len(l.entries) }

// WireBytes returns the total serialized size of the log so far. This is
// the quantity Figures 3 and 4 measure.
func (l *Log) WireBytes() int { return l.wireBytes }

// LastHash returns the chain hash of the most recent entry, or the zero
// hash for an empty log (h_0 := 0, §4.3).
func (l *Log) LastHash() Hash {
	if len(l.entries) == 0 {
		return Hash{}
	}
	return l.entries[len(l.entries)-1].Hash
}

// NextSeq returns the sequence number the next appended entry will get.
func (l *Log) NextSeq() uint64 { return uint64(len(l.entries)) + 1 }

// Append adds an entry of the given type and returns it. Sequence numbers
// start at 1 and increase by one per entry.
func (l *Log) Append(typ EntryType, content []byte) Entry {
	e := Entry{
		Seq:     uint64(len(l.entries)) + 1,
		Type:    typ,
		Content: content,
	}
	l.ch.link(l.LastHash(), e.Seq, e.Type, content, &e.Hash)
	l.entries = append(l.entries, e)
	l.wireBytes += e.WireSize()
	return e
}

// Entry returns the entry with sequence number seq.
func (l *Log) Entry(seq uint64) (Entry, error) {
	if seq < 1 || seq > uint64(len(l.entries)) {
		return Entry{}, fmt.Errorf("tevlog: sequence number %d out of range [1,%d]", seq, len(l.entries))
	}
	return l.entries[seq-1], nil
}

// Commitment issues the commitment a_i for entry seq without signing it:
// the authenticator with Sig left nil, and the byte string a signature over
// it must cover. The (s_i, h_i) pair is fixed from here on; a caller that
// signs elsewhere (the AVMM's logging daemon) puts the signature wherever
// the authenticator travels.
func (l *Log) Commitment(seq uint64) (Authenticator, []byte, error) {
	e, err := l.Entry(seq)
	if err != nil {
		return Authenticator{}, nil, err
	}
	return Authenticator{Node: l.node, Seq: e.Seq, Hash: e.Hash}, authBody(e.Seq, e.Hash), nil
}

// Authenticator produces the signed commitment a_i for entry seq.
func (l *Log) Authenticator(seq uint64) (Authenticator, error) {
	a, body, err := l.Commitment(seq)
	if err != nil {
		return Authenticator{}, err
	}
	a.Sig = l.signer.Sign(body)
	return a, nil
}

// LastAuthenticator signs the current head of the log.
func (l *Log) LastAuthenticator() (Authenticator, error) {
	if len(l.entries) == 0 {
		return Authenticator{}, errors.New("tevlog: empty log has no authenticator")
	}
	return l.Authenticator(uint64(len(l.entries)))
}

// Segment returns entries with sequence numbers in [lo, hi], inclusive —
// the L_ij an auditor downloads (§4.5).
func (l *Log) Segment(lo, hi uint64) ([]Entry, error) {
	if lo < 1 || hi > uint64(len(l.entries)) || lo > hi {
		return nil, fmt.Errorf("tevlog: segment [%d,%d] out of range [1,%d]", lo, hi, len(l.entries))
	}
	out := make([]Entry, hi-lo+1)
	copy(out, l.entries[lo-1:hi])
	return out, nil
}

// All returns a copy of the whole log.
func (l *Log) All() []Entry {
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Entries returns the log's entries without copying. The returned slice is
// a read-only view for internal callers (auditors, experiments): entries
// and their hashes must not be modified, and the view must not be appended
// to. The full slice expression pins capacity so later Appends to the log
// cannot alias into it.
func (l *Log) Entries() []Entry {
	return l.entries[:len(l.entries):len(l.entries)]
}

// SegmentView is Segment without the defensive copy, for read-only
// internal callers (e.g. online auditors polling the log). The same
// read-only contract as Entries applies.
func (l *Log) SegmentView(lo, hi uint64) ([]Entry, error) {
	if lo < 1 || hi > uint64(len(l.entries)) || lo > hi {
		return nil, fmt.Errorf("tevlog: segment [%d,%d] out of range [1,%d]", lo, hi, len(l.entries))
	}
	return l.entries[lo-1 : hi : hi], nil
}

// Tampering errors returned by segment verification.
var (
	// ErrChainBroken reports a segment whose recomputed hash chain does not
	// match its stored hashes (an entry was modified, inserted or removed).
	ErrChainBroken = errors.New("tevlog: hash chain broken")
	// ErrAuthenticatorMismatch reports a segment inconsistent with a
	// previously issued authenticator.
	ErrAuthenticatorMismatch = errors.New("tevlog: segment does not match issued authenticator")
	// ErrBadSignature reports an authenticator whose signature is invalid.
	ErrBadSignature = errors.New("tevlog: authenticator signature invalid")
)

// Rechain recomputes the chain hashes of a segment given the hash of the
// entry immediately preceding it (the zero hash if the segment starts at
// sequence number 1). It returns ErrChainBroken if sequence numbers are not
// consecutive. The input slice is modified in place.
func Rechain(prev Hash, entries []Entry) error {
	var c chainer
	for i := range entries {
		if i > 0 && entries[i].Seq != entries[i-1].Seq+1 {
			return fmt.Errorf("%w: non-consecutive sequence numbers %d, %d",
				ErrChainBroken, entries[i-1].Seq, entries[i].Seq)
		}
		c.link(prev, entries[i].Seq, entries[i].Type, entries[i].Content, &entries[i].Hash)
		prev = entries[i].Hash
	}
	return nil
}

// ChainVerifier is the streaming form of VerifySegment: it consumes a
// segment one entry at a time, maintaining the running chain hash, and
// checks the recomputed chain against the collected authenticators when the
// segment ends. It never owns the entry slice, so a multi-hour log verifies
// in memory proportional to the authenticator set, not the log.
//
// Signatures are not verified here but on a SigStage: Add submits each
// authenticator as the stream passes its sequence number — so only
// authenticators inside the segment are ever verified, and their signatures
// are being checked while the rest of the segment is still arriving — and
// Finish reads the results.
//
// Error semantics are identical to VerifySegment's: chain breaks surface
// immediately from Add (the first break in entry order, exactly the error a
// batch pass reports; nothing is submitted after one), while authenticator
// checks — which depend on the segment's final sequence number — are
// deferred to Finish and evaluated in the order the authenticators were
// supplied, whatever order the stage verified them in, preserving the batch
// verifier's error precedence (a chain break anywhere outranks a bad
// signature anywhere).
type ChainVerifier struct {
	sigs  *SigStage
	auths []Authenticator
	// bySeq indexes auths by sequence number so each entry touches only its
	// own authenticators.
	bySeq map[uint64][]int
	// authHash records the recomputed chain hash at each authenticator's
	// sequence number, and tickets its signature's place on the stage, both
	// filled as the stream passes it.
	authHash []Hash
	tickets  []SigTicket
	c        chainer
	prev     Hash
	started  bool
	lo, last uint64
	err      error
}

// NewChainVerifier starts verifying a segment whose predecessor has chain
// hash prev (the zero hash for a log audited from boot). Signatures are
// checked on sigs, which the verifier may share with other submitters (an
// audit's syntactic checker) and which the caller closes.
func NewChainVerifier(prev Hash, auths []Authenticator, sigs *SigStage) *ChainVerifier {
	v := &ChainVerifier{
		sigs:     sigs,
		auths:    auths,
		bySeq:    make(map[uint64][]int),
		authHash: make([]Hash, len(auths)),
		tickets:  make([]SigTicket, len(auths)),
		prev:     prev,
	}
	for i := range auths {
		v.bySeq[auths[i].Seq] = append(v.bySeq[auths[i].Seq], i)
	}
	return v
}

// Add folds the next entry into the chain. It returns ErrChainBroken (with
// detail) as soon as sequence numbers stop being consecutive; the error is
// sticky. The entry is not modified; use Last for its recomputed hash.
func (v *ChainVerifier) Add(e *Entry) error {
	if v.err != nil {
		return v.err
	}
	if v.started && e.Seq != v.last+1 {
		v.err = fmt.Errorf("%w: non-consecutive sequence numbers %d, %d",
			ErrChainBroken, v.last, e.Seq)
		return v.err
	}
	if !v.started {
		v.started = true
		v.lo = e.Seq
	}
	v.c.link(v.prev, e.Seq, e.Type, e.Content, &v.prev)
	v.last = e.Seq
	for _, i := range v.bySeq[e.Seq] {
		v.authHash[i] = v.prev
		v.tickets[i] = v.sigs.Submit(v.auths[i])
	}
	return nil
}

// Last returns the chain hash of the most recently added entry (what
// Rechain would have stored in it).
func (v *ChainVerifier) Last() Hash { return v.prev }

// Finish completes verification: every authenticator inside the segment
// must carry a valid signature and match the recomputed chain, and at least
// one must cover the final entry — otherwise the tail of the segment is
// uncommitted and truncating it would go unnoticed.
func (v *ChainVerifier) Finish() error {
	if v.err != nil {
		return v.err
	}
	if !v.started {
		return errors.New("tevlog: empty segment")
	}
	lo, hi := v.lo, v.last
	covered := false
	for i := range v.auths {
		a := &v.auths[i]
		if a.Seq < lo || a.Seq > hi {
			continue
		}
		if !v.sigs.Valid(v.tickets[i]) {
			return ErrBadSignature
		}
		if got := v.authHash[i]; got != a.Hash {
			return fmt.Errorf("%w: entry %d has chain hash %x, authenticator commits to %x",
				ErrAuthenticatorMismatch, a.Seq, got[:8], a.Hash[:8])
		}
		if a.Seq == hi {
			covered = true
		}
	}
	if !covered {
		return fmt.Errorf("%w: no authenticator covers segment end %d", ErrAuthenticatorMismatch, hi)
	}
	return nil
}

// VerifySegment checks a downloaded segment against a set of authenticators
// previously collected from the machine (§4.3: "she verifies that the hash
// chain is intact"). prev is the chain hash immediately before the segment.
// Every authenticator whose sequence number falls inside the segment must
// match the recomputed chain; at least one must cover the segment's last
// entry, otherwise the tail of the segment is uncommitted and skipping it
// would go unnoticed. Signatures are checked against ks, on a SigStage while
// the chain is still being recomputed; the segment itself is never
// modified. It is a thin wrapper over ChainVerifier, which performs the same
// checks one entry at a time.
func VerifySegment(prev Hash, entries []Entry, auths []Authenticator, ks *sig.KeyStore) error {
	sigs := NewSigStage(ks)
	defer sigs.Close()
	v := NewChainVerifier(prev, auths, sigs)
	for i := range entries {
		if err := v.Add(&entries[i]); err != nil {
			return err
		}
	}
	return v.Finish()
}

// MarshalSegment serializes a segment for transfer or storage.
func MarshalSegment(entries []Entry) []byte {
	size := 0
	for i := range entries {
		size += entries[i].WireSize()
	}
	out := make([]byte, 0, size)
	for i := range entries {
		out = entries[i].Marshal(out)
	}
	return out
}

// UnmarshalSegment decodes a serialized segment. Chain hashes are not
// restored; use Rechain.
func UnmarshalSegment(b []byte) ([]Entry, error) {
	var out []Entry
	for len(b) > 0 {
		e, rest, err := UnmarshalEntry(b)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		b = rest
	}
	return out, nil
}
