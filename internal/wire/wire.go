// Package wire defines the serialized formats shared by the recording
// monitor (internal/avmm) and the auditor (internal/audit): the contents of
// tamper-evident log entries, and the network frames the commitment
// protocol exchanges (§4.3: signed messages, acknowledgments carrying
// authenticators, challenges).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/sig"
	"repro/internal/tevlog"
	"repro/internal/vm"
)

// --- primitive codec ---

type writer struct{ b []byte }

func (w *writer) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *writer) bytes(p []byte)   { w.uvarint(uint64(len(p))); w.b = append(w.b, p...) }
func (w *writer) str(s string)     { w.bytes([]byte(s)) }
func (w *writer) hash(h [32]byte)  { w.b = append(w.b, h[:]...) }
func (w *writer) landmark(l vm.Landmark) {
	w.uvarint(l.ICount)
	w.uvarint(l.Branches)
	w.uvarint(uint64(l.PC))
}

type reader struct {
	b   []byte
	err error
}

// uvarint reads a minimal uvarint, the only encoding the writer produces.
func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errors.New("wire: truncated varint")
		return 0
	}
	if n > 1 && r.b[n-1] == 0 {
		r.err = errors.New("wire: non-minimal varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// u32 reads a uvarint that must fit in 32 bits.
func (r *reader) u32() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.err = fmt.Errorf("wire: varint %d overflows 32 bits", v)
		return 0
	}
	return uint32(v)
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.err = fmt.Errorf("wire: truncated bytes: want %d, have %d", n, len(r.b))
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[:n])
	r.b = r.b[n:]
	return out
}

func (r *reader) str() string { return string(r.bytes()) }

func (r *reader) hash() [32]byte {
	var h [32]byte
	if r.err != nil {
		return h
	}
	if len(r.b) < 32 {
		r.err = errors.New("wire: truncated hash")
		return h
	}
	copy(h[:], r.b[:32])
	r.b = r.b[32:]
	return h
}

func (r *reader) landmark() vm.Landmark {
	return vm.Landmark{ICount: r.uvarint(), Branches: r.uvarint(), PC: r.u32()}
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(r.b))
	}
	return nil
}

// --- log entry contents ---

// SendContent is the content of a SEND entry: the monitor's record of an
// outgoing message.
type SendContent struct {
	MsgID   uint64 // sender-local message id (equals the entry's seq)
	Dest    uint32 // destination node index
	Payload []byte
}

// Marshal serializes the content.
func (c *SendContent) Marshal() []byte {
	w := &writer{}
	w.uvarint(c.MsgID)
	w.uvarint(uint64(c.Dest))
	w.bytes(c.Payload)
	return w.b
}

// ParseSend decodes a SEND entry content.
func ParseSend(b []byte) (*SendContent, error) {
	r := &reader{b: b}
	c := &SendContent{MsgID: r.uvarint(), Dest: r.u32(), Payload: r.bytes()}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("parsing SEND: %w", err)
	}
	return c, nil
}

// RecvContent is the content of a RECV entry: an incoming message together
// with the sender's authenticator, logged so the signature can be verified
// during an audit (§4.3) and stripped before the message reaches the AVM.
// SenderSeq and SenderPrev let the auditor recompute the sender's chain
// hash for SEND(m) and check SenderSig without any other context.
type RecvContent struct {
	MsgID      uint64 // sender-assigned message id
	SrcNode    string // sender principal
	SrcIdx     uint32 // sender node index as seen by the NIC
	Payload    []byte
	SenderSeq  uint64   // sender's SEND entry sequence number
	SenderPrev [32]byte // sender's chain hash before the SEND entry
	SenderSig  []byte   // sender's authenticator signature
}

// Marshal serializes the content.
func (c *RecvContent) Marshal() []byte {
	w := &writer{}
	w.uvarint(c.MsgID)
	w.str(c.SrcNode)
	w.uvarint(uint64(c.SrcIdx))
	w.bytes(c.Payload)
	w.uvarint(c.SenderSeq)
	w.hash(c.SenderPrev)
	w.bytes(c.SenderSig)
	return w.b
}

// ParseRecv decodes a RECV entry content.
func ParseRecv(b []byte) (*RecvContent, error) {
	r := &reader{b: b}
	c := &RecvContent{
		MsgID: r.uvarint(), SrcNode: r.str(), SrcIdx: r.u32(),
		Payload: r.bytes(),
	}
	c.SenderSeq = r.uvarint()
	c.SenderPrev = r.hash()
	c.SenderSig = r.bytes()
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("parsing RECV: %w", err)
	}
	return c, nil
}

// AckContent is the content of an ACK entry: the peer acknowledged one of
// our messages, committing to a RECV entry in its own log.
type AckContent struct {
	MsgID    uint64 // our SEND MsgID being acknowledged
	PeerNode string
	PeerSeq  uint64   // peer log entry seq committed by the ack
	PeerHash [32]byte // peer chain hash
	PeerSig  []byte
}

// Marshal serializes the content.
func (c *AckContent) Marshal() []byte {
	w := &writer{}
	w.uvarint(c.MsgID)
	w.str(c.PeerNode)
	w.uvarint(c.PeerSeq)
	w.hash(c.PeerHash)
	w.bytes(c.PeerSig)
	return w.b
}

// ParseAck decodes an ACK entry content.
func ParseAck(b []byte) (*AckContent, error) {
	r := &reader{b: b}
	c := &AckContent{MsgID: r.uvarint(), PeerNode: r.str(), PeerSeq: r.uvarint()}
	c.PeerHash = r.hash()
	c.PeerSig = r.bytes()
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("parsing ACK: %w", err)
	}
	return c, nil
}

// NondetContent is the content of a NONDET entry: the value a synchronous
// nondeterministic port read returned (clock reads, chiefly). These are the
// analogue of the paper's TimeTracker entries, which dominate the log
// (§6.4).
type NondetContent struct {
	Port  uint32
	Value uint64
}

// Marshal serializes the content.
func (c *NondetContent) Marshal() []byte {
	w := &writer{}
	w.uvarint(uint64(c.Port))
	w.uvarint(c.Value)
	return w.b
}

// ParseNondet decodes a NONDET entry content.
func ParseNondet(b []byte) (*NondetContent, error) {
	r := &reader{b: b}
	c := &NondetContent{Port: r.u32(), Value: r.uvarint()}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("parsing NONDET: %w", err)
	}
	return c, nil
}

// EventKind distinguishes the asynchronous events recorded with landmarks.
type EventKind uint8

// Asynchronous event kinds.
const (
	// EventIRQ: an interrupt was delivered to the guest at the landmark.
	EventIRQ EventKind = 1 + iota
	// EventInjectPacket: a network payload was placed in the NIC receive
	// queue at the landmark. RecvSeq cross-references the RECV entry whose
	// payload was injected, so an auditor can detect messages dropped or
	// altered between receipt and injection (§4.4, "Detecting
	// inconsistencies").
	EventInjectPacket
	// EventInjectInput: a local input event (keyboard) was queued.
	EventInjectInput
	// EventSnapshot: a state snapshot was taken at the landmark; Root is
	// the authenticated state digest.
	EventSnapshot
)

// EventContent is the content of an IRQ or SNAPSHOT-class entry: an
// asynchronous occurrence pinned to an exact execution landmark so replay
// can re-inject it at the same point.
type EventContent struct {
	Kind     EventKind
	Landmark vm.Landmark
	IRQ      uint32 // EventIRQ
	RecvSeq  uint64 // EventInjectPacket: seq of the RECV entry injected
	SrcIdx   uint32 // EventInjectPacket: NIC-visible source index
	Payload  []byte // EventInjectPacket payload
	Input    uint32 // EventInjectInput value
	SnapIdx  uint32 // EventSnapshot index
	Root     [32]byte
}

// Marshal serializes the content.
func (c *EventContent) Marshal() []byte {
	w := &writer{}
	w.uvarint(uint64(c.Kind))
	w.landmark(c.Landmark)
	switch c.Kind {
	case EventIRQ:
		w.uvarint(uint64(c.IRQ))
	case EventInjectPacket:
		w.uvarint(c.RecvSeq)
		w.uvarint(uint64(c.SrcIdx))
		w.bytes(c.Payload)
	case EventInjectInput:
		w.uvarint(uint64(c.Input))
	case EventSnapshot:
		w.uvarint(uint64(c.SnapIdx))
		w.hash(c.Root)
	}
	return w.b
}

// ParseEvent decodes an event content.
func ParseEvent(b []byte) (*EventContent, error) {
	r := &reader{b: b}
	c := &EventContent{Kind: EventKind(r.uvarint())}
	c.Landmark = r.landmark()
	switch c.Kind {
	case EventIRQ:
		c.IRQ = r.u32()
	case EventInjectPacket:
		c.RecvSeq = r.uvarint()
		c.SrcIdx = r.u32()
		c.Payload = r.bytes()
	case EventInjectInput:
		c.Input = r.u32()
	case EventSnapshot:
		c.SnapIdx = r.u32()
		c.Root = r.hash()
	default:
		return nil, fmt.Errorf("wire: unknown event kind %d", c.Kind)
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("parsing event: %w", err)
	}
	return c, nil
}

// --- network frames ---

// FrameKind tags protocol frames.
type FrameKind uint8

// Protocol frame kinds.
const (
	// FrameData carries an application payload plus the sender's
	// authenticator and signature.
	FrameData FrameKind = 1 + iota
	// FrameAck acknowledges a FrameData, carrying the receiver's
	// authenticator for its RECV entry.
	FrameAck
	// FrameChallenge asks an unresponsive node to prove liveness by
	// answering for a given message id (§4.6).
	FrameChallenge
	// FrameChallengeResp answers a challenge.
	FrameChallengeResp
)

// Overhead constants for IP-level accounting (§6.7): the bare game uses
// UDP; the AVMM encapsulates packets in a TCP connection.
const (
	UDPIPOverhead = 28 // IPv4 + UDP headers
	TCPIPOverhead = 40 // IPv4 + TCP headers
)

// Frame is a protocol-level datagram.
type Frame struct {
	Kind     FrameKind
	FromNode string
	MsgID    uint64
	Payload  []byte

	// Authenticator for the sender's log entry corresponding to this frame
	// (SEND entry for data, RECV entry for acks), plus the previous chain
	// hash so the recipient can recompute h_i and confirm the entry matches
	// the message (§4.3).
	AuthSeq  uint64
	AuthHash [32]byte
	PrevHash [32]byte
	AuthSig  []byte

	// BodySig is the sender's signature over the payload itself, verified
	// during audits of the receiver's log.
	BodySig []byte
}

// marshal serializes the frame with authSig as its AuthSig field and reports
// the offset of that field's bytes (past their length prefix).
func (f *Frame) marshal(authSig []byte) ([]byte, int) {
	w := &writer{}
	w.uvarint(uint64(f.Kind))
	w.str(f.FromNode)
	w.uvarint(f.MsgID)
	w.bytes(f.Payload)
	w.uvarint(f.AuthSeq)
	w.hash(f.AuthHash)
	w.hash(f.PrevHash)
	w.uvarint(uint64(len(authSig)))
	sigOff := len(w.b)
	w.b = append(w.b, authSig...)
	w.bytes(f.BodySig)
	return w.b, sigOff
}

// Marshal serializes the frame.
func (f *Frame) Marshal() []byte {
	raw, _ := f.marshal(f.AuthSig)
	return raw
}

// MarshalSigSlot serializes the frame with sigLen zero bytes where AuthSig
// goes (f.AuthSig is ignored) and returns, besides the frame, the slot: the
// sub-slice of the frame those bytes occupy. Copying a sigLen-byte
// signature into the slot yields exactly the bytes Marshal produces with
// that signature as AuthSig, so a sender can fix a frame's size, position
// and every other byte before the signature has been computed. Until it
// has, the frame parses but its authenticator does not verify.
func (f *Frame) MarshalSigSlot(sigLen int) (raw, slot []byte) {
	raw, off := f.marshal(make([]byte, sigLen))
	return raw, raw[off : off+sigLen : off+sigLen]
}

// ParseFrame decodes a frame.
func ParseFrame(b []byte) (*Frame, error) {
	r := &reader{b: b}
	f := &Frame{Kind: FrameKind(r.uvarint()), FromNode: r.str(), MsgID: r.uvarint()}
	f.Payload = r.bytes()
	f.AuthSeq = r.uvarint()
	f.AuthHash = r.hash()
	f.PrevHash = r.hash()
	f.AuthSig = r.bytes()
	f.BodySig = r.bytes()
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("parsing frame: %w", err)
	}
	return f, nil
}

// Authenticator converts the frame's embedded commitment into a tevlog
// authenticator.
func (f *Frame) Authenticator() tevlog.Authenticator {
	return tevlog.Authenticator{
		Node: sig.NodeID(f.FromNode), Seq: f.AuthSeq, Hash: f.AuthHash, Sig: f.AuthSig,
	}
}
