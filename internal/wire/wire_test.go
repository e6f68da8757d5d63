package wire

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/tevlog"
	"repro/internal/vm"
)

func TestSendRoundTrip(t *testing.T) {
	c := &SendContent{MsgID: 42, Dest: 3, Payload: []byte("payload")}
	got, err := ParseSend(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("%+v != %+v", got, c)
	}
}

func TestRecvRoundTrip(t *testing.T) {
	c := &RecvContent{
		MsgID: 7, SrcNode: "alice", SrcIdx: 2, Payload: []byte("m"),
		SenderSeq: 9, SenderSig: []byte("sig"),
	}
	c.SenderPrev[0] = 0xAB
	got, err := ParseRecv(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("%+v != %+v", got, c)
	}
}

func TestAckRoundTrip(t *testing.T) {
	c := &AckContent{MsgID: 3, PeerNode: "bob", PeerSeq: 11, PeerSig: []byte("s")}
	c.PeerHash[31] = 0xCD
	got, err := ParseAck(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("%+v != %+v", got, c)
	}
}

func TestNondetRoundTrip(t *testing.T) {
	c := &NondetContent{Port: vm.PortClockLo, Value: 1 << 40}
	got, err := ParseNondet(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *c {
		t.Fatalf("%+v != %+v", got, c)
	}
}

func TestEventRoundTrips(t *testing.T) {
	lm := vm.Landmark{ICount: 1000, Branches: 50, PC: 0x1234}
	events := []*EventContent{
		{Kind: EventIRQ, Landmark: lm, IRQ: 3},
		{Kind: EventInjectPacket, Landmark: lm, RecvSeq: 8, SrcIdx: 2, Payload: []byte("pkt")},
		{Kind: EventInjectInput, Landmark: lm, Input: 0xBEEF},
		{Kind: EventSnapshot, Landmark: lm, SnapIdx: 4, Root: [32]byte{1, 2, 3}},
	}
	for _, ev := range events {
		got, err := ParseEvent(ev.Marshal())
		if err != nil {
			t.Fatalf("kind %d: %v", ev.Kind, err)
		}
		if !reflect.DeepEqual(ev, got) {
			t.Fatalf("kind %d: %+v != %+v", ev.Kind, got, ev)
		}
	}
}

func TestParseEventRejectsUnknownKind(t *testing.T) {
	bad := &EventContent{Kind: EventKind(99)}
	if _, err := ParseEvent(bad.Marshal()); err == nil {
		t.Fatal("unknown event kind parsed")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{
		Kind: FrameData, FromNode: "alice", MsgID: 5, Payload: []byte("hello"),
		AuthSeq: 5, AuthSig: []byte("authsig"), BodySig: []byte("bodysig"),
	}
	f.AuthHash[0] = 1
	f.PrevHash[1] = 2
	got, err := ParseFrame(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("%+v != %+v", got, f)
	}
	a := got.Authenticator()
	if a.Node != "alice" || a.Seq != 5 || a.Hash != f.AuthHash || !bytes.Equal(a.Sig, f.AuthSig) {
		t.Fatalf("authenticator = %+v", a)
	}
}

func TestTruncationRejected(t *testing.T) {
	c := &RecvContent{MsgID: 7, SrcNode: "alice", Payload: []byte("abcdef"), SenderSig: []byte("s")}
	raw := c.Marshal()
	for cut := 0; cut < len(raw); cut += 3 {
		if _, err := ParseRecv(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	f := &Frame{Kind: FrameAck, FromNode: "x"}
	raw = f.Marshal()
	for cut := 0; cut < len(raw); cut += 5 {
		if _, err := ParseFrame(raw[:cut]); err == nil {
			t.Fatalf("frame truncation at %d accepted", cut)
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	c := &SendContent{MsgID: 1, Payload: []byte("x")}
	raw := append(c.Marshal(), 0xFF)
	if _, err := ParseSend(raw); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestAlternateVarintsRejected: every parser reads only the encoding the
// writer produces — a minimal uvarint, and a 32-bit field within 32 bits.
func TestAlternateVarintsRejected(t *testing.T) {
	// MsgID 1 as 0x81 0x00, then Dest 0 and an empty payload.
	if _, err := ParseSend([]byte{0x81, 0x00, 0x00, 0x00}); err == nil {
		t.Error("non-minimal varint accepted")
	}
	// Dest 1<<32.
	if _, err := ParseSend([]byte{0x01, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00}); err == nil {
		t.Error("32-bit field out of range accepted")
	}
	if _, err := ParseSend([]byte{0x01, 0x00, 0x00}); err != nil {
		t.Errorf("minimal encoding rejected: %v", err)
	}
}

// TestPropertyFrameRoundTrip fuzzes frame fields through marshal/parse.
func TestPropertyFrameRoundTrip(t *testing.T) {
	f := func(kind uint8, node string, msgID uint64, payload []byte, seq uint64, sig []byte) bool {
		in := &Frame{
			Kind: FrameKind(kind), FromNode: node, MsgID: msgID,
			Payload: payload, AuthSeq: seq, AuthSig: sig,
		}
		out, err := ParseFrame(in.Marshal())
		if err != nil {
			return false
		}
		// nil and empty slices are equivalent on the wire.
		if len(in.Payload) == 0 {
			in.Payload = out.Payload
		}
		if len(in.AuthSig) == 0 {
			in.AuthSig = out.AuthSig
		}
		if len(out.BodySig) == 0 {
			out.BodySig = in.BodySig
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRecvContentBindsToChain verifies the reconstruction the auditor
// performs: a RECV entry's embedded sender commitment reproduces the exact
// chain hash of the sender's SEND entry.
func TestRecvContentBindsToChain(t *testing.T) {
	payload := []byte("the message")
	send := &SendContent{MsgID: 4, Dest: 1, Payload: payload}
	var prev tevlog.Hash
	prev[3] = 9
	h := tevlog.ChainHash(prev, 4, tevlog.TypeSend, tevlog.HashContent(send.Marshal()))

	rc := &RecvContent{MsgID: 4, SrcNode: "bob", Payload: payload, SenderSeq: 4, SenderPrev: prev}
	rebuilt := &SendContent{MsgID: rc.MsgID, Dest: 1, Payload: rc.Payload}
	h2 := tevlog.ChainHash(rc.SenderPrev, rc.SenderSeq, tevlog.TypeSend, tevlog.HashContent(rebuilt.Marshal()))
	if h != h2 {
		t.Fatal("auditor reconstruction does not reproduce sender chain hash")
	}
}
