package wire

import (
	"bytes"
	"crypto/rsa"
	"crypto/x509"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sig"
	"repro/internal/tevlog"
	"repro/internal/vm"
)

// fuzzRoundTrip is the property every frame parser an adversary can reach
// must hold: arbitrary bytes never panic it, and what it accepts survives a
// re-encode cycle — the re-encoding parses back to the same value and
// encodes to the same bytes again. (The reader takes any nonzero byte for
// true, so the first re-encode may canonicalize; after that the bytes are a
// fixed point.)
func fuzzRoundTrip[T any](t *testing.T, b []byte, parse func([]byte) (T, error), marshal func(T) []byte) {
	t.Helper()
	v, err := parse(b)
	if err != nil {
		return
	}
	enc := marshal(v)
	again, err := parse(enc)
	if err != nil {
		t.Fatalf("re-encoding of an accepted frame does not parse: %v\n in %x\nout %x", err, b, enc)
	}
	if !reflect.DeepEqual(v, again) {
		t.Fatalf("re-parse differs:\n got %+v\nwant %+v", again, v)
	}
	if enc2 := marshal(again); !bytes.Equal(enc, enc2) {
		t.Fatalf("re-encoding is not stable:\n 1st %x\n 2nd %x", enc, enc2)
	}
}

// fuzzSeeds adds the valid encoding plus the two classic degenerate inputs.
func fuzzSeeds(f *testing.F, valid ...[]byte) {
	for _, b := range valid {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
}

// The frame one monitor accepts from another: any machine on the simulated
// network, faulty ones included, chooses these bytes.

func FuzzParseFrame(f *testing.F) {
	data := &Frame{
		Kind: FrameData, FromNode: "player1", MsgID: 41, Payload: []byte("move north"),
		AuthSeq: 41, AuthHash: [32]byte{1, 2, 3}, PrevHash: [32]byte{4, 5}, AuthSig: bytes.Repeat([]byte{0xA5}, 128),
	}
	ack := &Frame{Kind: FrameAck, FromNode: "server", MsgID: 41, AuthSeq: 977, AuthSig: []byte{7}, BodySig: []byte("body")}
	slotted, _ := data.MarshalSigSlot(128)
	fuzzSeeds(f, data.Marshal(), ack.Marshal(), slotted, (&Frame{Kind: FrameChallenge, Payload: []byte("why")}).Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, b, ParseFrame, (*Frame).Marshal)
		if fr, err := ParseFrame(b); err == nil {
			requireSlotFills(t, fr, fr.AuthSig)
		}
	})
}

// requireSlotFills checks the property the recording monitor's deferred
// signing rests on: marshaling f with a zeroed signature slot and then
// copying signature into the slot gives the bytes Marshal gives with
// signature as AuthSig, and touches nothing else.
func requireSlotFills(t *testing.T, f *Frame, signature []byte) {
	t.Helper()
	withSig := *f
	withSig.AuthSig = signature
	want := withSig.Marshal()
	raw, slot := f.MarshalSigSlot(len(signature))
	if len(raw) != len(want) || len(slot) != len(signature) {
		t.Fatalf("slot frame is %d bytes with a %d-byte slot; want %d and %d", len(raw), len(slot), len(want), len(signature))
	}
	if !bytes.Equal(slot, make([]byte, len(slot))) {
		t.Fatalf("slot is not zeroed: %x", slot)
	}
	if cap(slot) != len(slot) {
		t.Fatalf("slot has capacity %d past its %d bytes: an append would write into the frame", cap(slot), len(slot))
	}
	copy(slot, signature)
	if !bytes.Equal(raw, want) {
		t.Fatalf("filled slot frame differs from Marshal:\n got %x\nwant %x", raw, want)
	}
}

func TestMarshalSigSlotFillsToMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	blob := func(max int) []byte {
		b := make([]byte, rng.Intn(max+1))
		rng.Read(b)
		return b
	}
	for i := 0; i < 2000; i++ {
		f := &Frame{
			Kind: FrameKind(1 + rng.Intn(4)), FromNode: string(blob(20)), MsgID: rng.Uint64() >> uint(rng.Intn(64)),
			Payload: blob(300), AuthSeq: rng.Uint64() >> uint(rng.Intn(64)), BodySig: blob(140),
			AuthSig: blob(8), // ignored by MarshalSigSlot
		}
		rng.Read(f.AuthHash[:])
		rng.Read(f.PrevHash[:])
		// Signature lengths on both sides of the one- and two-byte length
		// prefixes, and the empty signature of the null signer.
		for _, n := range []int{0, 1, 96, 127, 128, 129, 256} {
			signature := make([]byte, n)
			rng.Read(signature)
			requireSlotFills(t, f, signature)
		}
	}
}

// The frames a worker accepts from the network: a session, then jobs.

func FuzzParseAuditSession(f *testing.F) {
	fuzzSeeds(f, testSession().Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, b, ParseAuditSession, (*AuditSession).Marshal)
	})
}

func FuzzParseAuditJob(f *testing.F) {
	job := &AuditJob{
		Index: 7, StartSnap: 3, StartSeq: 991, Mem: []byte{1, 2, 3}, Machine: []byte{9},
		Entries: []tevlog.Entry{{Seq: 1, Type: tevlog.TypeSend, Content: []byte("hello")}},
	}
	fuzzSeeds(f, job.Marshal(), (&AuditJob{Boot: true}).Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, b, ParseAuditJob, (*AuditJob).Marshal)
	})
}

// The frames a coordinator accepts from the network: verdicts and
// need-state notices, each behind a mux id.

func FuzzParseAuditVerdict(f *testing.F) {
	fault := &AuditVerdict{Index: 3, Instructions: 99, HasFault: true,
		FaultNode: "player1", FaultCheck: "semantic", FaultDetail: "diverged", FaultEntrySeq: 17}
	fuzzSeeds(f, fault.Marshal(), (&AuditVerdict{Index: 1, SnapshotsVerified: 2}).Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, b, ParseAuditVerdict, (*AuditVerdict).Marshal)
	})
}

func FuzzParseNeedState(f *testing.F) {
	fuzzSeeds(f, MarshalNeedState(0), MarshalNeedState(1<<40))
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, b, ParseNeedState, MarshalNeedState)
	})
}

// muxFrame is a mux body split into its two halves, so SplitMuxID can go
// through the same round-trip property.
type muxFrame struct {
	id   uint64
	body []byte
}

func FuzzSplitMuxID(f *testing.F) {
	fuzzSeeds(f, AppendMuxID(0, nil), AppendMuxID(1<<63, []byte("body")))
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, b,
			func(b []byte) (muxFrame, error) {
				id, body, err := SplitMuxID(b)
				return muxFrame{id, append([]byte{}, body...)}, err
			},
			func(m muxFrame) []byte { return AppendMuxID(m.id, m.body) })
	})
}

// TestDistFrameKindNumbers pins the wire numbers docs/DISPATCH_PROTOCOL.md
// lists: kinds are only ever added, and the retired ones stay reserved.
func TestDistFrameKindNumbers(t *testing.T) {
	for want, kind := range map[uint8]DistFrameKind{
		1: DistFrameSession, 2: DistFrameSessionOK, 3: DistFrameJob, 4: DistFrameVerdict,
		5: DistFrameError, 6: DistFrameMuxSession, 7: DistFrameMuxSessionOK, 8: DistFrameMuxJob,
		9: DistFrameMuxVerdict, 10: DistFramePing, 11: DistFramePong, 12: DistFrameDrain,
		13: DistFrameDeltaJob, 14: DistFrameMuxDeltaJob, 15: DistFrameNeedState,
		16: DistFrameMuxNeedState, 17: DistFrameHello, 18: DistFrameWelcome, 19: DistFrameMuxSessionEnd,
	} {
		if uint8(kind) != want {
			t.Errorf("frame kind %d moved to %d", want, kind)
		}
		retired := want <= 4 || want == 13 || want == 15
		if kind.Retired() != retired {
			t.Errorf("frame kind %d: Retired() = %v, want %v", want, kind.Retired(), retired)
		}
	}
	if MaxDistFrame != 1<<30 {
		t.Errorf("MaxDistFrame = %d, documented as 1 GiB", MaxDistFrame)
	}
}

// The contents of log entries. An audited machine writes its own log, so a
// faulty one chooses every byte the syntactic checker hands to these
// parsers — since the signature stage, also the bytes of entries behind a
// signature the checker does not yet know to be bad.

func FuzzParseSend(f *testing.F) {
	fuzzSeeds(f, (&SendContent{MsgID: 41, Dest: 1, Payload: []byte("move north")}).Marshal(), (&SendContent{}).Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, b, ParseSend, (*SendContent).Marshal)
	})
}

func FuzzParseRecv(f *testing.F) {
	rc := &RecvContent{
		MsgID: 41, SrcNode: "player1", SrcIdx: 1, Payload: []byte("move north"),
		SenderSeq: 977, SenderPrev: [32]byte{4, 5}, SenderSig: bytes.Repeat([]byte{0xA5}, 128),
	}
	fuzzSeeds(f, rc.Marshal(), (&RecvContent{}).Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, b, ParseRecv, (*RecvContent).Marshal)
	})
}

func FuzzParseAck(f *testing.F) {
	ac := &AckContent{MsgID: 41, PeerNode: "server", PeerSeq: 12, PeerHash: [32]byte{1, 2, 3}, PeerSig: bytes.Repeat([]byte{0x5A}, 128)}
	fuzzSeeds(f, ac.Marshal(), (&AckContent{}).Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, b, ParseAck, (*AckContent).Marshal)
	})
}

func FuzzParseNondet(f *testing.F) {
	fuzzSeeds(f, (&NondetContent{Port: 1, Value: 1 << 40}).Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, b, ParseNondet, (*NondetContent).Marshal)
	})
}

func FuzzParseEvent(f *testing.F) {
	at := vm.Landmark{ICount: 1 << 33, Branches: 77, PC: 0x1040}
	fuzzSeeds(f,
		(&EventContent{Kind: EventIRQ, Landmark: at, IRQ: 3}).Marshal(),
		(&EventContent{Kind: EventInjectPacket, Landmark: at, RecvSeq: 12, SrcIdx: 1, Payload: []byte("move north")}).Marshal(),
		(&EventContent{Kind: EventInjectInput, Landmark: at, Input: 'w'}).Marshal(),
		(&EventContent{Kind: EventSnapshot, Landmark: at, SnapIdx: 4, Root: [32]byte{9}}).Marshal(),
	)
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, b, ParseEvent, (*EventContent).Marshal)
	})
}

// The log itself as it comes off a disk or a socket, and the public keys an
// auditor is handed to check it with. These two live below this package
// (tevlog, sig) and are fuzzed here because the round-trip helper is.

func FuzzUnmarshalEntry(f *testing.F) {
	e := tevlog.Entry{Seq: 977, Type: tevlog.TypeRecv, Content: []byte("hello")}
	fuzzSeeds(f, e.Marshal(nil), (&tevlog.Entry{}).Marshal(nil), append(e.Marshal(nil), 0xFF))
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, b,
			func(b []byte) (tevlog.Entry, error) {
				e, rest, err := tevlog.UnmarshalEntry(b)
				if err == nil && len(rest) > len(b)-13 {
					t.Fatalf("an entry of %d bytes left %d of %d", e.WireSize(), len(rest), len(b))
				}
				return e, err
			},
			func(e tevlog.Entry) []byte { return e.Marshal(nil) })
	})
}

func FuzzUnmarshalSegment(f *testing.F) {
	seg := []tevlog.Entry{
		{Seq: 1, Type: tevlog.TypeSend, Content: []byte("hello")},
		{Seq: 2, Type: tevlog.TypeAnnotation},
		{Seq: 3, Type: tevlog.TypeNondet, Content: []byte{1, 2}},
	}
	fuzzSeeds(f, tevlog.MarshalSegment(seg), tevlog.MarshalSegment(seg[:1]))
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, b, tevlog.UnmarshalSegment, tevlog.MarshalSegment)
	})
}

// FuzzParseRSAVerifier is seeded with a key as GenerateRSA makes them
// (e = 3) and the same modulus with e = 65537, as older key files hold it.
func FuzzParseRSAVerifier(f *testing.F) {
	key := sig.MustGenerateRSA("player1", sig.DefaultKeyBits, "fuzz").Public().Marshal()
	pub, err := x509.ParsePKCS1PublicKey(key)
	if err != nil {
		f.Fatal(err)
	}
	old := x509.MarshalPKCS1PublicKey(&rsa.PublicKey{N: pub.N, E: 65537})
	fuzzSeeds(f, key, key[:len(key)-3], old, old[:len(old)-3])
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, b,
			func(b []byte) (*sig.RSAVerifier, error) { return sig.ParseRSAVerifier("player1", b) },
			(*sig.RSAVerifier).Marshal)
	})
}
