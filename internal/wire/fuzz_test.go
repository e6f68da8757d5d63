package wire

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/tevlog"
)

// fuzzRoundTrip is the property every frame parser an adversary can reach
// must hold: arbitrary bytes never panic it, and what it accepts survives a
// re-encode cycle — the re-encoding parses back to the same value and
// encodes to the same bytes again. (The reader accepts non-minimal uvarints
// and any nonzero byte for true, so the first re-encode may canonicalize;
// after that the bytes are a fixed point.)
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
		16: DistFrameMuxNeedState, 17: DistFrameHello, 18: DistFrameWelcome,
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
