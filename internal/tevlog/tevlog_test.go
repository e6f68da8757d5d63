package tevlog

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sig"
)

func testSigner(t *testing.T, id string) sig.Signer {
	t.Helper()
	return sig.MustGenerateRSA(sig.NodeID(id), sig.DefaultKeyBits, "tevlog-test")
}

func testKeys(signers ...sig.Signer) *sig.KeyStore {
	ks := sig.NewKeyStore()
	for _, s := range signers {
		ks.Add(s.Public())
	}
	return ks
}

func buildLog(signer sig.Signer, n int) *Log {
	l := New(signer)
	for i := 0; i < n; i++ {
		typ := TypeNondet
		if i%3 == 0 {
			typ = TypeSend
		}
		l.Append(typ, []byte{byte(i), byte(i >> 8), byte(i * 7)})
	}
	return l
}

func TestAppendAssignsConsecutiveSeqs(t *testing.T) {
	l := buildLog(testSigner(t, "a"), 10)
	for i, e := range l.All() {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
	if l.NextSeq() != 11 {
		t.Fatalf("NextSeq = %d", l.NextSeq())
	}
}

func TestChainHashesLink(t *testing.T) {
	l := buildLog(testSigner(t, "a"), 5)
	entries := l.All()
	prev := Hash{}
	for _, e := range entries {
		want := ChainHash(prev, e.Seq, e.Type, HashContent(e.Content))
		if e.Hash != want {
			t.Fatalf("entry %d hash mismatch", e.Seq)
		}
		prev = e.Hash
	}
}

func TestVerifySegmentHonest(t *testing.T) {
	s := testSigner(t, "a")
	ks := testKeys(s)
	l := buildLog(s, 20)
	head, err := l.LastAuthenticator()
	if err != nil {
		t.Fatal(err)
	}
	mid, err := l.Authenticator(10)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := l.Segment(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySegment(Hash{}, seg, []Authenticator{mid, head}, ks); err != nil {
		t.Fatalf("honest segment rejected: %v", err)
	}
	// A sub-segment ending at the mid authenticator also verifies, given
	// the correct prev hash.
	e5, err := l.Entry(5)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := l.Segment(6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySegment(e5.Hash, sub, []Authenticator{mid}, ks); err != nil {
		t.Fatalf("honest sub-segment rejected: %v", err)
	}
}

func TestVerifySegmentRejectsUncoveredTail(t *testing.T) {
	s := testSigner(t, "a")
	ks := testKeys(s)
	l := buildLog(s, 20)
	mid, err := l.Authenticator(10)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := l.Segment(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySegment(Hash{}, seg, []Authenticator{mid}, ks); err == nil {
		t.Fatal("segment with uncommitted tail accepted")
	}
}

// TestPropertyAnyMutationBreaksVerification is the core tamper-evidence
// property: modify, truncate from the middle, reorder or drop any entry and
// verification against a head authenticator must fail.
func TestPropertyAnyMutationBreaksVerification(t *testing.T) {
	s := testSigner(t, "a")
	ks := testKeys(s)
	l := buildLog(s, 30)
	head, err := l.LastAuthenticator()
	if err != nil {
		t.Fatal(err)
	}
	f := func(posRaw uint16, mutation uint8, flip uint8) bool {
		seg := l.All()
		pos := int(posRaw) % (len(seg) - 1)
		switch mutation % 4 {
		case 0: // flip a content byte
			seg[pos].Content = append([]byte(nil), seg[pos].Content...)
			seg[pos].Content[0] ^= flip | 1
		case 1: // drop an entry
			seg = append(seg[:pos], seg[pos+1:]...)
		case 2: // swap neighbours
			seg[pos], seg[pos+1] = seg[pos+1], seg[pos]
		case 3: // change a type
			if seg[pos].Type == TypeSend {
				seg[pos].Type = TypeNondet
			} else {
				seg[pos].Type = TypeSend
			}
		}
		return VerifySegment(Hash{}, seg, []Authenticator{head}, ks) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAuthenticatorSignature(t *testing.T) {
	s := testSigner(t, "a")
	other := testSigner(t, "b")
	ks := testKeys(s, other)
	l := buildLog(s, 3)
	a, err := l.LastAuthenticator()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Verify(ks) {
		t.Fatal("genuine authenticator rejected")
	}
	forged := a
	forged.Seq++
	if forged.Verify(ks) {
		t.Fatal("forged seq accepted")
	}
	wrongNode := a
	wrongNode.Node = "b"
	if wrongNode.Verify(ks) {
		t.Fatal("authenticator attributed to wrong node accepted")
	}
	unknown := a
	unknown.Node = "nobody"
	if unknown.Verify(ks) {
		t.Fatal("authenticator from unknown principal accepted")
	}
}

func TestCheckFork(t *testing.T) {
	s := testSigner(t, "a")
	l1 := New(s)
	l2 := New(s)
	l1.Append(TypeSend, []byte("x"))
	l2.Append(TypeSend, []byte("y"))
	a1, err := l1.LastAuthenticator()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := l2.LastAuthenticator()
	if err != nil {
		t.Fatal(err)
	}
	if CheckFork(a1, a2) == nil {
		t.Fatal("fork not detected")
	}
	if CheckFork(a1, a1) != nil {
		t.Fatal("identical authenticators flagged as fork")
	}
	b := testSigner(t, "b")
	lb := New(b)
	lb.Append(TypeSend, []byte("z"))
	ab, err := lb.LastAuthenticator()
	if err != nil {
		t.Fatal(err)
	}
	if CheckFork(a1, ab) != nil {
		t.Fatal("different nodes flagged as fork")
	}
}

func TestMarshalSegmentRoundTrip(t *testing.T) {
	l := buildLog(testSigner(t, "a"), 15)
	entries := l.All()
	raw := MarshalSegment(entries)
	back, err := UnmarshalSegment(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(back), len(entries))
	}
	if err := Rechain(Hash{}, back); err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if back[i].Seq != entries[i].Seq || back[i].Type != entries[i].Type ||
			!bytes.Equal(back[i].Content, entries[i].Content) || back[i].Hash != entries[i].Hash {
			t.Fatalf("entry %d differs after round trip", i)
		}
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	l := buildLog(testSigner(t, "a"), 3)
	raw := MarshalSegment(l.All())
	for _, cut := range []int{1, 5, 14, len(raw) - 1} {
		if _, err := UnmarshalSegment(raw[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestRechainRejectsGaps(t *testing.T) {
	l := buildLog(testSigner(t, "a"), 10)
	seg := l.All()
	seg = append(seg[:4], seg[5:]...) // gap in sequence numbers
	if err := Rechain(Hash{}, seg); err == nil {
		t.Fatal("gap in sequence numbers accepted")
	}
}

func TestSegmentBounds(t *testing.T) {
	l := buildLog(testSigner(t, "a"), 5)
	for _, bad := range [][2]uint64{{0, 3}, {1, 6}, {4, 2}} {
		if _, err := l.Segment(bad[0], bad[1]); err == nil {
			t.Errorf("segment [%d,%d] accepted", bad[0], bad[1])
		}
	}
	if _, err := l.Entry(0); err == nil {
		t.Error("entry 0 accepted")
	}
	if _, err := l.Entry(6); err == nil {
		t.Error("entry 6 accepted")
	}
}

func TestEmptyLog(t *testing.T) {
	l := New(testSigner(t, "a"))
	if _, err := l.LastAuthenticator(); err == nil {
		t.Fatal("authenticator on empty log accepted")
	}
	if l.LastHash() != (Hash{}) {
		t.Fatal("empty log hash not zero")
	}
	if err := VerifySegment(Hash{}, nil, nil, testKeys()); err == nil {
		t.Fatal("empty segment verified")
	}
}

func TestWireSizeMatchesMarshal(t *testing.T) {
	l := buildLog(testSigner(t, "a"), 8)
	total := 0
	for _, e := range l.All() {
		e := e
		total += e.WireSize()
		if got := len(e.Marshal(nil)); got != e.WireSize() {
			t.Fatalf("WireSize %d != marshaled %d", e.WireSize(), got)
		}
	}
	if total != l.WireBytes() {
		t.Fatalf("WireBytes %d != sum %d", l.WireBytes(), total)
	}
}

func TestEntryTypeStrings(t *testing.T) {
	for typ, want := range map[EntryType]string{
		TypeSend: "SEND", TypeRecv: "RECV", TypeAck: "ACK",
		TypeNondet: "NONDET", TypeIRQ: "IRQ", TypeSnapshot: "SNAPSHOT",
		TypeAnnotation: "ANNOTATION",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
}

func TestCommitmentIsTheAuthenticatorLessItsSignature(t *testing.T) {
	signer := sig.SizedSigner{Node: "n", Size: 96}
	l := New(signer)
	l.Append(TypeSend, []byte("one"))
	l.Append(TypeRecv, []byte("two"))
	c, body, err := l.Commitment(2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sig != nil {
		t.Fatal("a commitment arrived signed")
	}
	a, err := l.Authenticator(2)
	if err != nil {
		t.Fatal(err)
	}
	c.Sig = signer.Sign(body)
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("signing the commitment's body gives %+v, Authenticator gives %+v", c, a)
	}
	if _, _, err := l.Commitment(3); err == nil {
		t.Fatal("commitment to an entry that does not exist")
	}
}
