package wire

import (
	"bytes"
	"reflect"
	"testing"
)

func testHello() *RegistrationHello {
	return &RegistrationHello{Version: RegistrationVersion, Addr: "10.1.2.3:9100", Capabilities: CapDeltaJobs}
}

func testWelcome() *RegistrationWelcome {
	return &RegistrationWelcome{Version: RegistrationVersion, Accepted: false, Reason: "version 9 not supported"}
}

func TestRegistrationHelloRoundTrip(t *testing.T) {
	h := testHello()
	got, err := ParseRegistrationHello(h.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, got) {
		t.Fatalf("hello round trip:\n got %+v\nwant %+v", got, h)
	}
	// An empty announced address is legal on the wire (the coordinator
	// resolves it); the codec must not conflate it with absence.
	h2 := &RegistrationHello{Version: 1, Addr: "", Capabilities: 0}
	got2, err := ParseRegistrationHello(h2.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h2, got2) {
		t.Fatalf("empty-addr hello round trip:\n got %+v\nwant %+v", got2, h2)
	}
}

func TestRegistrationWelcomeRoundTrip(t *testing.T) {
	for _, m := range []*RegistrationWelcome{
		testWelcome(),
		{Version: RegistrationVersion, Accepted: true, Reason: ""},
	} {
		got, err := ParseRegistrationWelcome(m.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("welcome round trip:\n got %+v\nwant %+v", got, m)
		}
	}
}

func TestRegistrationTruncation(t *testing.T) {
	hello := testHello().Marshal()
	for cut := 0; cut < len(hello); cut++ {
		if _, err := ParseRegistrationHello(hello[:cut]); err == nil {
			t.Errorf("hello truncation at %d/%d accepted", cut, len(hello))
		}
	}
	if _, err := ParseRegistrationHello(append(append([]byte(nil), hello...), 0)); err == nil {
		t.Error("hello trailing byte accepted")
	}
	welcome := testWelcome().Marshal()
	for cut := 0; cut < len(welcome); cut++ {
		if _, err := ParseRegistrationWelcome(welcome[:cut]); err == nil {
			t.Errorf("welcome truncation at %d/%d accepted", cut, len(welcome))
		}
	}
	if _, err := ParseRegistrationWelcome(append(append([]byte(nil), welcome...), 0)); err == nil {
		t.Error("welcome trailing byte accepted")
	}
}

// TestRegistrationFrameKindsPinned pins the frame numbering: these values
// are the cross-version wire contract a mixed fleet depends on, so a
// reordering of the DistFrame* chain must fail loudly here.
func TestRegistrationFrameKindsPinned(t *testing.T) {
	if DistFrameHello != 17 || DistFrameWelcome != 18 {
		t.Fatalf("registration frame kinds moved: Hello=%d Welcome=%d, want 17 and 18", DistFrameHello, DistFrameWelcome)
	}
}

// TestRegistrationHelloEncodingPinned pins the byte-level encoding of a
// known hello so a codec change that silently alters the wire format (and
// would strand old workers mid-upgrade) is caught.
func TestRegistrationHelloEncodingPinned(t *testing.T) {
	h := &RegistrationHello{Version: 1, Addr: "a:1", Capabilities: 1}
	want := []byte{0x01, 0x03, 'a', ':', '1', 0x01}
	if got := h.Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("hello encoding changed:\n got %x\nwant %x", got, want)
	}
}

func FuzzParseRegistrationHello(f *testing.F) {
	f.Add(testHello().Marshal())
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, b, ParseRegistrationHello, (*RegistrationHello).Marshal)
	})
}

func FuzzParseRegistrationWelcome(f *testing.F) {
	f.Add(testWelcome().Marshal())
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzRoundTrip(t, b, ParseRegistrationWelcome, (*RegistrationWelcome).Marshal)
	})
}
