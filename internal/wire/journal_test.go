package wire

import (
	"reflect"
	"testing"
)

func testJournalRecords() []*JournalRecord {
	var key [32]byte
	for i := range key {
		key[i] = byte(i)
	}
	return []*JournalRecord{
		{Kind: JournalRunEnqueued, RunKey: key, Node: "player1", Epochs: 3},
		{Kind: JournalVerdictEmitted, RunKey: key, Index: 2, Verdict: []byte("verdict-bytes")},
		{Kind: JournalRunCompleted, RunKey: key},
	}
}

func TestJournalRecordRoundTrip(t *testing.T) {
	for _, rec := range testJournalRecords() {
		got, err := ParseJournalRecord(rec.Marshal())
		if err != nil {
			t.Fatalf("kind %d: %v", rec.Kind, err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("journal record round trip (kind %d):\n got %+v\nwant %+v", rec.Kind, got, rec)
		}
	}
}

func TestJournalRecordUnknownKind(t *testing.T) {
	rec := testJournalRecords()[2]
	buf := rec.Marshal()
	buf[0] = 0x7F // unknown kind
	if _, err := ParseJournalRecord(buf); err == nil {
		t.Fatal("unknown journal record kind accepted")
	}
	if _, err := ParseJournalRecord([]byte{0}); err == nil {
		t.Fatal("kind 0 accepted")
	}
}

func TestJournalRecordTruncation(t *testing.T) {
	for _, rec := range testJournalRecords() {
		buf := rec.Marshal()
		for cut := 0; cut < len(buf); cut++ {
			if _, err := ParseJournalRecord(buf[:cut]); err == nil {
				t.Errorf("kind %d: truncation at %d/%d accepted", rec.Kind, cut, len(buf))
			}
		}
		if _, err := ParseJournalRecord(append(append([]byte(nil), buf...), 0)); err == nil {
			t.Errorf("kind %d: trailing byte accepted", rec.Kind)
		}
	}
}

func FuzzParseJournalRecord(f *testing.F) {
	for _, rec := range testJournalRecords() {
		f.Add(rec.Marshal())
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		// The journal must mean the same record after a rewrite cycle
		// (compaction).
		fuzzRoundTrip(t, b, ParseJournalRecord, (*JournalRecord).Marshal)
	})
}
