package wire

// Journal records for the coordinator's write-ahead epoch journal
// (internal/audit journal.go). The journal is a sequence of these records,
// each framed on disk by the journal itself (length + checksum); this file
// defines only the record bodies, in the package's usual codec so the
// format is pinned by the same round-trip/truncation/fuzz discipline as
// the network frames.
//
// A run is identified by RunKey — a digest the coordinator derives
// deterministically from the audited node and the epochs the audit's
// router cut — so a restarted process that re-derives the same jobs from
// the same recording computes the same key and can match durable verdicts
// to re-enqueued epochs.

import "fmt"

// JournalRecordKind tags journal records.
type JournalRecordKind uint8

// Journal record kinds.
const (
	// JournalRunEnqueued: an audit run entered the queue. Carries the
	// audited node and the run's epoch count, which resume validates
	// before trusting any stored verdict.
	JournalRunEnqueued JournalRecordKind = 1 + iota
	// JournalVerdictEmitted: one epoch's verdict reached the router.
	// Carries the epoch index and the AuditVerdict encoding — everything
	// the deterministic merge reads, so a replayed verdict reproduces the
	// uninterrupted run's Result byte for byte.
	JournalVerdictEmitted
	// JournalRunCompleted: the run settled cleanly. A completed run is a
	// tombstone: its verdicts are never resumed, and compaction drops its
	// records.
	JournalRunCompleted
)

// JournalRecord is one journal record body.
type JournalRecord struct {
	Kind   JournalRecordKind
	RunKey [32]byte
	// Node is the audited node (JournalRunEnqueued; diagnostics).
	Node string
	// Epochs is the run's total epoch count (JournalRunEnqueued).
	Epochs uint64
	// Index is the epoch index (JournalVerdictEmitted).
	Index uint64
	// Verdict is the epoch's AuditVerdict encoding (JournalVerdictEmitted).
	Verdict []byte
}

// Marshal serializes the record.
func (rec *JournalRecord) Marshal() []byte {
	w := &writer{}
	w.uvarint(uint64(rec.Kind))
	w.hash(rec.RunKey)
	switch rec.Kind {
	case JournalRunEnqueued:
		w.str(rec.Node)
		w.uvarint(rec.Epochs)
	case JournalVerdictEmitted:
		w.uvarint(rec.Index)
		w.bytes(rec.Verdict)
	case JournalRunCompleted:
	}
	return w.b
}

// ParseJournalRecord decodes a journal record body.
func ParseJournalRecord(b []byte) (*JournalRecord, error) {
	r := &reader{b: b}
	rec := &JournalRecord{Kind: JournalRecordKind(r.uvarint())}
	rec.RunKey = r.hash()
	switch rec.Kind {
	case JournalRunEnqueued:
		rec.Node = r.str()
		rec.Epochs = r.uvarint()
	case JournalVerdictEmitted:
		rec.Index = r.uvarint()
		rec.Verdict = r.bytes()
	case JournalRunCompleted:
	default:
		if r.err == nil {
			return nil, fmt.Errorf("wire: unknown journal record kind %d", rec.Kind)
		}
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("parsing journal record: %w", err)
	}
	return rec, nil
}
