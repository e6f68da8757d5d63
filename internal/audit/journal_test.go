package audit

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
)

func journalKey(b byte) [32]byte {
	var key [32]byte
	for i := range key {
		key[i] = b
	}
	return key
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := journalKey(1)
	j.runEnqueued(key, "player1", 3)
	j.verdictEmitted(key, 1, []byte("verdict-one"))
	j.verdictEmitted(key, 2, []byte("verdict-two"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.resume(key, 3)
	if len(got) != 2 || !bytes.Equal(got[1], []byte("verdict-one")) || !bytes.Equal(got[2], []byte("verdict-two")) {
		t.Fatalf("resume = %v, want verdicts at 1 and 2", got)
	}
	if j2.resume(key, 4) != nil {
		t.Fatal("resume with a different epoch count must refuse the stored verdicts")
	}
	if j2.resume(journalKey(9), 3) != nil {
		t.Fatal("resume of an unknown key must return nil")
	}
}

func TestJournalCompletedRunIsTombstone(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := journalKey(2)
	j.runEnqueued(key, "player1", 2)
	j.verdictEmitted(key, 0, []byte("v0"))
	j.runCompleted(key)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	runs, verdicts, err := InspectJournal(dir)
	if err != nil || runs != 0 || verdicts != 0 {
		t.Fatalf("InspectJournal after completion = (%d, %d, %v), want (0, 0, nil)", runs, verdicts, err)
	}
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.resume(key, 2) != nil {
		t.Fatal("a completed run must not resume")
	}
	// Compaction dropped the tombstoned records entirely.
	info, err := os.Stat(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Fatalf("compacted journal holds %d bytes, want 0 (only tombstoned state existed)", info.Size())
	}
}

func TestJournalReEnqueueRestartsRun(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := journalKey(3)
	j.runEnqueued(key, "player1", 2)
	j.verdictEmitted(key, 0, []byte("stale"))
	j.runEnqueued(key, "player1", 2) // the run starts over
	j.verdictEmitted(key, 1, []byte("fresh"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.resume(key, 2)
	if len(got) != 1 || !bytes.Equal(got[1], []byte("fresh")) {
		t.Fatalf("resume after re-enqueue = %v, want only the fresh verdict", got)
	}
}

// TestJournalTruncationTolerance pins the crash contract: a torn tail (the
// write the process died inside) ends the valid prefix, everything before
// it survives, and the reopened journal appends cleanly after compaction.
func TestJournalTruncationTolerance(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := journalKey(4)
	j.runEnqueued(key, "player1", 3)
	j.verdictEmitted(key, 0, []byte("durable"))
	sizeBefore := j.bytes
	j.verdictEmitted(key, 1, []byte("torn"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop bytes off the tail, landing mid-frame.
	path := filepath.Join(dir, journalFileName)
	if err := os.Truncate(path, sizeBefore+5); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := j2.resume(key, 3)
	if len(got) != 1 || !bytes.Equal(got[0], []byte("durable")) {
		t.Fatalf("resume after torn tail = %v, want only the durable verdict", got)
	}
	// The journal still accepts appends after recovery.
	j2.verdictEmitted(key, 2, []byte("after-recovery"))
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	got = j3.resume(key, 3)
	if len(got) != 2 || !bytes.Equal(got[2], []byte("after-recovery")) {
		t.Fatalf("resume after recovered append = %v, want verdicts at 0 and 2", got)
	}
}

// TestJournalCorruptionEndsPrefix flips a byte inside an early record's
// body: the checksum catches it and everything from that record on is
// discarded, even if later frames are intact.
func TestJournalCorruptionEndsPrefix(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := journalKey(5)
	j.runEnqueued(key, "player1", 2)
	firstEnd := j.bytes
	j.verdictEmitted(key, 0, []byte("will-be-corrupted"))
	j.verdictEmitted(key, 1, []byte("intact-but-after"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, journalFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[firstEnd+8+4] ^= 0xFF // inside the second record's body
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.resume(key, 2); len(got) != 0 {
		t.Fatalf("resume past corruption = %v, want no verdicts (prefix ends at the bad record)", got)
	}
}

func TestJournalCompactionBoundsFile(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	live, dead := journalKey(6), journalKey(7)
	j.runEnqueued(dead, "player1", 1)
	j.verdictEmitted(dead, 0, bytes.Repeat([]byte("x"), 4096))
	j.runCompleted(dead)
	j.runEnqueued(live, "player2", 2)
	j.verdictEmitted(live, 0, []byte("keep"))
	full := j.bytes
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.bytes >= full {
		t.Fatalf("compaction left %d bytes, want fewer than the %d written", j2.bytes, full)
	}
	if got := j2.resume(live, 2); len(got) != 1 || !bytes.Equal(got[0], []byte("keep")) {
		t.Fatalf("live run lost in compaction: resume = %v", got)
	}
	runs, verdicts, err := InspectJournal(dir)
	if err != nil || runs != 1 || verdicts != 1 {
		t.Fatalf("InspectJournal after compaction = (%d, %d, %v), want (1, 1, nil)", runs, verdicts, err)
	}
}

// TestJournalWriteFailureIsSticky pins the failure policy: the first failed
// write stops journaling for good. A failed or short write can leave a torn
// frame behind; a later append, even a successful one, would land after it
// and be invisible to replay while the coordinator believes it durable. The
// file must reopen to exactly the records acknowledged before the failure.
func TestJournalWriteFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := &metrics.Registry{}
	j.attach(reg)
	key := journalKey(8)
	j.runEnqueued(key, "player1", 3)
	j.verdictEmitted(key, 0, []byte("acknowledged"))

	restore, err := j.SabotageWrites()
	if err != nil {
		t.Fatal(err)
	}
	j.verdictEmitted(key, 1, []byte("lost"))
	if got := reg.Value("journal_write_errors"); got != 1 {
		t.Fatalf("journal_write_errors = %d after a failed write, want 1", got)
	}
	// What a short write leaves behind: the head of a frame, no body.
	path := filepath.Join(dir, journalFileName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 40, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	restore()
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// The disk works again; the journal must not: nothing may be appended
	// behind the torn frame.
	j.verdictEmitted(key, 2, []byte("buried"))
	j.runCompleted(key)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("journal grew from %d to %d bytes after its write failure", before.Size(), after.Size())
	}
	if got := reg.Value("journal_write_errors"); got != 1 {
		t.Fatalf("journal_write_errors = %d, want 1: only the first failure counts, later records are not attempted", got)
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.resume(key, 3)
	if len(got) != 1 || !bytes.Equal(got[0], []byte("acknowledged")) {
		t.Fatalf("reopened journal resumes %v, want exactly the verdict acknowledged before the failure", got)
	}
}

// TestJournalCompactionIsAtomic: compaction replaces the journal through a
// synced temp file and a rename, so it neither reads nor leaves a temp file
// — not even a stale one from a crash between the two — and the journal
// file holds exactly the pending runs' records.
func TestJournalCompactionIsAtomic(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	live, dead := journalKey(9), journalKey(10)
	j.runEnqueued(dead, "player1", 1)
	j.runCompleted(dead)
	j.runEnqueued(live, "player2", 2)
	j.verdictEmitted(live, 1, []byte("keep"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalFileName)
	if err := os.WriteFile(path+".tmp", []byte("stale temp file from a crashed compaction"), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("compaction left its temp file behind (stat err = %v)", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := marshalJournalRuns(j2.runs); !bytes.Equal(raw, want) {
		t.Fatalf("compacted journal holds %d bytes, want the %d bytes of the pending run's records", len(raw), len(want))
	}
	if got := j2.resume(live, 2); len(got) != 1 || !bytes.Equal(got[1], []byte("keep")) {
		t.Fatalf("pending run lost in compaction: resume = %v", got)
	}
}

func TestInspectJournalMissingDir(t *testing.T) {
	runs, verdicts, err := InspectJournal(filepath.Join(t.TempDir(), "nope"))
	if err != nil || runs != 0 || verdicts != 0 {
		t.Fatalf("InspectJournal on a missing journal = (%d, %d, %v), want (0, 0, nil)", runs, verdicts, err)
	}
}
