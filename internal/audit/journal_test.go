package audit

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/metrics"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/internal/wire"
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
	sizeBefore := j.log.Size()
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
	firstEnd := j.log.Size()
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
	full := j.log.Size()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.log.Size() >= full {
		t.Fatalf("compaction left %d bytes, want fewer than the %d written", j2.log.Size(), full)
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
// write stops journaling for good. A failed write is a short write — it
// leaves a torn frame behind — and a later append, even a successful one,
// would land after it and be invisible to replay while the coordinator
// believes it durable. The file must reopen to exactly the records
// acknowledged before the failure.
func TestJournalWriteFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	fsys, err := waltest.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := openJournal(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := &metrics.Registry{}
	j.attach(reg)
	key := journalKey(8)
	j.runEnqueued(key, "player1", 3)
	j.verdictEmitted(key, 0, []byte("acknowledged"))

	fsys.FailAt(fsys.Ops()+1, syscall.EIO)
	j.verdictEmitted(key, 1, []byte("lost"))
	if !fsys.Failed() {
		t.Fatal("the append did not reach the filesystem")
	}
	if got := reg.Value("journal_write_errors"); got != 1 {
		t.Fatalf("journal_write_errors = %d after a failed write, want 1", got)
	}
	path := filepath.Join(dir, journalFileName)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() <= j.log.Size() {
		t.Fatalf("file is %d bytes, journal counts %d: the short write left no torn frame", before.Size(), j.log.Size())
	}

	// The disk works again; the journal must not: nothing may be appended
	// behind the torn frame.
	ops := fsys.Ops()
	j.verdictEmitted(key, 2, []byte("buried"))
	j.runCompleted(key)
	if err := j.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close = %v, want the error that stopped journaling", err)
	}
	if fsys.Ops() != ops {
		t.Fatalf("%d filesystem operations after the failure, want none", fsys.Ops()-ops)
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

// TestJournalReplayEndsAtUnmeanableRecord: a record that checksums and
// decodes but that no writer could have meant ends the valid prefix, like
// one that does not decode: it is not stored, not counted, not rewritten by
// compaction, and nothing after it is applied.
func TestJournalReplayEndsAtUnmeanableRecord(t *testing.T) {
	key, other := journalKey(11), journalKey(12)
	cases := []struct {
		name string
		bad  wire.JournalRecord
	}{
		{"index == epochs", wire.JournalRecord{Kind: wire.JournalVerdictEmitted, RunKey: key, Index: 3, Verdict: []byte("past-the-end")}},
		{"index >= 2^63", wire.JournalRecord{Kind: wire.JournalVerdictEmitted, RunKey: key, Index: 1 << 63, Verdict: []byte("negative-as-int")}},
		{"verdict for an unknown key", wire.JournalRecord{Kind: wire.JournalVerdictEmitted, RunKey: other, Index: 0, Verdict: []byte("whose?")}},
		{"epoch count >= 2^63", wire.JournalRecord{Kind: wire.JournalRunEnqueued, RunKey: other, Node: "player2", Epochs: 1 << 63}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var prefix []byte
			for _, rec := range []wire.JournalRecord{
				{Kind: wire.JournalRunEnqueued, RunKey: key, Node: "player1", Epochs: 3},
				{Kind: wire.JournalVerdictEmitted, RunKey: key, Index: 0, Verdict: []byte("good")},
			} {
				prefix = wal.AppendFrame(prefix, rec.Marshal())
			}
			raw := wal.AppendFrame(append([]byte(nil), prefix...), tc.bad.Marshal())
			after := wire.JournalRecord{Kind: wire.JournalVerdictEmitted, RunKey: key, Index: 1, Verdict: []byte("after-the-bad-record")}
			raw = wal.AppendFrame(raw, after.Marshal())
			dir := t.TempDir()
			path := filepath.Join(dir, journalFileName)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			if runs, verdicts, err := InspectJournal(dir); err != nil || runs != 1 || verdicts != 1 {
				t.Fatalf("InspectJournal = (%d runs, %d verdicts, %v), want (1, 1, nil)", runs, verdicts, err)
			}
			j, err := OpenJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			reg := &metrics.Registry{}
			j.attach(reg)
			if got := reg.Value("journal_durable_verdicts"); got != 1 {
				t.Fatalf("journal_durable_verdicts = %d, want 1", got)
			}
			if got := j.resume(key, 3); len(got) != 1 || !bytes.Equal(got[0], []byte("good")) {
				t.Fatalf("resume = %v, want only the verdict before the bad record", got)
			}
			if j.resume(other, 1<<62) != nil {
				t.Fatal("the bad record created a run")
			}
			if onDisk, _ := os.ReadFile(path); !bytes.Equal(onDisk, prefix) {
				t.Fatalf("compaction left %d bytes, want the %d-byte prefix before the bad record", len(onDisk), len(prefix))
			}
		})
	}
}

// TestJournalCompactionComparesBytes: a journal whose valid prefix has the
// compact image's length but not its content (two pending runs, stored in
// the other order) is still rewritten — the rule is bytes, in internal/wal.
func TestJournalCompactionComparesBytes(t *testing.T) {
	lo, hi := journalKey(1), journalKey(2)
	var raw []byte
	for _, key := range [][32]byte{hi, lo} {
		raw = wal.AppendFrame(raw, (&wire.JournalRecord{Kind: wire.JournalRunEnqueued, RunKey: key, Node: "n", Epochs: 1}).Marshal())
	}
	dir := t.TempDir()
	path := filepath.Join(dir, journalFileName)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	onDisk, _ := os.ReadFile(path)
	if want := marshalJournalRuns(j.runs); !bytes.Equal(onDisk, want) || bytes.Equal(onDisk, raw) {
		t.Fatal("a same-length, different-content journal was not rewritten as its compact image")
	}
}

// goldenJournalAppends is the append sequence that wrote
// testdata/golden_journal/epochs.wal at the commit before internal/wal
// existed (cbc8a72): two interleaved runs, one completed, one pending with
// verdicts 0–2 of 4.
func goldenJournalAppends(j *Journal) (pending [32]byte) {
	pending, done := journalKey(0xA1), journalKey(0xB2)
	j.runEnqueued(done, "server", 2)
	j.verdictEmitted(done, 0, []byte("server epoch 0"))
	j.runEnqueued(pending, "player1", 4)
	j.verdictEmitted(pending, 2, []byte("player1 epoch 2"))
	j.verdictEmitted(done, 1, []byte("server epoch 1"))
	j.verdictEmitted(pending, 0, []byte("player1 epoch 0"))
	j.runCompleted(done)
	j.verdictEmitted(pending, 1, []byte("player1 epoch 1"))
	return pending
}

// TestJournalGoldenFormat pins the on-disk format across the move to
// internal/wal: the same appends produce the golden file byte for byte,
// and the golden file opens to the pending run it holds.
func TestJournalGoldenFormat(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_journal", journalFileName))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	pending := goldenJournalAppends(j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalFileName)
	if written, _ := os.ReadFile(path); !bytes.Equal(written, golden) {
		t.Fatalf("the golden appends wrote %d bytes that differ from the %d-byte golden journal", len(written), len(golden))
	}

	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	if runs, verdicts, err := InspectJournal(dir); err != nil || runs != 1 || verdicts != 3 {
		t.Fatalf("InspectJournal(golden) = (%d, %d, %v), want (1, 3, nil)", runs, verdicts, err)
	}
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.resume(pending, 4)
	if len(j2.runs) != 1 || len(got) != 3 {
		t.Fatalf("golden journal opens to %d runs, %d verdicts for the pending one; want 1 and 3", len(j2.runs), len(got))
	}
	for idx := 0; idx < 3; idx++ {
		if want := fmt.Sprintf("player1 epoch %d", idx); string(got[idx]) != want {
			t.Fatalf("verdict %d = %q, want %q", idx, got[idx], want)
		}
	}
}

// TestJournalInjectedErrorAtEveryOperation fails each filesystem operation
// of a scripted journal session in turn (two interleaved runs, one of which
// completes, with enough verdicts to fill a group commit). Whichever one
// fails: the journal counts one write error and stops touching the disk,
// and the directory reopens to the state after some prefix of the session's
// records that is at least the prefix the last successful fsync covered.
func TestJournalInjectedErrorAtEveryOperation(t *testing.T) {
	long, short := journalKey(0xC1), journalKey(0xC2)
	session := func(j *Journal) {
		j.runEnqueued(long, "player1", 20)
		for idx := 0; idx < 10; idx++ {
			j.verdictEmitted(long, idx, []byte{byte(idx)})
		}
		j.runEnqueued(short, "player2", 2)
		j.verdictEmitted(short, 0, []byte("s0"))
		j.verdictEmitted(short, 1, []byte("s1"))
		j.runCompleted(short)
		for idx := 10; idx < 18; idx++ {
			j.verdictEmitted(long, idx, []byte{byte(idx)})
		}
	}
	// The session's records, in order, from an undisturbed run.
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	session(j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatal(err)
	}
	var records [][]byte
	wal.Replay(raw, wire.MaxDistFrame, func(body []byte) bool {
		records = append(records, body)
		return true
	})
	// imageAfter is the journal a reopen leaves once the first m records
	// are what survived.
	imageAfter := func(m int) []byte {
		state := journalRuns{}
		for _, body := range records[:m] {
			state.apply(body)
		}
		return marshalJournalRuns(state.pending())
	}

	k := 1
	for ; ; k++ {
		dir := t.TempDir()
		fsys, err := waltest.New(dir)
		if err != nil {
			t.Fatal(err)
		}
		fsys.FailAt(k, syscall.ENOSPC)
		j, err := openJournal(fsys, dir)
		if err != nil {
			t.Fatal(err)
		}
		reg := &metrics.Registry{}
		j.attach(reg)
		session(j)
		closeErr := j.Close()
		if !fsys.Failed() {
			if closeErr != nil || reg.Value("journal_write_errors") != 0 {
				t.Fatalf("no operation failed, yet Close = %v with %d write errors", closeErr, reg.Value("journal_write_errors"))
			}
			break
		}
		ops := fsys.Log()
		what := fmt.Sprintf("op %d (%s %s) fails", k, ops[k-1].Kind, ops[k-1].Name)
		if len(ops) != k {
			t.Fatalf("%s: %d filesystem operations followed the failure", what, len(ops)-k)
		}
		if !errors.Is(closeErr, syscall.ENOSPC) {
			t.Fatalf("%s: Close = %v", what, closeErr)
		}
		written, acked := 0, 0
		for _, op := range ops[:k-1] {
			switch op.Kind {
			case waltest.OpWrite:
				written++
			case waltest.OpSync:
				acked = written
			}
		}
		// An append that fails is counted, once; only the fsync pass that
		// Close itself runs can fail uncounted (Close returned it, above).
		if got := reg.Value("journal_write_errors"); got > 1 || (got == 0 && written < len(records)) {
			t.Fatalf("%s: journal_write_errors = %d with %d of %d records written", what, got, written, len(records))
		}
		j2, err := OpenJournal(dir)
		if err != nil {
			t.Fatalf("%s: reopen: %v", what, err)
		}
		got := marshalJournalRuns(j2.runs)
		j2.Close()
		ok := false
		for m := acked; m <= written && !ok; m++ {
			ok = bytes.Equal(got, imageAfter(m))
		}
		if !ok {
			t.Fatalf("%s: the journal reopens to a state that is not the session's first m records for any %d <= m <= %d", what, acked, written)
		}
	}
	t.Logf("failed each of %d operations", k-1)
}
