package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/wal"
	"repro/internal/wire"
)

// This file is the coordinator's write-ahead epoch journal: the crash
// durability behind `avm-audit -coordinate -journal <dir>`. The journal
// records three events — a run entering the queue, an epoch verdict
// reaching the router, a run settling cleanly — each as a wire.JournalRecord
// in one wal.Log (epochs.wal). Framing, fsync batching, torn-tail recovery,
// compaction at open and what a failed write means are internal/wal's; this
// file owns what the records mean. Recovery never trusts the journal for
// audit *inputs* — a restarted coordinator reconstructs its runs from the
// same recording (snapshots + log) it always reads, the router cuts the
// same epochs, and so the run has the same key; the journal only tells it
// which of those epochs already have durable verdicts, which are re-emitted
// as stored instead of re-dispatched. Stored verdicts still flow through
// the router's spot recheck, so a journal tampered with between runs is
// caught the same way a lying worker is.

// journalFileName is the single append-only log inside a journal directory.
const journalFileName = "epochs.wal"

// journalRun is the replayed/live state of one run key.
type journalRun struct {
	node      string
	epochs    int
	verdicts  map[int][]byte // epoch index → AuditVerdict encoding
	completed bool
}

// journalRuns is the journal's state: every run key it has seen enqueued.
type journalRuns map[[32]byte]*journalRun

// Journal is an append-only, fsync-batched write-ahead journal of epoch
// verdicts, keyed by deterministic run keys. Open with OpenJournal, hand
// it to a Coordinator via CoordinatorConfig.Journal, Close after the
// coordinator. All methods are safe for concurrent use.
type Journal struct {
	mu  sync.Mutex
	log *wal.Log // nil once closed
	// failed is set by the log's first write or fsync error, which is
	// sticky there: journaling has stopped, audits continue un-journaled.
	failed bool
	syncs  int64 // log.Syncs() as last published
	runs   journalRuns
	reg    *metrics.Registry // set by the adopting coordinator; may be nil
}

// OpenJournal opens (creating if needed) the journal in dir, replays the
// existing log up to its valid prefix, and compacts completed runs away.
// The returned journal holds every pending run's durable verdicts, ready
// for the coordinator's resume path.
func OpenJournal(dir string) (*Journal, error) { return openJournal(wal.OS, dir) }

func openJournal(fsys wal.FS, dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("audit: journal dir: %w", err)
	}
	j := &Journal{runs: journalRuns{}}
	// The compact image holds only the pending runs' records, so the file
	// stays bounded by pending work.
	log, err := wal.Open(fsys, filepath.Join(dir, journalFileName), wire.MaxDistFrame, j.runs.apply,
		func() []byte { return marshalJournalRuns(j.runs.pending()) })
	if err != nil {
		return nil, fmt.Errorf("audit: journal: %w", err)
	}
	j.log = log
	return j, nil
}

// apply folds one journal record into the state; false ends the valid
// prefix. A frame that checksums clean but does not decode, or decodes to
// something no writer could have meant — a verdict for a run that was never
// enqueued or for an epoch the run does not have, an epoch count no log
// reaches (2^31 and up, which would not survive the trip through int) —
// ends it rather than being skipped: records after it have no trustworthy
// interpretation.
func (runs journalRuns) apply(body []byte) bool {
	rec, err := wire.ParseJournalRecord(body)
	if err != nil {
		return false
	}
	run := runs[rec.RunKey]
	switch rec.Kind {
	case wire.JournalRunEnqueued:
		if rec.Epochs > math.MaxInt32 {
			return false
		}
		// A re-enqueue of a completed key starts the run over.
		runs[rec.RunKey] = &journalRun{
			node: rec.Node, epochs: int(rec.Epochs),
			verdicts: make(map[int][]byte),
		}
	case wire.JournalVerdictEmitted:
		if run == nil || rec.Index >= uint64(run.epochs) {
			return false
		}
		if !run.completed {
			run.verdicts[int(rec.Index)] = rec.Verdict
		}
	case wire.JournalRunCompleted:
		if run != nil {
			run.completed = true
		}
	}
	return true
}

// pending drops completed runs — tombstones — so resume never sees them
// and compaction writes only pending work.
func (runs journalRuns) pending() journalRuns {
	for key, run := range runs {
		if run.completed {
			delete(runs, key)
		}
	}
	return runs
}

// marshalJournalRuns renders the live runs as a fresh journal image, in a
// deterministic order (keyed bytes) so compaction is reproducible.
func marshalJournalRuns(runs journalRuns) []byte {
	keys := make([][32]byte, 0, len(runs))
	for key := range runs {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool { return bytes.Compare(keys[a][:], keys[b][:]) < 0 })
	var out []byte
	for _, key := range keys {
		run := runs[key]
		out = wal.AppendFrame(out, (&wire.JournalRecord{
			Kind: wire.JournalRunEnqueued, RunKey: key,
			Node: run.node, Epochs: uint64(run.epochs),
		}).Marshal())
		idxs := make([]int, 0, len(run.verdicts))
		for idx := range run.verdicts {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			out = wal.AppendFrame(out, (&wire.JournalRecord{
				Kind: wire.JournalVerdictEmitted, RunKey: key,
				Index: uint64(idx), Verdict: run.verdicts[idx],
			}).Marshal())
		}
	}
	return out
}

// attach points the journal's counters at the adopting coordinator's
// registry and publishes the replayed state.
func (j *Journal) attach(reg *metrics.Registry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.reg = reg
	reg.Gauge("journal_bytes").Set(j.log.Size())
	var durable int64
	for _, run := range j.runs {
		durable += int64(len(run.verdicts))
	}
	reg.Gauge("journal_pending_runs").Set(int64(len(j.runs)))
	reg.Gauge("journal_durable_verdicts").Set(durable)
}

// append writes one record; force adds an fsync pass to the log's own
// group commit. The journal is a durability aid: the log's first failure
// (sticky there — see internal/wal) is counted once and degrades the
// coordinator to un-journaled operation, it does not fail audits that are
// otherwise succeeding, and the file still reopens to exactly the records
// acknowledged before the failure.
func (j *Journal) append(rec *wire.JournalRecord, force bool) {
	body := rec.Marshal()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil || j.failed {
		return
	}
	err := j.log.Append(body)
	if err == nil && force {
		err = j.log.Sync()
	}
	if j.reg != nil {
		j.reg.Gauge("journal_bytes").Set(j.log.Size())
		j.reg.Counter("journal_fsyncs").Add(j.log.Syncs() - j.syncs)
		j.syncs = j.log.Syncs()
	}
	if err != nil {
		j.failed = true
		if j.reg != nil {
			j.reg.Counter("journal_write_errors").Inc()
		}
	}
}

// runEnqueued journals a run entering the queue.
func (j *Journal) runEnqueued(key [32]byte, node string, epochs int) {
	j.mu.Lock()
	j.runs[key] = &journalRun{node: node, epochs: epochs, verdicts: make(map[int][]byte)}
	j.mu.Unlock()
	j.append(&wire.JournalRecord{
		Kind: wire.JournalRunEnqueued, RunKey: key, Node: node, Epochs: uint64(epochs),
	}, false)
}

// verdictEmitted journals one epoch verdict. Called before the verdict is
// handed to the router, so "durable" is never behind "emitted" by more
// than the unflushed batch.
func (j *Journal) verdictEmitted(key [32]byte, index int, verdict []byte) {
	j.mu.Lock()
	if run := j.runs[key]; run != nil {
		run.verdicts[index] = verdict
	}
	j.mu.Unlock()
	j.append(&wire.JournalRecord{
		Kind: wire.JournalVerdictEmitted, RunKey: key, Index: uint64(index), Verdict: verdict,
	}, false)
}

// runCompleted journals (and fsyncs) a run settling cleanly, tombstoning
// its verdicts.
func (j *Journal) runCompleted(key [32]byte) {
	j.mu.Lock()
	delete(j.runs, key)
	j.mu.Unlock()
	j.append(&wire.JournalRecord{Kind: wire.JournalRunCompleted, RunKey: key}, true)
}

// resume returns the durable verdicts of a pending run with this key, or
// nil when the key is unknown, completed, or recorded with a different
// epoch count (a recording that changed under the journal — nothing it
// stored can be trusted for the new cut).
func (j *Journal) resume(key [32]byte, epochs int) map[int][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	run := j.runs[key]
	if run == nil || run.epochs != epochs {
		return nil
	}
	out := make(map[int][]byte, len(run.verdicts))
	for idx, v := range run.verdicts {
		out[idx] = v
	}
	return out
}

// Close flushes and closes the journal file. It returns the error that
// stopped journaling, if one did.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return nil
	}
	err := j.log.Close()
	j.log = nil
	return err
}

// InspectJournal reads a journal directory without opening it for writing
// (no truncation, no compaction): the harness-side peek used by smoke
// tests to decide when enough verdicts are durable to kill the
// coordinator. It returns the pending run and durable verdict counts of
// the valid prefix.
func InspectJournal(dir string) (runs, verdicts int, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if err != nil && !os.IsNotExist(err) {
		return 0, 0, err
	}
	state := journalRuns{}
	wal.Replay(raw, wire.MaxDistFrame, state.apply)
	for _, run := range state.pending() {
		verdicts += len(run.verdicts)
	}
	return len(state), verdicts, nil
}

// runKeyFor derives the stable identity of an audit run: a digest over the
// audited node, the session parameters that shape replay, and the router's
// cut (index, start identity, entry count and cost per job). A restarted
// coordinator re-deriving jobs from the same recording computes the same
// key; any change to the recording or the cut changes it, which is
// what keeps stale journal state from leaking into a different audit.
func runKeyFor(sess Session, jobs []*EpochJob) [32]byte {
	h := sha256.New()
	var buf [8 * 6]byte
	io.WriteString(h, string(sess.Node))
	binary.BigEndian.PutUint64(buf[:8], sess.RNGSeed)
	binary.BigEndian.PutUint64(buf[8:16], uint64(len(jobs)))
	h.Write(buf[:16])
	for _, job := range jobs {
		binary.BigEndian.PutUint64(buf[:8], uint64(job.Index))
		binary.BigEndian.PutUint64(buf[8:16], boolWord(job.Boot))
		binary.BigEndian.PutUint64(buf[16:24], uint64(job.StartSnap))
		binary.BigEndian.PutUint64(buf[24:32], job.StartSeq)
		binary.BigEndian.PutUint64(buf[32:40], uint64(len(job.Entries)))
		binary.BigEndian.PutUint64(buf[40:48], job.Cost)
		h.Write(buf[:48])
		h.Write(job.StartRoot[:])
	}
	var key [32]byte
	h.Sum(key[:0])
	return key
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
