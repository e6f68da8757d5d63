package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// This file is the coordinator's write-ahead epoch journal: the crash
// durability behind `avm-audit -coordinate -journal <dir>`. The journal
// records three events — a run entering the queue, an epoch verdict
// reaching the router, a run settling cleanly — each as a wire.JournalRecord
// framed on disk as
//
//	uint32 BE body length | uint32 BE CRC-32 (IEEE) of body | body
//
// appended to a single file (epochs.wal) and fsynced in batches. Replay is
// truncation-tolerant: a short header, short body or checksum mismatch ends
// the valid prefix (a torn tail from the crash being recovered from), and
// opening for writing truncates the file back to that prefix so new records
// never land after garbage. Recovery never trusts the journal for audit
// *inputs* — a restarted coordinator reconstructs its runs from the same
// recording (snapshots + log) it always reads, derives the same epoch
// partition, and therefore the same run key; the journal only tells it
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

// Journal is an append-only, fsync-batched write-ahead journal of epoch
// verdicts, keyed by deterministic run keys. Open with OpenJournal, hand
// it to a Coordinator via CoordinatorConfig.Journal, Close after the
// coordinator. All methods are safe for concurrent use.
type Journal struct {
	// SyncEvery fsyncs after this many appended records. <= 0 selects 16.
	SyncEvery int
	// SyncInterval fsyncs when this long has passed since the last fsync,
	// checked at each append. <= 0 selects 50ms.
	SyncInterval time.Duration

	mu   sync.Mutex
	path string
	f    *os.File
	// failed is set by the first write or fsync error and never cleared:
	// journaling stops, audits continue un-journaled.
	failed   bool
	bytes    int64
	unsynced int
	lastSync time.Time
	runs     map[[32]byte]*journalRun
	reg      *metrics.Registry // set by the adopting coordinator; may be nil
}

// OpenJournal opens (creating if needed) the journal in dir, replays the
// existing log up to its valid prefix, and compacts completed runs away.
// The returned journal holds every pending run's durable verdicts, ready
// for the coordinator's resume path.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("audit: journal dir: %w", err)
	}
	j := &Journal{path: filepath.Join(dir, journalFileName)}
	raw, err := os.ReadFile(j.path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("audit: reading journal: %w", err)
	}
	var prefix int64
	j.runs, prefix = replayJournal(raw)

	// Compact: rewrite only the live runs' records, atomically, so the file
	// stays bounded by pending work and a torn tail never precedes new
	// appends. Skipped when the valid prefix is already exactly the live
	// state (the common clean-start case).
	compacted := marshalJournalRuns(j.runs)
	if int64(len(compacted)) != prefix || prefix != int64(len(raw)) {
		if err := archive.WriteFileDurable(j.path, dir, compacted); err != nil {
			return nil, fmt.Errorf("audit: compacting journal: %w", err)
		}
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("audit: opening journal: %w", err)
	}
	j.f = f
	j.bytes = int64(len(compacted))
	j.lastSync = time.Now()
	return j, nil
}

// replayJournal decodes records from the front of raw, stopping at the
// first torn or corrupt record, and folds them into per-run state. It
// returns the state and the byte length of the valid prefix.
func replayJournal(raw []byte) (map[[32]byte]*journalRun, int64) {
	runs := make(map[[32]byte]*journalRun)
	var off int64
	b := raw
	for {
		body, rest, ok := nextJournalFrame(b)
		if !ok {
			break
		}
		rec, err := wire.ParseJournalRecord(body)
		if err != nil {
			// The frame checksummed clean but does not decode: treat it as
			// the end of the usable prefix rather than skipping — records
			// after a malformed one have no trustworthy interpretation.
			break
		}
		switch rec.Kind {
		case wire.JournalRunEnqueued:
			// A re-enqueue of a completed key starts the run over.
			runs[rec.RunKey] = &journalRun{
				node: rec.Node, epochs: int(rec.Epochs),
				verdicts: make(map[int][]byte),
			}
		case wire.JournalVerdictEmitted:
			if run := runs[rec.RunKey]; run != nil && !run.completed {
				run.verdicts[int(rec.Index)] = rec.Verdict
			}
		case wire.JournalRunCompleted:
			if run := runs[rec.RunKey]; run != nil {
				run.completed = true
			}
		}
		off += int64(len(b) - len(rest))
		b = rest
	}
	// Completed runs are tombstones; drop them so resume never sees them
	// and compaction writes only pending work.
	for key, run := range runs {
		if run.completed {
			delete(runs, key)
		}
	}
	return runs, off
}

// nextJournalFrame splits one length+checksum framed record off b.
func nextJournalFrame(b []byte) (body, rest []byte, ok bool) {
	if len(b) < 8 {
		return nil, nil, false
	}
	n := binary.BigEndian.Uint32(b)
	if n == 0 || n > wire.MaxDistFrame || uint64(len(b)-8) < uint64(n) {
		return nil, nil, false
	}
	sum := binary.BigEndian.Uint32(b[4:])
	body = b[8 : 8+n]
	if crc32.ChecksumIEEE(body) != sum {
		return nil, nil, false
	}
	return body, b[8+n:], true
}

// appendJournalFrame frames one record body for disk.
func appendJournalFrame(dst, body []byte) []byte {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	return append(append(dst, hdr[:]...), body...)
}

// marshalJournalRuns renders the live runs as a fresh journal image, in a
// deterministic order (keyed bytes) so compaction is reproducible.
func marshalJournalRuns(runs map[[32]byte]*journalRun) []byte {
	keys := make([][32]byte, 0, len(runs))
	for key := range runs {
		keys = append(keys, key)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; journals hold few runs
		for k := i; k > 0 && string(keys[k][:]) < string(keys[k-1][:]); k-- {
			keys[k], keys[k-1] = keys[k-1], keys[k]
		}
	}
	var out []byte
	for _, key := range keys {
		run := runs[key]
		out = appendJournalFrame(out, (&wire.JournalRecord{
			Kind: wire.JournalRunEnqueued, RunKey: key,
			Node: run.node, Epochs: uint64(run.epochs),
		}).Marshal())
		idxs := make([]int, 0, len(run.verdicts))
		for idx := range run.verdicts {
			idxs = append(idxs, idx)
		}
		for i := 1; i < len(idxs); i++ {
			for k := i; k > 0 && idxs[k] < idxs[k-1]; k-- {
				idxs[k], idxs[k-1] = idxs[k-1], idxs[k]
			}
		}
		for _, idx := range idxs {
			out = appendJournalFrame(out, (&wire.JournalRecord{
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
	reg.Gauge("journal_bytes").Set(j.bytes)
	var durable int64
	for _, run := range j.runs {
		durable += int64(len(run.verdicts))
	}
	reg.Gauge("journal_pending_runs").Set(int64(len(j.runs)))
	reg.Gauge("journal_durable_verdicts").Set(durable)
}

// append writes one record and fsyncs when the batch policy says so. A
// write or fsync error is sticky: a failed or short write can leave a torn
// frame, and appending past it would bury every later record behind
// garbage that replay stops at, so the first failure stops journaling for
// good. The journal is a durability aid — a full disk degrades the
// coordinator to un-journaled operation, it does not fail audits that are
// otherwise succeeding — and the file still reopens to exactly the records
// written before the failure.
func (j *Journal) append(rec *wire.JournalRecord, force bool) {
	frame := appendJournalFrame(nil, rec.Marshal())
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil || j.failed {
		return
	}
	if _, err := j.f.Write(frame); err != nil {
		j.failLocked()
		return
	}
	j.bytes += int64(len(frame))
	j.unsynced++
	if j.reg != nil {
		j.reg.Gauge("journal_bytes").Set(j.bytes)
	}
	syncEvery := j.SyncEvery
	if syncEvery <= 0 {
		syncEvery = 16
	}
	syncInterval := j.SyncInterval
	if syncInterval <= 0 {
		syncInterval = 50 * time.Millisecond
	}
	if force || j.unsynced >= syncEvery || time.Since(j.lastSync) >= syncInterval {
		j.syncLocked()
	}
}

func (j *Journal) failLocked() {
	j.failed = true
	if j.reg != nil {
		j.reg.Counter("journal_write_errors").Inc()
	}
}

func (j *Journal) syncLocked() {
	if j.unsynced == 0 || j.f == nil || j.failed {
		return
	}
	if err := j.f.Sync(); err != nil {
		j.failLocked()
		return
	}
	j.unsynced = 0
	j.lastSync = time.Now()
	if j.reg != nil {
		j.reg.Counter("journal_fsyncs").Inc()
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
// stored can be trusted for the new partition).
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

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	j.syncLocked()
	err := j.f.Close()
	j.f = nil
	return err
}

// InspectJournal reads a journal directory without opening it for writing
// (no truncation, no compaction): the harness-side peek used by smoke
// tests to decide when enough verdicts are durable to kill the
// coordinator. It returns the pending run and durable verdict counts of
// the valid prefix.
func InspectJournal(dir string) (runs, verdicts int, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	state, _ := replayJournal(raw)
	for _, run := range state {
		verdicts += len(run.verdicts)
	}
	return len(state), verdicts, nil
}

// runKeyFor derives the stable identity of an audit run: a digest over the
// audited node, the session parameters that shape replay, and the epoch
// partition (index, start identity, entry count per job). A restarted
// coordinator re-deriving jobs from the same recording computes the same
// key; any change to the recording or the partition changes it, which is
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
