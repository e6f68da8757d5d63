// The archive's verified read path. Every segment read checks the payload
// against the manifest's digest before decoding (an epoch segment's SHA-256,
// a snapshot increment's leaf digest, format.go); entry reads
// additionally re-derive the chain linkage against the archived per-epoch
// end hashes, and snapshot reads cross-check the decoded roots against
// the manifest record. Corruption therefore surfaces as a precise
// "archive:" error at the read site, which the audit integrations turn
// into the same fault class a tampered in-memory input produces.
package archive

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"repro/internal/logcomp"
	"repro/internal/merkle"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
)

// EpochInfo is the exported manifest state of one epoch segment.
type EpochInfo struct {
	// Index is the epoch's position in the node's log, starting at 0.
	Index int
	// Boot marks the first epoch (replayed from the reference image).
	Boot bool
	// Closed is true when the epoch ends at a snapshot entry.
	Closed bool
	// StartSnap/StartSeq/StartRoot identify the snapshot the epoch
	// replays from (zero for the boot epoch).
	StartSnap uint32
	StartSeq  uint64
	StartRoot [32]byte
	// EndSnap/EndRoot/EndICount describe the closing snapshot (valid when
	// Closed).
	EndSnap   uint32
	EndRoot   [32]byte
	EndICount uint64
	// EndHash is the archived chain hash of the epoch's last entry.
	EndHash tevlog.Hash
	// Entries and FirstSeq describe the entry run; Bytes its compressed
	// segment size; Hash the segment payload's SHA-256 — the leaf the
	// node's inclusion-proof Merkle log is built over.
	Entries  int
	FirstSeq uint64
	Bytes    int64
	Hash     [32]byte
}

func infoOf(k int, e *epochRec) EpochInfo {
	return EpochInfo{
		Index: k, Boot: e.Boot, Closed: e.Closed,
		StartSnap: e.StartSnap, StartSeq: e.StartSeq, StartRoot: e.StartRoot,
		EndSnap: e.EndSnap, EndRoot: e.EndRoot, EndICount: e.EndICount,
		EndHash: e.EndHash, Entries: e.Entries, FirstSeq: e.FirstSeq,
		Bytes: e.Len, Hash: e.Hash,
	}
}

// Epochs returns the number of archived epoch segments for node.
func (a *Archive) Epochs(node string) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ns, err := a.node(node)
	if err != nil {
		return 0, err
	}
	return len(ns.epochs), nil
}

// Snapshots returns the number of archived snapshot increments for node.
func (a *Archive) Snapshots(node string) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ns, err := a.node(node)
	if err != nil {
		return 0, err
	}
	return len(ns.snaps), nil
}

// EpochInfo returns epoch k's manifest state.
func (a *Archive) EpochInfo(node string, k int) (EpochInfo, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ns, err := a.node(node)
	if err != nil {
		return EpochInfo{}, err
	}
	if k < 0 || k >= len(ns.epochs) {
		return EpochInfo{}, fmt.Errorf("archive: %s epoch %d out of range [0,%d)", node, k, len(ns.epochs))
	}
	return infoOf(k, &ns.epochs[k]), nil
}

// readExtent reads one segment payload, which the caller checks against
// the manifest's digest before using any of it. The buffer is allocated
// here for this one read and nothing else keeps it: the caller owns the
// returned bytes outright and may hand them on as they are, which is what
// lets a decoded snapshot's pages be windows of it.
func (a *Archive) readExtent(node string, off, length int64, what string) ([]byte, error) {
	a.mu.Lock()
	r := a.readers[node]
	if r == nil {
		f, err := os.Open(a.tilePath(node))
		if err != nil {
			a.mu.Unlock()
			return nil, fmt.Errorf("archive: opening %s tile: %w", node, err)
		}
		a.readers[node] = f
		r = f
	}
	a.mu.Unlock()
	buf := make([]byte, length)
	if _, err := r.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("archive: reading %s %s: %w", node, what, err)
	}
	return buf, nil
}

// errMismatch is the error of a segment whose payload does not match the
// digest its manifest record holds, whichever kind of segment and digest.
func errMismatch(node, what string) error {
	return fmt.Errorf("archive: %s %s payload hash mismatch (corrupt or tampered segment)", node, what)
}

// epochPayload reads, verifies and returns epoch k's record and payload.
func (a *Archive) epochPayload(node string, k int) (epochRec, []byte, error) {
	a.mu.Lock()
	ns, err := a.node(node)
	if err != nil {
		a.mu.Unlock()
		return epochRec{}, nil, err
	}
	if k < 0 || k >= len(ns.epochs) {
		a.mu.Unlock()
		return epochRec{}, nil, fmt.Errorf("archive: %s epoch %d out of range [0,%d)", node, k, len(ns.epochs))
	}
	rec := ns.epochs[k]
	a.mu.Unlock()
	what := fmt.Sprintf("epoch %d", k)
	payload, err := a.readExtent(node, rec.Off, rec.Len, what)
	if err != nil {
		return epochRec{}, nil, err
	}
	if payloadHash(payload) != rec.Hash {
		return epochRec{}, nil, errMismatch(node, what)
	}
	return rec, payload, nil
}

// ReadEpoch returns epoch k's entry run, verified against the manifest:
// the payload hash and the decoded entry count must match the archived
// record. Containers are sequence-relative (a decoded run always starts
// at seq 1), so sequence numbers are rebased onto the manifest's
// FirstSeq. Entries come back without chain hashes; ReadLog and
// spot-check windows re-derive and check them against the archived
// linkage.
func (a *Archive) ReadEpoch(node string, k int) ([]tevlog.Entry, error) {
	rec, payload, err := a.epochPayload(node, k)
	if err != nil {
		return nil, err
	}
	entries, err := logcomp.DecompressEntries(payload)
	if err != nil {
		return nil, fmt.Errorf("archive: %s epoch %d: %w", node, k, err)
	}
	if len(entries) != rec.Entries {
		return nil, fmt.Errorf("archive: %s epoch %d decodes to %d entries, manifest says %d",
			node, k, len(entries), rec.Entries)
	}
	rebase(entries, rec.FirstSeq)
	return entries, nil
}

// rebase shifts a sequence-relative decoded run (starting at seq 1) onto
// its archived absolute first sequence number, preserving deltas.
func rebase(entries []tevlog.Entry, firstSeq uint64) {
	off := firstSeq - entries[0].Seq
	if off == 0 {
		return
	}
	for i := range entries {
		entries[i].Seq += off
	}
}

// ReadLog reconstructs the node's complete entry slice from its epoch
// segments, re-deriving the hash chain from boot and verifying each
// epoch's final hash against the archived linkage. The returned entries
// carry chain hashes, ready for any materializing engine.
func (a *Archive) ReadLog(node string) ([]tevlog.Entry, error) {
	n, err := a.Epochs(node)
	if err != nil {
		return nil, err
	}
	var all []tevlog.Entry
	var prev tevlog.Hash
	for k := 0; k < n; k++ {
		rec, err := a.EpochInfo(node, k)
		if err != nil {
			return nil, err
		}
		entries, err := a.ReadEpoch(node, k)
		if err != nil {
			return nil, err
		}
		if err := tevlog.Rechain(prev, entries); err != nil {
			return nil, fmt.Errorf("archive: %s epoch %d: %w", node, k, err)
		}
		last := entries[len(entries)-1].Hash
		if last != rec.EndHash {
			return nil, fmt.Errorf("archive: %s epoch %d chain hash mismatch against archived linkage (corrupt or tampered segment)", node, k)
		}
		prev = last
		all = append(all, entries...)
	}
	return all, nil
}

// entrySource streams a node's entries epoch by epoch: at most one
// epoch's compressed payload is resident, and each payload is
// hash-verified before its first entry is yielded.
type entrySource struct {
	a      *Archive
	node   string
	epoch  int
	total  int // epochs at open
	cur    *logcomp.EntryReader
	curRec epochRec
	count  int    // entries yielded from cur
	rebase uint64 // FirstSeq - 1: containers are sequence-relative
}

// EntrySource returns a logcomp.EntrySource streaming the node's log
// straight from disk — the stream engine's archive-backed input. Reads
// are verified segment by segment; a corrupt segment surfaces as the
// source error, which the stream engine reports as a CheckLog fault
// exactly like a corrupt container.
func (a *Archive) EntrySource(node string) (logcomp.EntrySource, error) {
	n, err := a.Epochs(node)
	if err != nil {
		return nil, err
	}
	return &entrySource{a: a, node: node, total: n}, nil
}

// Next implements logcomp.EntrySource.
func (s *entrySource) Next() (tevlog.Entry, error) {
	for {
		if s.cur == nil {
			if s.epoch >= s.total {
				return tevlog.Entry{}, io.EOF
			}
			rec, payload, err := s.a.epochPayload(s.node, s.epoch)
			if err != nil {
				return tevlog.Entry{}, err
			}
			r, err := logcomp.NewEntryReader(payload)
			if err != nil {
				return tevlog.Entry{}, fmt.Errorf("archive: %s epoch %d: %w", s.node, s.epoch, err)
			}
			s.cur, s.curRec, s.count = r, rec, 0
			s.rebase = rec.FirstSeq - 1
		}
		e, err := s.cur.Next()
		if err == io.EOF {
			if s.count != s.curRec.Entries {
				return tevlog.Entry{}, fmt.Errorf("archive: %s epoch %d yields %d entries, manifest says %d",
					s.node, s.epoch, s.count, s.curRec.Entries)
			}
			s.cur.Close()
			s.cur = nil
			s.epoch++
			continue
		}
		if err != nil {
			return tevlog.Entry{}, fmt.Errorf("archive: %s epoch %d: %w", s.node, s.epoch, err)
		}
		e.Seq += s.rebase
		if s.count == 0 && e.Seq != s.curRec.FirstSeq {
			return tevlog.Entry{}, fmt.Errorf("archive: %s epoch %d starts at seq %d, manifest says %d",
				s.node, s.epoch, e.Seq, s.curRec.FirstSeq)
		}
		s.count++
		return e, nil
	}
}

// Close implements logcomp.EntrySource.
func (s *entrySource) Close() error {
	if s.cur != nil {
		s.cur.Close()
		s.cur = nil
	}
	s.epoch = s.total
	return nil
}

// Boundary is one snapshot point of an archived log, reconstructed from
// the manifest alone — no entry needs decoding to seek to it.
type Boundary struct {
	// EntryIndex is the snapshot entry's position in the full log.
	EntryIndex int
	// Seq is the snapshot entry's sequence number.
	Seq uint64
	// SnapIdx and Root identify the committed snapshot.
	SnapIdx uint32
	Root    [32]byte
	// EntryHash is the chain hash of the snapshot entry, the linkage a
	// chunk audit verifies its segment against.
	EntryHash tevlog.Hash
	// ICount is the instruction count at the snapshot's landmark.
	ICount uint64
}

// Boundaries returns the node's snapshot points in log order — one per
// closed epoch — enabling seeks to any snapshot point without reading a
// single entry.
func (a *Archive) Boundaries(node string) ([]Boundary, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ns, err := a.node(node)
	if err != nil {
		return nil, err
	}
	var out []Boundary
	idx := 0
	for i := range ns.epochs {
		e := &ns.epochs[i]
		idx += e.Entries
		if !e.Closed {
			break
		}
		out = append(out, Boundary{
			EntryIndex: idx - 1,
			Seq:        e.FirstSeq + uint64(e.Entries) - 1,
			SnapIdx:    e.EndSnap,
			Root:       e.EndRoot,
			EntryHash:  e.EndHash,
			ICount:     e.EndICount,
		})
	}
	return out, nil
}

// ReadWindow returns the chain-verified entry run between snapshot points
// from and from+k (the k epochs following boundary from): it streams
// exactly those segments from disk, re-derives the chain from the
// archived hash at the opening boundary, and checks the closing epoch's
// final hash against the archived linkage. This is the spot-check seek
// path: an auditor inspects k segments of a log it never materializes.
func (a *Archive) ReadWindow(node string, from, k int) ([]tevlog.Entry, error) {
	if k <= 0 {
		return nil, fmt.Errorf("archive: window length %d", k)
	}
	var out []tevlog.Entry
	prev, err := a.EpochInfo(node, from)
	if err != nil {
		return nil, err
	}
	chain := prev.EndHash
	for e := from + 1; e <= from+k; e++ {
		rec, err := a.EpochInfo(node, e)
		if err != nil {
			return nil, err
		}
		entries, err := a.ReadEpoch(node, e)
		if err != nil {
			return nil, err
		}
		if err := tevlog.Rechain(chain, entries); err != nil {
			return nil, fmt.Errorf("archive: %s epoch %d: %w", node, e, err)
		}
		chain = entries[len(entries)-1].Hash
		if chain != rec.EndHash {
			return nil, fmt.Errorf("archive: %s epoch %d chain hash mismatch against archived linkage (corrupt or tampered segment)", node, e)
		}
		out = append(out, entries...)
	}
	return out, nil
}

// readAheadMin is the payload length from which an increment is worth
// reading on another goroutine, and its pages' leaves worth hashing on
// several (pageLeaves). A read is a ReadAt and a SHA-256 of the payload, well
// under a millisecond per MiB, and handing it to a goroutine and collecting
// it costs some microseconds: at 1 MiB the hand-off is below a percent of
// what it overlaps; at the 10–100 KiB increments of a guest with a few
// hundred KiB of memory it would be most of it.
const readAheadMin = 1 << 20

// incrementSource adapts a node's archived snapshot segments to
// snapshot.IncrementSource. Decoded increments are memoized — audit
// materializations revisit the same early increments once per epoch, and
// a re-read from disk would re-pay hashing and decode every time — and an
// increment is read once however many folds ask for it at the same time.
//
// It reads ahead. A fold walks newest-first, so a request for increment k
// is followed by one for k-1 unless every page is already resolved: when
// both payloads are at least readAheadMin long and the process has a second
// P, k-1 is read, hash-verified and decoded on another goroutine while the
// caller does the same to k, and the fold's next request collects it. What
// a read-ahead finds is reported only to a caller that asks for that
// increment: a failed one nobody waited for is forgotten, and the request
// that comes later reads again and reports what it sees.
type incrementSource struct {
	a    *Archive
	node string
	mem  int
	recs []snapRec // the manifest's records at open; records are never rewritten

	mu    sync.Mutex
	reads []*incRead // index → the read of that increment, nil until one starts
}

// incRead is one read of one increment: in flight until done is closed,
// the memo entry afterwards. A failed read is taken out of the table before
// done is closed, so an error reaches those already waiting and nobody else.
type incRead struct {
	done chan struct{}
	snap *snapshot.Snapshot
	err  error
}

// IncrementSource returns the node's archived snapshot increments as a
// snapshot.IncrementSource: the archive-backed materializer. Every
// increment read is verified against the manifest (payload digest, index
// and committed roots) before it participates in a fold, and a version-2
// increment carries the Merkle leaves of its pages that the check computed,
// which spare a fold's tree from hashing those pages again; a corrupt
// increment errors, which audits report as a CheckSnapshot fault exactly
// like a tampered snapshot store. The source is safe for concurrent use
// and must not be used after the archive is closed.
func (a *Archive) IncrementSource(node string) (snapshot.IncrementSource, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ns, err := a.node(node)
	if err != nil {
		return nil, err
	}
	return &incrementSource{
		a: a, node: node, mem: ns.memSize,
		recs:  append([]snapRec(nil), ns.snaps...),
		reads: make([]*incRead, len(ns.snaps)),
	}, nil
}

// MemSize implements snapshot.IncrementSource.
func (s *incrementSource) MemSize() int { return s.mem }

// Count implements snapshot.IncrementSource.
func (s *incrementSource) Count() int { return len(s.recs) }

// Increment implements snapshot.IncrementSource.
func (s *incrementSource) Increment(k int) (*snapshot.Snapshot, error) {
	if k < 0 || k >= len(s.recs) {
		return nil, fmt.Errorf("archive: %s snapshot %d out of range [0,%d)", s.node, k, len(s.recs))
	}
	s.mu.Lock()
	r, mine := s.reads[k], false
	if r == nil {
		r, mine = s.begin(k), true
	}
	var ahead *incRead
	if k > 0 && s.reads[k-1] == nil && s.recs[k].Len >= readAheadMin && s.recs[k-1].Len >= readAheadMin &&
		runtime.GOMAXPROCS(0) > 1 && s.a.beginReadAhead() {
		ahead = s.begin(k - 1)
	}
	s.mu.Unlock()
	if ahead != nil {
		go func() {
			defer s.a.readAheads.Done()
			s.read(k-1, ahead)
		}()
	}
	if mine {
		s.read(k, r)
	} else {
		<-r.done
	}
	return r.snap, r.err
}

// begin enters a read of increment k in the table. Callers hold mu.
func (s *incrementSource) begin(k int) *incRead {
	r := &incRead{done: make(chan struct{})}
	s.reads[k] = r
	return r
}

// read performs r, the read of increment k that begin entered: the extent
// against the manifest's digest, the decode, and the decoded index and roots
// against the manifest's record.
func (s *incrementSource) read(k int, r *incRead) {
	rec := &s.recs[k]
	what := fmt.Sprintf("snapshot %d", k)
	payload, err := s.a.readExtent(s.node, rec.Off, rec.Len, what)
	if err == nil {
		var ok bool
		if r.snap, ok, err = openSnapshotPayload(payload, rec.Hash); !ok {
			err = errMismatch(s.node, what)
		}
	}
	if err == nil && (r.snap.Index != k || r.snap.Root != rec.Root || r.snap.MemRoot != rec.MemRoot) {
		err = fmt.Errorf("archive: %s snapshot %d payload disagrees with manifest (corrupt or tampered segment)", s.node, k)
	}
	if err != nil {
		r.snap, r.err = nil, err
		s.mu.Lock()
		s.reads[k] = nil
		s.mu.Unlock()
	}
	close(r.done)
}

// LogRoot returns the Merkle root over the node's epoch segment hashes —
// the commitment "this archived log consists of exactly these epoch
// runs". Leaf k is the SHA-256 of epoch k's segment payload.
func (a *Archive) LogRoot(node string) (merkle.Hash, error) {
	leaves, err := a.epochLeaves(node)
	if err != nil {
		return merkle.Hash{}, err
	}
	return merkle.RootOf(leaves), nil
}

// ProveEpoch returns the inclusion proof that epoch k's segment (by
// payload hash) is leaf k of the node's archived log, plus the log root
// the proof verifies against.
func (a *Archive) ProveEpoch(node string, k int) (merkle.Proof, merkle.Hash, error) {
	leaves, err := a.epochLeaves(node)
	if err != nil {
		return merkle.Proof{}, merkle.Hash{}, err
	}
	if k < 0 || k >= len(leaves) {
		return merkle.Proof{}, merkle.Hash{}, fmt.Errorf("archive: %s epoch %d out of range [0,%d)", node, k, len(leaves))
	}
	t := merkle.Seeded(len(leaves), func(i int) []byte { return leaves[i] }, 0)
	p, err := t.Prove(k)
	if err != nil {
		return merkle.Proof{}, merkle.Hash{}, err
	}
	return p, t.Root(), nil
}

// VerifyInclusion checks an epoch inclusion proof: that a segment with
// the given payload hash is the proof's leaf of the archived log
// committed to by root.
func VerifyInclusion(root merkle.Hash, proof merkle.Proof, segmentHash [32]byte) error {
	return merkle.VerifyProof(root, proof, segmentHash[:])
}

func (a *Archive) epochLeaves(node string) ([][]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ns, err := a.node(node)
	if err != nil {
		return nil, err
	}
	leaves := make([][]byte, len(ns.epochs))
	for i := range ns.epochs {
		leaves[i] = ns.epochs[i].Hash[:]
	}
	return leaves, nil
}
