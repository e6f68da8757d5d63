// Package archive is the disk-backed authenticated store for tamper-
// evident logs and snapshot increments (docs/ARCHIVE_FORMAT.md). An
// archive directory holds one crc-framed append-only MANIFEST plus one
// tile file per node; segments — an epoch's log-entry run (a logcomp
// container) or one snapshot increment — are appended to the node's tile
// and indexed by a manifest record carrying the segment's SHA-256, so
// every byte read back is verified before it reaches a replay. The
// manifest is a wal.Log and the tiles are its payload files, so appends are
// crash-safe by internal/wal's rules: fsync-batched, payload durable before
// the record that indexes it, and an open that cuts a torn tail back to the
// last valid record. Per node, the sequence of epoch payload hashes forms a Merkle
// log; LogRoot/ProveEpoch serve inclusion proofs for "this epoch run is
// in this archived log".
//
// A corrupted or truncated archive never yields a silent wrong verdict:
// reads surface precise errors, and audit integrations convert them into
// the same fault classes a tampered in-memory log or snapshot store does
// (CheckLog for entry segments, CheckSnapshot for increments).
package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/logcomp"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/wal"
	"repro/internal/wire"
)

// nodeState is the manifest-derived state of one node.
type nodeState struct {
	name    string
	memSize int
	epochs  []epochRec
	snaps   []snapRec
	tail    int64 // end of the last indexed extent in the tile file
}

// Archive is an open archive directory. One goroutine may append while
// others read; all methods are safe for concurrent use. The zero value is
// not usable — call Open.
type Archive struct {
	mu      sync.Mutex
	dir     string
	fsys    wal.FS
	log     *wal.Log // the manifest
	nodes   map[string]*nodeState
	order   []string                // node names in manifest order
	tiles   map[string]*wal.Payload // tile append handles
	readers map[string]*os.File     // tile read handles

	// readAheads counts the increment reads running on goroutines of their
	// own (read.go). Close refuses new ones and waits for these before it
	// closes the files they read.
	readAheads sync.WaitGroup
	closed     bool
}

// Open opens (creating if needed) the archive in dir, replays the
// manifest up to its valid prefix, drops records whose payload extent a
// crash left torn, and compacts the manifest when the valid prefix differs
// from the file. Payload bytes a crash left beyond a tile's last indexed
// extent are cut off by the first append to that tile, not here: an archive
// that is only read is not written to.
func Open(dir string) (*Archive, error) { return open(wal.OS, dir) }

func open(fsys wal.FS, dir string) (*Archive, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: dir: %w", err)
	}
	a := &Archive{
		dir:     dir,
		fsys:    fsys,
		nodes:   make(map[string]*nodeState),
		tiles:   make(map[string]*wal.Payload),
		readers: make(map[string]*os.File),
	}
	// The valid prefix ends at the first torn or corrupt frame (wal's
	// rule), at the first record that fails semantic validation (wrong
	// order, unknown node, unknown kind), or at the first record whose
	// extent exceeds its tile file — the record was durable before its
	// payload, which only a crash produces, and later records were appended
	// later still. The compact image is the surviving records.
	tileSize := make(map[string]int64)
	log, err := wal.Open(fsys, a.manifestPath(), MaxRecordSize,
		func(body []byte) bool { return a.applyRecord(body, tileSize) }, a.marshalManifest)
	if err != nil {
		return nil, fmt.Errorf("archive: manifest: %w", err)
	}
	a.log = log
	return a, nil
}

func (a *Archive) manifestPath() string { return filepath.Join(a.dir, ManifestName) }

func (a *Archive) tilePath(node string) string { return filepath.Join(a.dir, node+TileSuffix) }

// applyRecord folds one manifest record body; false ends the prefix.
func (a *Archive) applyRecord(body []byte, tileSize map[string]int64) bool {
	if len(body) == 0 {
		return false
	}
	r := &recReader{b: body[1:]}
	switch body[0] {
	case RecordNode:
		node := r.str()
		memSize := int(r.uvarint())
		if !r.done() || node == "" || memSize < 0 || a.nodes[node] != nil {
			return false
		}
		a.addNode(node, memSize)
		if fi, err := os.Stat(a.tilePath(node)); err == nil {
			tileSize[node] = fi.Size()
		}
		return true
	case RecordEpoch:
		node, idx, e, err := parseEpochRecord(r)
		if err != nil {
			return false
		}
		ns := a.nodes[node]
		// Subtraction form: e.Len is attacker-controlled and e.Off+e.Len
		// can wrap negative, passing a sum-based bound.
		if ns == nil || idx != len(ns.epochs) || e.Off != ns.tail ||
			e.Len > tileSize[node] || e.Off > tileSize[node]-e.Len {
			return false
		}
		if len(ns.epochs) > 0 && !ns.epochs[len(ns.epochs)-1].Closed {
			// Only the final epoch may be unclosed; an append after it
			// could not have been produced by this writer.
			return false
		}
		ns.epochs = append(ns.epochs, e)
		ns.tail = e.Off + e.Len
		return true
	case RecordSnapshot:
		node, idx, s, err := parseSnapRecord(r)
		if err != nil {
			return false
		}
		ns := a.nodes[node]
		if ns == nil || idx != len(ns.snaps) || s.Off != ns.tail ||
			s.Len > tileSize[node] || s.Off > tileSize[node]-s.Len {
			return false
		}
		ns.snaps = append(ns.snaps, s)
		ns.tail = s.Off + s.Len
		return true
	default:
		return false
	}
}

// marshalManifest re-encodes the live state as a compact manifest image.
func (a *Archive) marshalManifest() []byte {
	var out []byte
	for _, name := range a.order {
		ns := a.nodes[name]
		out = wal.AppendFrame(out, marshalNodeRecord(ns.name, ns.memSize))
		// Interleave in tile order so extent contiguity (off == tail)
		// revalidates on the next open.
		ei, si := 0, 0
		for ei < len(ns.epochs) || si < len(ns.snaps) {
			switch {
			case si >= len(ns.snaps), ei < len(ns.epochs) && ns.epochs[ei].Off < ns.snaps[si].Off:
				out = wal.AppendFrame(out, marshalEpochRecord(ns.name, ei, &ns.epochs[ei]))
				ei++
			default:
				out = wal.AppendFrame(out, marshalSnapRecord(ns.name, si, &ns.snaps[si]))
				si++
			}
		}
	}
	return out
}

func (a *Archive) addNode(node string, memSize int) *nodeState {
	ns := &nodeState{name: node, memSize: memSize}
	a.nodes[node] = ns
	a.order = append(a.order, node)
	return ns
}

// Nodes returns the archived node names in first-appended order.
func (a *Archive) Nodes() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.order...)
}

// MemSize returns the node's guest memory size in bytes (zero when the
// node was archived without snapshots).
func (a *Archive) MemSize(node string) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ns, err := a.node(node)
	if err != nil {
		return 0, err
	}
	return ns.memSize, nil
}

func (a *Archive) node(name string) (*nodeState, error) {
	ns := a.nodes[name]
	if ns == nil {
		return nil, fmt.Errorf("archive: unknown node %q", name)
	}
	return ns, nil
}

// BeginNode declares a node before its first segment. memSize is the
// guest memory size the snapshot materializer rebuilds into (0 when the
// node carries no snapshots). Idempotent for an identical declaration.
func (a *Archive) BeginNode(node string, memSize int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if node == "" || len(node) > 255 {
		return fmt.Errorf("archive: invalid node name %q", node)
	}
	if ns := a.nodes[node]; ns != nil {
		if ns.memSize != memSize {
			return fmt.Errorf("archive: node %q already declared with memSize %d", node, ns.memSize)
		}
		return nil
	}
	if err := a.log.Append(marshalNodeRecord(node, memSize)); err != nil {
		return err
	}
	a.addNode(node, memSize)
	return nil
}

// EpochMeta describes an epoch segment being appended: its starting
// snapshot linkage (zero for the boot epoch) and, when the epoch is
// closed by a snapshot entry, the closing snapshot's identity.
type EpochMeta struct {
	// Boot marks the first epoch, replayed from the reference image.
	Boot bool
	// StartSnap/StartSeq/StartRoot identify the snapshot the epoch
	// replays from (meaningful when !Boot).
	StartSnap uint32
	StartSeq  uint64
	StartRoot [32]byte
	// Closed is true when the epoch's final entry is a snapshot entry;
	// EndSnap/EndRoot/EndICount then describe that snapshot.
	Closed    bool
	EndSnap   uint32
	EndRoot   [32]byte
	EndICount uint64
}

// AppendEpoch archives one epoch's entry run as the node's next epoch
// segment. Entries must carry their chain hashes (the recorder's live log
// does); the final entry's hash is archived as the epoch's chain linkage.
func (a *Archive) AppendEpoch(node string, meta EpochMeta, entries []tevlog.Entry) error {
	if len(entries) == 0 {
		return fmt.Errorf("archive: empty epoch for %q", node)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ns, err := a.node(node)
	if err != nil {
		return err
	}
	if n := len(ns.epochs); n > 0 && !ns.epochs[n-1].Closed {
		return fmt.Errorf("archive: node %q log already ended (epoch %d is unclosed)", node, n-1)
	}
	payload := logcomp.CompressEntries(entries)
	rec := epochRec{
		Boot: meta.Boot, Closed: meta.Closed,
		StartSnap: meta.StartSnap, StartSeq: meta.StartSeq, StartRoot: meta.StartRoot,
		EndSnap: meta.EndSnap, EndRoot: meta.EndRoot, EndICount: meta.EndICount,
		EndHash:  entries[len(entries)-1].Hash,
		Entries:  len(entries),
		FirstSeq: entries[0].Seq,
		Off:      ns.tail,
		Len:      int64(len(payload)),
		Hash:     payloadHash(payload),
	}
	if err := a.appendSegment(ns, payload, marshalEpochRecord(node, len(ns.epochs), &rec)); err != nil {
		return err
	}
	ns.epochs = append(ns.epochs, rec)
	ns.tail = rec.Off + rec.Len
	return nil
}

// AppendSnapshot archives one snapshot increment as the node's next
// snapshot segment, a version-2 payload bound by its leaf digest.
// Increments must arrive in index order, and every page must be a page
// index (>= 0) with at most vm.PageSize bytes, which every capture is.
func (a *Archive) AppendSnapshot(node string, s *snapshot.Snapshot) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	ns, err := a.node(node)
	if err != nil {
		return err
	}
	if s.Index != len(ns.snaps) {
		return fmt.Errorf("archive: snapshot %d for %q out of order (want %d)", s.Index, node, len(ns.snaps))
	}
	payload, digest, err := sealSnapshotPayload(s)
	if err != nil {
		return fmt.Errorf("archive: snapshot %d for %q: %w", s.Index, node, err)
	}
	rec := snapRec{
		Root: s.Root, MemRoot: s.MemRoot, ICount: s.ICount,
		Off: ns.tail, Len: int64(len(payload)), Hash: digest,
	}
	if err := a.appendSegment(ns, payload, marshalSnapRecord(node, len(ns.snaps), &rec)); err != nil {
		return err
	}
	ns.snaps = append(ns.snaps, rec)
	ns.tail = rec.Off + rec.Len
	return nil
}

// appendSegment writes payload at the node's tile tail and then the
// manifest record that indexes it. The log's fsync pass makes them durable
// in that order, and its first failed write makes every later append
// return the same error: the O_APPEND offset may then be ahead of the
// indexed tail, so a further record's extent would not match its payload.
// Reads stay available — archived extents are intact. Callers hold mu.
func (a *Archive) appendSegment(ns *nodeState, payload, record []byte) error {
	t := a.tiles[ns.name]
	if t == nil {
		// First append to this tile by this process. A crash can leave
		// payload bytes no surviving record indexes — past the indexed tail,
		// or a whole tile whose node record was lost — and O_APPEND would
		// put the new payload behind them, off the extent its record names.
		path := a.tilePath(ns.name)
		if fi, err := os.Stat(path); err == nil && fi.Size() > ns.tail {
			if err := a.fsys.Truncate(path, ns.tail); err != nil {
				return fmt.Errorf("archive: truncating %s tile: %w", ns.name, err)
			}
		}
		var err error
		if t, err = a.log.Payload(ns.name + TileSuffix); err != nil {
			return err
		}
		a.tiles[ns.name] = t
	}
	if err := t.Write(payload); err != nil {
		return err
	}
	return a.log.Append(record)
}

// Sync forces every appended segment durable immediately.
func (a *Archive) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.log.Sync()
}

// beginReadAhead reserves a place for one read on a goroutine of its own;
// false means the archive is closing and the read must not start. The
// goroutine calls readAheads.Done when it has finished.
func (a *Archive) beginReadAhead() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false
	}
	a.readAheads.Add(1)
	return true
}

// Close syncs and releases every file handle, after the reads still
// running ahead of a fold have finished. The archive is unusable for
// appends afterwards.
func (a *Archive) Close() error {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	a.readAheads.Wait()
	a.mu.Lock()
	defer a.mu.Unlock()
	err := a.log.Close()
	for _, f := range a.readers {
		f.Close() // read-only handle; nothing to lose
	}
	a.tiles, a.readers = map[string]*wal.Payload{}, map[string]*os.File{}
	return err
}

// Bytes returns the archive's total on-disk size: manifest plus tiles.
func (a *Archive) Bytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := a.log.Size()
	for _, ns := range a.nodes {
		total += ns.tail
	}
	return total
}

// WriteRecording archives one node's complete recording: every snapshot
// increment from sf, then the log partitioned into epoch segments at its
// snapshot entries — the same cut every audit engine's router makes,
// so dispatch jobs and stream epochs align with archived segments.
// Entries must carry chain hashes (a recorder's live log does). sf may be
// nil for a snapshot-free recording, which archives as one boot epoch.
// Increments and epochs the archive already holds for node are skipped, so
// calling it again after a crash cut the archive back to a prefix appends
// exactly what is missing.
func (a *Archive) WriteRecording(node string, entries []tevlog.Entry, sf *snapshot.StoreFile) error {
	memSize := 0
	if sf != nil {
		memSize = sf.MemSize
	}
	if err := a.BeginNode(node, memSize); err != nil {
		return err
	}
	haveSnaps, _ := a.Snapshots(node)
	haveEpochs, _ := a.Epochs(node)
	if sf != nil {
		for _, s := range sf.Snaps[min(haveSnaps, len(sf.Snaps)):] {
			if err := a.AppendSnapshot(node, s); err != nil {
				return err
			}
		}
	}
	meta := EpochMeta{Boot: true}
	start, k := 0, 0
	for i := range entries {
		e := &entries[i]
		if e.Type != tevlog.TypeSnapshot {
			continue
		}
		ev, err := wire.ParseEvent(e.Content)
		if err != nil {
			return fmt.Errorf("archive: %s entry %d snapshot event: %w", node, e.Seq, err)
		}
		meta.Closed = true
		meta.EndSnap, meta.EndRoot, meta.EndICount = ev.SnapIdx, ev.Root, ev.Landmark.ICount
		if k >= haveEpochs {
			if err := a.AppendEpoch(node, meta, entries[start:i+1]); err != nil {
				return err
			}
		}
		k++
		start = i + 1
		meta = EpochMeta{
			StartSnap: ev.SnapIdx, StartSeq: e.Seq, StartRoot: ev.Root,
		}
	}
	if start < len(entries) && k >= haveEpochs {
		if err := a.AppendEpoch(node, meta, entries[start:]); err != nil {
			return err
		}
	}
	return a.Sync()
}
