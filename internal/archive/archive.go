// Package archive is the disk-backed authenticated store for tamper-
// evident logs and snapshot increments (docs/ARCHIVE_FORMAT.md). An
// archive directory holds one crc-framed append-only MANIFEST plus one
// tile file per node; segments — an epoch's log-entry run (a logcomp
// container) or one snapshot increment — are appended to the node's tile
// and indexed by a manifest record carrying the segment's SHA-256, so
// every byte read back is verified before it reaches a replay. Appends
// are crash-safe in the coordinator journal's mold: fsync-batched, with a
// truncation-tolerant open that cuts a torn tail back to the last valid
// record. Per node, the sequence of epoch payload hashes forms a Merkle
// log; LogRoot/ProveEpoch serve inclusion proofs for "this epoch run is
// in this archived log".
//
// A corrupted or truncated archive never yields a silent wrong verdict:
// reads surface precise errors, and audit integrations convert them into
// the same fault classes a tampered in-memory log or snapshot store does
// (CheckLog for entry segments, CheckSnapshot for increments).
package archive

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/logcomp"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
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
	// SyncEvery fsyncs after this many appended segments. <= 0 selects 16.
	SyncEvery int
	// SyncInterval fsyncs when this long has passed since the last fsync,
	// checked at each append. <= 0 selects 50ms.
	SyncInterval time.Duration

	mu            sync.Mutex
	dir           string
	manifest      *os.File // append handle, nil until first append
	nodes         map[string]*nodeState
	order         []string            // node names in manifest order
	writers       map[string]*os.File // tile append handles
	readers       map[string]*os.File // tile read handles
	dirty         map[string]bool     // tiles with unsynced writes
	unsynced      int
	lastSync      time.Time
	manifestBytes int64
	// broken is the first tile/manifest write or sync failure. A failed
	// write can leave the O_APPEND offset ahead of the indexed tail, so
	// further appends would commit records whose extents no longer match
	// the physical payload; every subsequent append returns this sticky
	// error instead. Reads stay available — archived extents are intact.
	broken error
}

// Open opens (creating if needed) the archive in dir, replays the
// manifest up to its valid prefix, drops records whose payload extent a
// crash left torn, truncates tile files back to their last indexed byte,
// and compacts the manifest when the valid prefix differs from the file.
func Open(dir string) (*Archive, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: dir: %w", err)
	}
	a := &Archive{
		dir:     dir,
		nodes:   make(map[string]*nodeState),
		writers: make(map[string]*os.File),
		readers: make(map[string]*os.File),
		dirty:   make(map[string]bool),
	}
	raw, err := os.ReadFile(a.manifestPath())
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("archive: reading manifest: %w", err)
	}
	a.replayManifest(raw)

	// Compact: rewrite the surviving records atomically when the file
	// holds anything else (a torn tail, or records dropped for torn
	// payloads), so appends never land after garbage.
	compacted := a.marshalManifest()
	if !bytes.Equal(compacted, raw) {
		if err := WriteFileDurable(a.manifestPath(), a.dir, compacted); err != nil {
			return nil, fmt.Errorf("archive: compacting manifest: %w", err)
		}
	}
	a.manifestBytes = int64(len(compacted))
	a.lastSync = time.Now()

	// Drop orphan payload bytes a crash left beyond the last indexed
	// extent, so future appends start exactly at the tail the manifest
	// describes.
	for _, ns := range a.nodes {
		p := a.tilePath(ns.name)
		if fi, err := os.Stat(p); err == nil && fi.Size() > ns.tail {
			if err := os.Truncate(p, ns.tail); err != nil {
				return nil, fmt.Errorf("archive: truncating %s tile: %w", ns.name, err)
			}
		}
	}
	return a, nil
}

func (a *Archive) manifestPath() string { return filepath.Join(a.dir, ManifestName) }

func (a *Archive) tilePath(node string) string { return filepath.Join(a.dir, node+TileSuffix) }

// replayManifest folds the manifest's valid prefix into node state. The
// prefix ends at the first torn or corrupt frame, at the first record
// that fails semantic validation (wrong order, unknown node, unknown
// kind), or at the first record whose extent exceeds its tile file — the
// record was durable before its payload, which only a crash produces, and
// later records were appended later still.
func (a *Archive) replayManifest(raw []byte) {
	tileSize := make(map[string]int64)
	b := raw
	for {
		body, rest, ok := nextFrame(b)
		if !ok {
			return
		}
		if !a.applyRecord(body, tileSize) {
			return
		}
		b = rest
	}
}

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
		if sz, err := fileSize(a.tilePath(node)); err == nil {
			tileSize[node] = sz
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
		out = appendFrame(out, marshalNodeRecord(ns.name, ns.memSize))
		// Interleave in tile order so extent contiguity (off == tail)
		// revalidates on the next open.
		ei, si := 0, 0
		for ei < len(ns.epochs) || si < len(ns.snaps) {
			switch {
			case si >= len(ns.snaps), ei < len(ns.epochs) && ns.epochs[ei].Off < ns.snaps[si].Off:
				out = appendFrame(out, marshalEpochRecord(ns.name, ei, &ns.epochs[ei]))
				ei++
			default:
				out = appendFrame(out, marshalSnapRecord(ns.name, si, &ns.snaps[si]))
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

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// WriteFileDurable atomically replaces path (a file in dir) with data:
// write to a temp file, fsync it, rename over path, fsync the directory. A
// plain WriteFile+Rename can leave an empty or truncated file after a
// crash, which for the manifest would silently drop every archived record
// and for the coordinator's epoch journal every durable verdict.
func WriteFileDurable(path, dir string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
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
	if err := a.usableLocked(); err != nil {
		return err
	}
	if node == "" || len(node) > 255 {
		return fmt.Errorf("archive: invalid node name %q", node)
	}
	if ns := a.nodes[node]; ns != nil {
		if ns.memSize != memSize {
			return fmt.Errorf("archive: node %q already declared with memSize %d", node, ns.memSize)
		}
		return nil
	}
	if err := a.appendRecord(marshalNodeRecord(node, memSize), nil); err != nil {
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
	if err := a.usableLocked(); err != nil {
		return err
	}
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
	if err := a.appendSegment(ns, payload); err != nil {
		return err
	}
	if err := a.appendRecord(marshalEpochRecord(node, len(ns.epochs), &rec), ns); err != nil {
		return err
	}
	ns.epochs = append(ns.epochs, rec)
	ns.tail = rec.Off + rec.Len
	return nil
}

// AppendSnapshot archives one snapshot increment as the node's next
// snapshot segment. Increments must arrive in index order.
func (a *Archive) AppendSnapshot(node string, s *snapshot.Snapshot) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.usableLocked(); err != nil {
		return err
	}
	ns, err := a.node(node)
	if err != nil {
		return err
	}
	if s.Index != len(ns.snaps) {
		return fmt.Errorf("archive: snapshot %d for %q out of order (want %d)", s.Index, node, len(ns.snaps))
	}
	payload := marshalSnapshotPayload(s)
	rec := snapRec{
		Root: s.Root, MemRoot: s.MemRoot, ICount: s.ICount,
		Off: ns.tail, Len: int64(len(payload)), Hash: payloadHash(payload),
	}
	if err := a.appendSegment(ns, payload); err != nil {
		return err
	}
	if err := a.appendRecord(marshalSnapRecord(node, len(ns.snaps), &rec), ns); err != nil {
		return err
	}
	ns.snaps = append(ns.snaps, rec)
	ns.tail = rec.Off + rec.Len
	return nil
}

// appendSegment writes payload at the node's tile tail. Callers hold mu.
func (a *Archive) appendSegment(ns *nodeState, payload []byte) error {
	w := a.writers[ns.name]
	if w == nil {
		f, err := os.OpenFile(a.tilePath(ns.name), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("archive: opening %s tile: %w", ns.name, err)
		}
		a.writers[ns.name] = f
		w = f
	}
	if _, err := w.Write(payload); err != nil {
		return a.poisonLocked(fmt.Errorf("archive: writing %s tile: %w", ns.name, err))
	}
	a.dirty[ns.name] = true
	return nil
}

// poisonLocked records the archive's first write failure and marks it
// unusable for appends (see the broken field). Callers hold mu.
func (a *Archive) poisonLocked(err error) error {
	if a.broken == nil {
		a.broken = err
	}
	return err
}

// usableLocked rejects appends after a write failure. Callers hold mu.
func (a *Archive) usableLocked() error {
	if a.broken != nil {
		return fmt.Errorf("archive: unusable after earlier write failure: %w", a.broken)
	}
	return nil
}

// appendRecord frames and appends one manifest record, then applies the
// batched fsync policy: the record's tile (payload first, then manifest)
// is made durable every SyncEvery segments or SyncInterval. Callers hold
// mu. ns is the tile the record indexes, nil for node records.
func (a *Archive) appendRecord(body []byte, ns *nodeState) error {
	if a.manifest == nil {
		f, err := os.OpenFile(a.manifestPath(), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("archive: opening manifest: %w", err)
		}
		a.manifest = f
	}
	frame := appendFrame(nil, body)
	if _, err := a.manifest.Write(frame); err != nil {
		return a.poisonLocked(fmt.Errorf("archive: writing manifest: %w", err))
	}
	a.manifestBytes += int64(len(frame))
	a.unsynced++
	every := a.SyncEvery
	if every <= 0 {
		every = 16
	}
	interval := a.SyncInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	if a.unsynced >= every || time.Since(a.lastSync) >= interval {
		return a.syncLocked()
	}
	return nil
}

// syncLocked makes every appended segment durable: dirty tiles first —
// a manifest record must never be durable before the payload it indexes —
// then the manifest. Callers hold mu.
func (a *Archive) syncLocked() error {
	names := make([]string, 0, len(a.dirty))
	for name := range a.dirty {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := a.writers[name].Sync(); err != nil {
			return a.poisonLocked(fmt.Errorf("archive: syncing %s tile: %w", name, err))
		}
		delete(a.dirty, name)
	}
	if a.manifest != nil {
		if err := a.manifest.Sync(); err != nil {
			return a.poisonLocked(fmt.Errorf("archive: syncing manifest: %w", err))
		}
	}
	a.unsynced = 0
	a.lastSync = time.Now()
	return nil
}

// Sync forces every appended segment durable immediately.
func (a *Archive) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.syncLocked()
}

// Close syncs and releases every file handle. The archive is unusable
// afterwards.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	err := a.syncLocked()
	for _, f := range a.writers {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	for _, f := range a.readers {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if a.manifest != nil {
		if cerr := a.manifest.Close(); err == nil {
			err = cerr
		}
	}
	a.writers, a.readers, a.manifest = map[string]*os.File{}, map[string]*os.File{}, nil
	return err
}

// Bytes returns the archive's total on-disk size: manifest plus tiles.
func (a *Archive) Bytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := a.manifestBytes
	for _, ns := range a.nodes {
		total += ns.tail
	}
	return total
}

// WriteRecording archives one node's complete recording: every snapshot
// increment from sf, then the log partitioned into epoch segments at its
// snapshot entries — the same partition rule every audit engine derives,
// so dispatch jobs and stream epochs align with archived segments.
// Entries must carry chain hashes (a recorder's live log does). sf may be
// nil for a snapshot-free recording, which archives as one boot epoch.
func (a *Archive) WriteRecording(node string, entries []tevlog.Entry, sf *snapshot.StoreFile) error {
	memSize := 0
	if sf != nil {
		memSize = sf.MemSize
	}
	if err := a.BeginNode(node, memSize); err != nil {
		return err
	}
	if sf != nil {
		for _, s := range sf.Snaps {
			if err := a.AppendSnapshot(node, s); err != nil {
				return err
			}
		}
	}
	if len(entries) == 0 {
		return a.Sync()
	}
	var meta EpochMeta
	meta.Boot = true
	start := 0
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
		if err := a.AppendEpoch(node, meta, entries[start:i+1]); err != nil {
			return err
		}
		start = i + 1
		meta = EpochMeta{
			StartSnap: ev.SnapIdx, StartSeq: e.Seq, StartRoot: ev.Root,
		}
	}
	if start < len(entries) {
		meta.Closed = false
		if err := a.AppendEpoch(node, meta, entries[start:]); err != nil {
			return err
		}
	}
	return a.Sync()
}
