package audit

import (
	"sync"

	"repro/internal/archive"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
)

// ArchiveSource adapts a disk archive to SegmentSource: spot-check
// policies pick segments from the archived snapshot boundaries (no entry
// is decoded to enumerate them), and each chunk streams exactly its
// k-epoch window from disk — seek to a snapshot point, read k segments —
// so an auditor spot-checks a log it could never materialize. Every read
// is verified: segment payloads against the manifest hashes, the window's
// re-derived chain against the archived linkage, and the starting state
// against the log-committed root (by the chunk engine itself).
type ArchiveSource struct {
	// Arc is the open archive; Node/NodeIdx the audited machine.
	Arc     *archive.Archive
	Node    sig.NodeID
	NodeIdx uint32
	// Auths are the authenticators covering the log (archives store logs
	// and snapshots; authenticators travel with the recording).
	Auths []tevlog.Authenticator

	once   sync.Once
	points []SnapshotPoint
	incs   snapshot.IncrementSource
	iniErr error

	// states memoizes materialized starting states per snapshot index, as
	// MonitorSource does: overlapping policies, repeated passes and
	// concurrent first requests share one fold. A spot check asks for no
	// state: each worker boots its first replica from the increments and
	// rolls from there (RollSource). Every Chunk call fills the memo. A
	// Restored is never mutated by audits.
	states flight[*snapshot.Restored]
}

// init resolves the archive metadata once: snapshot points from the
// manifest boundaries and the increment source for materialization.
func (s *ArchiveSource) init() error {
	s.once.Do(func() {
		bounds, err := s.Arc.Boundaries(string(s.Node))
		if err != nil {
			s.iniErr = err
			return
		}
		s.points = make([]SnapshotPoint, len(bounds))
		for i, b := range bounds {
			s.points[i] = SnapshotPoint{
				EntryIndex: b.EntryIndex, Seq: b.Seq, SnapIdx: b.SnapIdx,
				Root: b.Root, EntryHash: b.EntryHash, ICount: b.ICount,
			}
		}
		s.incs, s.iniErr = s.Arc.IncrementSource(string(s.Node))
	})
	return s.iniErr
}

// pointsFor returns the snapshot points once checkSegments has passed the
// request for segments [from, from+k).
func (s *ArchiveSource) pointsFor(from, k, minK int) ([]SnapshotPoint, error) {
	err := s.init()
	if err == nil {
		err = checkSegments(from, k, minK, len(s.points))
	}
	return s.points, err
}

// Segments implements SegmentSource.
func (s *ArchiveSource) Segments() ([]SnapshotPoint, error) {
	if err := s.init(); err != nil {
		return nil, err
	}
	return s.points, nil
}

// Chunk implements SegmentSource: the window's entries stream from disk
// (chain-verified against the archived linkage) and the starting state is
// folded from archived increments. The chunk engine then verifies that
// state against the root committed in the log before replaying, so a
// tampered archive faults exactly where a tampered download would.
func (s *ArchiveSource) Chunk(from, k int) (ChunkRequest, error) {
	req, err := s.Window(from, k)
	if err != nil {
		return ChunkRequest{}, err
	}
	if req.Start, err = s.StartState(from); err != nil {
		return ChunkRequest{}, err
	}
	return req, nil
}

// CanRoll implements RollSource: an archive always holds the increments.
func (s *ArchiveSource) CanRoll() bool { return true }

// Window implements RollSource: the chain-verified window and nothing of
// the state.
func (s *ArchiveSource) Window(from, k int) (ChunkRequest, error) {
	pts, err := s.pointsFor(from, k, 1)
	if err != nil {
		return ChunkRequest{}, err
	}
	entries, err := s.Arc.ReadWindow(string(s.Node), from, k)
	if err != nil {
		return ChunkRequest{}, err
	}
	start := pts[from]
	return ChunkRequest{
		Node: s.Node, NodeIdx: s.NodeIdx,
		StartRoot: start.Root, PrevHash: start.EntryHash,
		Entries: entries,
		Auths:   s.Auths,
	}, nil
}

// ReplicaStart implements RollSource: the archive's increments and the
// snapshot at point from, which the boot folds into its replica itself.
func (s *ArchiveSource) ReplicaStart(from int) (ReplicaStart, error) {
	pts, err := s.pointsFor(from, 0, 0)
	if err != nil {
		return ReplicaStart{}, err
	}
	return ReplicaStart{Incs: s.incs, Index: int(pts[from].SnapIdx)}, nil
}

// StartState returns the state at point from, the Start of Chunk(from, k),
// folded out of the increments from that snapshot down to the newest
// capture of every page — to increment 0, a full capture, unless later ones
// cover it.
func (s *ArchiveSource) StartState(from int) (*snapshot.Restored, error) {
	pts, err := s.pointsFor(from, 0, 0)
	if err != nil {
		return nil, err
	}
	at := int(pts[from].SnapIdx)
	return s.states.do(at, func() (*snapshot.Restored, error) { return snapshot.MaterializeFrom(s.incs, at) })
}

// IncrementRange implements RollSource: the increments between two points,
// each read once and verified against the manifest like any other, and no
// increment at or below the first point. (The archive's source takes a
// request for increment k as notice that k-1 comes next; when both are large
// it may read the increment at the first point ahead on its own goroutine.
// Nothing here asks for it or sees what that read found.)
func (s *ArchiveSource) IncrementRange(after, upTo int) ([]*snapshot.Snapshot, error) {
	pts, err := s.pointsFor(after, upTo-after, 0)
	if err != nil {
		return nil, err
	}
	return snapshot.IncrementRange(s.incs, int(pts[after].SnapIdx), int(pts[upTo].SnapIdx))
}
