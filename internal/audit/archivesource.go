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
// re-derived chain against the archived linkage, and the starting state,
// however it is come by, against the log-committed root before the replay.
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

// Segments implements SegmentSource.
func (s *ArchiveSource) Segments() ([]SnapshotPoint, error) {
	if err := s.init(); err != nil {
		return nil, err
	}
	return s.points, nil
}

// Window implements SegmentSource: the chain-verified window and nothing of
// the state.
func (s *ArchiveSource) Window(from, k int) (ChunkRequest, error) {
	err := s.init()
	if err == nil {
		err = checkSegments(from, k, len(s.points))
	}
	if err != nil {
		return ChunkRequest{}, err
	}
	entries, err := s.Arc.ReadWindow(string(s.Node), from, k)
	if err != nil {
		return ChunkRequest{}, err
	}
	start := s.points[from]
	return ChunkRequest{
		Node: s.Node, NodeIdx: s.NodeIdx,
		StartRoot: start.Root, PrevHash: start.EntryHash,
		Entries: entries,
		Auths:   s.Auths,
	}, nil
}

// IncrementSource implements SegmentSource: the archive's increments, each
// read verified against the manifest. (A request for increment k is notice
// that k-1 comes next; when both are large the source may read it ahead on
// its own goroutine.) It is nil if the archive cannot be read.
func (s *ArchiveSource) IncrementSource() snapshot.IncrementSource {
	if s.init() != nil {
		return nil
	}
	return s.incs
}

// Chunk is Window with the state at point from as its Start, folded out of
// the increments from that snapshot down to the newest capture of every
// page — to increment 0, a full capture, unless later ones cover it. The
// chunk engine then verifies that state against the root committed in the
// log before replaying, so a tampered archive faults exactly where a
// tampered download would. A spot check asks for no chunk: it boots and
// rolls its replicas on the increments.
func (s *ArchiveSource) Chunk(from, k int) (ChunkRequest, error) {
	req, err := s.Window(from, k)
	if err != nil {
		return ChunkRequest{}, err
	}
	if req.Start, err = snapshot.MaterializeFrom(s.incs, int(s.points[from].SnapIdx)); err != nil {
		return ChunkRequest{}, err
	}
	return req, nil
}
