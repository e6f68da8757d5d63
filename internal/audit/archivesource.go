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
	// concurrent first requests share one fold. A Restored is never mutated
	// by audits.
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
	if err := s.init(); err != nil {
		return ChunkRequest{}, err
	}
	start := s.points[from]
	entries, err := s.Arc.ReadWindow(string(s.Node), from, k)
	if err != nil {
		return ChunkRequest{}, err
	}
	at := int(start.SnapIdx)
	restored, err := s.states.do(at, func() (*snapshot.Restored, error) { return snapshot.MaterializeFrom(s.incs, at) })
	if err != nil {
		return ChunkRequest{}, err
	}
	return ChunkRequest{
		Node: s.Node, NodeIdx: s.NodeIdx,
		Start: restored, StartRoot: start.Root, PrevHash: start.EntryHash,
		Entries: entries,
		Auths:   s.Auths,
	}, nil
}
