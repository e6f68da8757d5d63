package archive_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/archive"
	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/game"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/wal/waltest"
)

// Crash and error enumeration for the archive: a scripted workload —
// archive two nodes of a recorded game, one WriteRecording each — runs over
// the fault filesystem, and whatever directory a crash after any of its
// filesystem operations, or a failure of any of them, leaves behind must
// reopen with the production code to a valid prefix: every surviving node's
// segments are a prefix of what was written for it, audit through the
// stream engine straight off the disk to the verdict the serial engine
// reaches on that prefix, contain everything a returned WriteRecording
// acknowledged, and archiving the recordings again appends exactly the
// rest, after which every node audits clean.

// crashNode is one node's recording and how to audit it.
type crashNode struct {
	name    string
	idx     uint32
	entries []tevlog.Entry
	bounds  []int // entries[:bounds[k]] is the log through epoch k
	sf      snapshot.StoreFile
	auths   []tevlog.Authenticator
	auditor *audit.Auditor
	serial  map[int]*audit.Result // by epochs in the prefix
}

func crashScenario(t *testing.T) []*crashNode {
	t.Helper()
	s, err := game.NewScenario(game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 31, SnapshotEveryNs: 300_000_000, FakeSignatures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1_000_000_000)
	var nodes []*crashNode
	for _, name := range []string{"player1", "server"} {
		target, auths, a, err := s.AuditInputs(sig.NodeID(name))
		if err != nil {
			t.Fatal(err)
		}
		n := &crashNode{
			name: name, idx: uint32(target.Index()), entries: target.Log.All(),
			sf: target.Snaps.File(), auths: auths, auditor: a, serial: map[int]*audit.Result{},
		}
		for i, e := range n.entries {
			if e.Type == tevlog.TypeSnapshot || i == len(n.entries)-1 {
				n.bounds = append(n.bounds, i+1)
			}
		}
		if len(n.bounds) < 3 || len(n.sf.Snaps) < 2 {
			t.Fatalf("%s: %d epochs, %d snapshots — too short to be worth enumerating", name, len(n.bounds), len(n.sf.Snaps))
		}
		nodes = append(nodes, n)
	}
	return nodes
}

// serialVerdict is the serial engine's verdict on the log through the
// first epochs epochs, from memory.
func (n *crashNode) serialVerdict(t *testing.T, epochs int) *audit.Result {
	t.Helper()
	if res := n.serial[epochs]; res != nil {
		return res
	}
	res, _, err := n.auditor.Audit(audit.AuditRequest{
		Node: sig.NodeID(n.name), NodeIdx: n.idx, Entries: n.entries[:n.bounds[epochs-1]], Auths: n.auths,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.serial[epochs] = res
	return res
}

// streamVerdict audits the node straight off the archive.
func (n *crashNode) streamVerdict(t *testing.T, what string, arc *archive.Archive) *audit.Result {
	t.Helper()
	src, err := arc.EntrySource(n.name)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	incs, err := arc.IncrementSource(n.name)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	res, _, err := n.auditor.Audit(audit.AuditRequest{
		Node: sig.NodeID(n.name), NodeIdx: n.idx, Engine: audit.EngineStream, Source: src, Auths: n.auths,
		Options: audit.EngineOptions{Workers: 2, Materialize: func(k uint32) (*snapshot.Restored, error) {
			return snapshot.MaterializeFrom(incs, int(k))
		}},
	})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return res
}

func sameVerdict(a, b *audit.Result) bool {
	return a.Passed == b.Passed && reflect.DeepEqual(a.Fault, b.Fault) && a.Replay == b.Replay && a.Syntactic == b.Syntactic
}

// outcome is what one run of the workload did.
type outcome struct {
	arc     *archive.Archive // still open after an append failed; nil otherwise
	ackedAt []int            // filesystem operations completed when each node's WriteRecording returned
	err     error
}

// runWorkload is the script: open the archive in dir over fsys, archive
// every node with one WriteRecording each (which ends in a Sync, the
// acknowledgement), close. Over an empty directory that is a first
// archiving; over a crash image it is the recovery: the open compacts the
// manifest, the appends cut orphan payload off the tiles and add the rest.
func runWorkload(fsys *waltest.FS, dir string, nodes []*crashNode) outcome {
	arc, err := archive.OpenFS(fsys, dir)
	if err != nil {
		return outcome{err: err}
	}
	var ackedAt []int
	for _, n := range nodes {
		if err := arc.WriteRecording(n.name, n.entries, &n.sf); err != nil {
			return outcome{arc: arc, ackedAt: ackedAt, err: err}
		}
		ackedAt = append(ackedAt, fsys.Ops())
	}
	return outcome{ackedAt: ackedAt, err: arc.Close()}
}

// start is a directory state the workload runs over: its files, and how
// many nodes are already durably complete in it.
type start struct {
	name  string
	files map[string][]byte
	done  int
}

// starts returns the two the tests enumerate: an empty directory, and the
// torn image of a crash just before the second node was acknowledged — the
// first node durable, the second's records and payload unsynced and half
// there, so recovery has a manifest to compact and a tile to cut.
func starts(t *testing.T, nodes []*crashNode) []start {
	t.Helper()
	dir := t.TempDir()
	fsys, err := waltest.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	fsys.Capture()
	out := runWorkload(fsys, dir, nodes)
	if out.err != nil {
		t.Fatal(out.err)
	}
	var torn waltest.Crash
	for _, c := range fsys.Crashes() {
		if c.Mode == waltest.Torn && c.After < out.ackedAt[1] && c.Op == (waltest.Op{Kind: waltest.OpWrite, Name: archive.ManifestName}) {
			torn = c
		}
	}
	return []start{{name: "fresh"}, {name: "recovery of " + torn.String(), files: torn.Files, done: 1}}
}

// newRun materializes a start into a fresh directory under a fault
// filesystem.
func newRun(t *testing.T, st start) (*waltest.FS, string) {
	t.Helper()
	dir := t.TempDir()
	if err := (waltest.Crash{Files: st.files}).Materialize(dir); err != nil {
		t.Fatal(err)
	}
	fsys, err := waltest.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	return fsys, dir
}

// reopenArchive opens dir the way a restarted process would. The
// filesystem under it is a waltest.FS with no plan — the same production
// code runs, minus the real fsyncs, which dominate the enumeration's wall
// time otherwise.
func reopenArchive(t *testing.T, what, dir string) *archive.Archive {
	t.Helper()
	fsys, err := waltest.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	arc, err := archive.OpenFS(fsys, dir)
	if err != nil {
		t.Fatalf("%s: reopen: %v", what, err)
	}
	return arc
}

// checkRecoveredArchive reopens dir and holds it to the contract above. acked is how many nodes (in order) a
// returned WriteRecording had acknowledged when the directory was cut.
func checkRecoveredArchive(t *testing.T, what, dir string, nodes []*crashNode, reference map[string][]byte, acked int) {
	t.Helper()
	arc := reopenArchive(t, what, dir)
	have := arc.Nodes()
	if len(have) > len(nodes) || len(have) < acked {
		t.Fatalf("%s: recovered nodes %v with %d acknowledged", what, have, acked)
	}
	for i, n := range nodes[:len(have)] {
		if have[i] != n.name {
			t.Fatalf("%s: recovered nodes %v are not a prefix of the archived order", what, have)
		}
		snaps, _ := arc.Snapshots(n.name)
		epochs, _ := arc.Epochs(n.name)
		// WriteRecording writes every increment, then the epochs.
		if snaps > len(n.sf.Snaps) || epochs > len(n.bounds) || (epochs > 0 && snaps < len(n.sf.Snaps)) {
			t.Fatalf("%s: %s recovered %d increments and %d epochs of %d and %d: not a prefix",
				what, n.name, snaps, epochs, len(n.sf.Snaps), len(n.bounds))
		}
		if i < acked && epochs < len(n.bounds) {
			t.Fatalf("%s: %s was acknowledged but recovered %d of %d epochs", what, n.name, epochs, len(n.bounds))
		}
		if epochs == 0 {
			continue
		}
		if got, want := n.streamVerdict(t, what, arc), n.serialVerdict(t, epochs); !sameVerdict(got, want) {
			t.Fatalf("%s: %s through epoch %d audits off the disk to %+v (fault %+v), the serial engine to %+v (fault %+v)",
				what, n.name, epochs-1, got, got.Fault, want, want.Fault)
		}
	}

	// Archiving everything again appends the rest, and the directory is
	// then byte for byte the one an uninterrupted archiving leaves (whose
	// nodes audit clean: referenceArchive) once a fresh open has compacted
	// the manifest.
	for _, n := range nodes {
		if err := arc.WriteRecording(n.name, n.entries, &n.sf); err != nil {
			t.Fatalf("%s: appending the rest of %s: %v", what, n.name, err)
		}
	}
	if err := arc.Close(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := reopenArchive(t, what+", the rest appended", dir).Close(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for name, want := range reference {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: after appending the rest %s holds %d bytes (%v) that differ from the uninterrupted archive's %d",
				what, name, len(got), err, len(want))
		}
	}
}

// referenceArchive archives the nodes without interruption, checks that
// every node audits clean straight off it, and returns its files.
func referenceArchive(t *testing.T, nodes []*crashNode) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	fsys, err := waltest.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if out := runWorkload(fsys, dir, nodes); out.err != nil {
		t.Fatal(out.err)
	}
	arc := reopenArchive(t, "reference", dir)
	defer arc.Close()
	image := fsys.Image(waltest.Everything)
	for _, n := range nodes {
		// A tile starts with increment 0: what is enumerated is the writing
		// of version-2 payloads.
		if tile := image[n.name+archive.TileSuffix]; len(tile) == 0 || tile[0] != archive.SnapshotPayloadVersion {
			t.Fatalf("%s: the reference tile does not start with a version-%d snapshot payload", n.name, archive.SnapshotPayloadVersion)
		}
		got, want := n.streamVerdict(t, "reference", arc), n.serialVerdict(t, len(n.bounds))
		if !want.Passed || !sameVerdict(got, want) {
			t.Fatalf("%s: the uninterrupted archive audits to %+v (fault %+v), want the clean %+v", n.name, got, got.Fault, want)
		}
	}
	return image
}

// ackedBy is how many nodes are durably complete once ops operations of a
// run over st have completed.
func ackedBy(st start, ackedAt []int, ops int) int {
	n := 0
	for _, at := range ackedAt {
		if at <= ops {
			n++
		}
	}
	return max(n, st.done)
}

func TestArchiveCrashAtEveryOperation(t *testing.T) {
	nodes := crashScenario(t)
	reference := referenceArchive(t, nodes)
	segments := 0
	for _, n := range nodes {
		segments += len(n.sf.Snaps) + len(n.bounds)
	}
	for _, st := range starts(t, nodes) {
		fsys, dir := newRun(t, st)
		fsys.Capture()
		out := runWorkload(fsys, dir, nodes)
		if out.err != nil {
			t.Fatalf("%s: %v", st.name, out.err)
		}
		kinds := map[waltest.Kind]int{}
		for _, op := range fsys.Log() {
			kinds[op.Kind]++
		}
		crashes := fsys.Crashes()
		t.Logf("%s: %d filesystem operations %v, %d distinct crash images", st.name, fsys.Ops(), kinds, len(crashes))
		// Every operation is a crash point by construction; these floors
		// catch a durability step that disappears. A first archiving is one
		// write per node record and two per segment, a tile and a manifest
		// fsync per node, a directory fsync per created tile; the recovery
		// must compact (rename) and cut a tile (truncate).
		if st.files == nil {
			if kinds[waltest.OpWrite] != len(nodes)+2*segments || kinds[waltest.OpSync] < 2*len(nodes) || kinds[waltest.OpSyncDir] < len(nodes) {
				t.Errorf("%s: operation mix %v does not match %d nodes and %d segments", st.name, kinds, len(nodes), segments)
			}
		} else if kinds[waltest.OpRename] == 0 || kinds[waltest.OpTruncate] == 0 || kinds[waltest.OpWrite] == 0 {
			t.Errorf("%s: operation mix %v: the image needs no compaction or no tile cut", st.name, kinds)
		}
		for _, c := range crashes {
			cdir := t.TempDir()
			if err := c.Materialize(cdir); err != nil {
				t.Fatal(err)
			}
			checkRecoveredArchive(t, st.name+": "+c.String(), cdir, nodes, reference, ackedBy(st, out.ackedAt, c.After))
		}
	}
}

func TestArchiveInjectedErrorAtEveryOperation(t *testing.T) {
	nodes := crashScenario(t)
	reference := referenceArchive(t, nodes)
	causes := []error{syscall.ENOSPC, syscall.EIO}
	for _, st := range starts(t, nodes) {
		k := 1
		for ; ; k++ {
			fsys, dir := newRun(t, st)
			cause := causes[k%len(causes)]
			fsys.FailAt(k, cause)
			out := runWorkload(fsys, dir, nodes)
			if !fsys.Failed() {
				if out.err != nil {
					t.Fatalf("%s: %v", st.name, out.err)
				}
				break
			}
			op := fsys.Log()[k-1]
			what := fmt.Sprintf("%s: op %d (%s %s) fails with %v", st.name, k, op.Kind, op.Name, cause)
			if !errors.Is(out.err, cause) {
				t.Fatalf("%s: the workload returned %v", what, out.err)
			}
			if out.arc != nil && op.Kind != waltest.OpTruncate {
				// Sticky: nothing more reaches the disk, every call says
				// why. (The tile cut is the archive's own operation, made
				// before anything is written: it fails that append only.)
				ops := fsys.Ops()
				for _, later := range []error{out.arc.WriteRecording(nodes[0].name, nodes[0].entries, &nodes[0].sf), out.arc.BeginNode("late", 0), out.arc.Sync(), out.arc.Close()} {
					if !errors.Is(later, cause) {
						t.Fatalf("%s: a later call returned %v", what, later)
					}
				}
				if fsys.Ops() != ops {
					t.Fatalf("%s: %d more filesystem operations after the failure", what, fsys.Ops()-ops)
				}
			} else if out.arc != nil {
				out.arc.Close()
			}
			checkRecoveredArchive(t, what, dir, nodes, reference, ackedBy(st, out.ackedAt, fsys.Ops()))
		}
		t.Logf("%s: failed each of %d operations", st.name, k-1)
	}
}
