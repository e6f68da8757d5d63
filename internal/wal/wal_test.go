package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"repro/internal/wal"
	"repro/internal/wal/waltest"
)

// The tests drive wal through a minimal client shaped like the archive: a
// log ("LOG") whose records index extents of one payload file ("BLOB").
// A record body is "<id> <off> <len> <live|dead>"; the compact image keeps
// the live records, so reopening a log that holds dead ones compacts it.

const (
	logName  = "LOG"
	blobName = "BLOB"
	maxBody  = 1 << 10
)

type client struct {
	log  *wal.Log
	blob *wal.Payload
	// recs is what replay applied (dead records included), tail the end of
	// the last indexed extent, unbacked the records whose payload was not
	// on disk (replay ended at the first).
	recs     []string
	tail     int64
	unbacked int
}

func payloadOf(id int) []byte { return bytes.Repeat([]byte{byte('a' + id%26)}, 5+id*7%40) }

func record(id int, off int64, dead bool) string {
	state := "live"
	if dead {
		state = "dead"
	}
	return fmt.Sprintf("%d %d %d %s", id, off, len(payloadOf(id)), state)
}

// openClient opens the log in dir the way a client does: replay, compact,
// cut the payload file back to the indexed tail.
func openClient(fsys wal.FS, dir string) (*client, error) {
	c := &client{}
	blobSize := int64(0)
	if fi, err := os.Stat(filepath.Join(dir, blobName)); err == nil {
		blobSize = fi.Size()
	}
	apply := func(body []byte) bool {
		var id int
		var off, n int64
		var state string
		if _, err := fmt.Sscanf(string(body), "%d %d %d %s", &id, &off, &n, &state); err != nil {
			return false
		}
		if off+n > blobSize {
			c.unbacked++
			return false
		}
		c.recs = append(c.recs, string(body))
		c.tail = off + n
		return true
	}
	image := func() []byte {
		var out []byte
		for _, r := range c.recs {
			if strings.HasSuffix(r, "live") {
				out = wal.AppendFrame(out, []byte(r))
			}
		}
		return out
	}
	log, err := wal.Open(fsys, filepath.Join(dir, logName), maxBody, apply, image)
	if err != nil {
		return nil, err
	}
	c.log = log
	if blobSize > c.tail {
		if err := fsys.Truncate(filepath.Join(dir, blobName), c.tail); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// add appends record id's payload and then the record.
func (c *client) add(id int, dead bool) error {
	if c.blob == nil {
		p, err := c.log.Payload(blobName)
		if err != nil {
			return err
		}
		c.blob = p
	}
	if err := c.blob.Write(payloadOf(id)); err != nil {
		return err
	}
	body := record(id, c.tail, dead)
	if err := c.log.Append([]byte(body)); err != nil {
		return err
	}
	c.tail += int64(len(payloadOf(id)))
	return nil
}

// trace is what one run of the scripted workload did.
type trace struct {
	first, second []string // records appended before and after the reopen
	// acks[i] = (ops, n): once ops filesystem operations had completed, the
	// first n records of the phase were acknowledged by a nil Sync or Close.
	acks1, acks2 [][2]int
	compacted    int   // ops when the compacting reopen returned; 0 if it never did
	err          error // the first error any step returned
}

// workload is the script: 20 records (every fifth dead) with two explicit
// syncs and the sixteenth-record group commit, an orphan payload write,
// Close; a reopen that compacts the dead records away and cuts the orphan
// off; 10 more records with one explicit sync; Close. After the first
// error it checks the failure is sticky and stops.
func workload(t *testing.T, fsys *waltest.FS, dir string) *trace {
	t.Helper()
	tr := &trace{}
	var c *client
	// fail notes a step's error. If the log is still open it then tries one
	// more of everything: each call must return that same error and none
	// may reach the filesystem.
	fail := func(err error) bool {
		if err == nil {
			return false
		}
		tr.err = err
		if c == nil {
			return true // Open failed, or the error came out of Close
		}
		ops := fsys.Ops()
		for _, later := range []error{c.add(99, false), c.log.Append([]byte("x")), c.log.Sync(), c.log.Close()} {
			if later != err {
				t.Fatalf("after %v: a later call returned %v, want the same error", err, later)
			}
		}
		if fsys.Ops() != ops {
			t.Fatalf("after %v: %d more filesystem operations, want none", err, fsys.Ops()-ops)
		}
		return true
	}
	closeLog := func() error {
		log := c.log
		c = nil
		return log.Close()
	}

	var err error
	if c, err = openClient(fsys, dir); fail(err) {
		return tr
	}
	for id := 0; id < 20; id++ {
		tailBefore := c.tail
		if fail(c.add(id, id%5 == 2)) {
			return tr
		}
		tr.first = append(tr.first, record(id, tailBefore, id%5 == 2))
		if id == 4 || id == 11 {
			if fail(c.log.Sync()) {
				return tr
			}
			tr.acks1 = append(tr.acks1, [2]int{fsys.Ops(), id + 1})
		}
	}
	if fail(c.blob.Write([]byte("orphan: a payload whose record never made it"))) {
		return tr
	}
	if fail(closeLog()) {
		return tr
	}
	tr.acks1 = append(tr.acks1, [2]int{fsys.Ops(), 20})

	if c, err = openClient(fsys, dir); fail(err) {
		return tr
	}
	tr.compacted = fsys.Ops()
	for id := 20; id < 30; id++ {
		tailBefore := c.tail
		if fail(c.add(id, false)) {
			return tr
		}
		tr.second = append(tr.second, record(id, tailBefore, false))
		if id == 24 {
			if fail(c.log.Sync()) {
				return tr
			}
			tr.acks2 = append(tr.acks2, [2]int{fsys.Ops(), 5})
		}
	}
	if fail(closeLog()) {
		return tr
	}
	tr.acks2 = append(tr.acks2, [2]int{fsys.Ops(), 10})
	return tr
}

// liveOf compacts a record list the way the client's image does.
func liveOf(recs []string) []string {
	var out []string
	for _, r := range recs {
		if strings.HasSuffix(r, "live") {
			out = append(out, r)
		}
	}
	return out
}

func acked(acks [][2]int, ops int) int {
	n := 0
	for _, a := range acks {
		if a[0] <= ops {
			n = a[1]
		}
	}
	return n
}

func isPrefix(p, of []string) bool {
	if len(p) > len(of) {
		return false
	}
	for i := range p {
		if p[i] != of[i] {
			return false
		}
	}
	return true
}

// checkRecovered is the atomic-batch contract: what a directory reopens to
// after the workload was cut at ops operations is a prefix of what was
// appended and contains everything a returned Sync acknowledged. Across
// the compacting reopen the log is either still the first phase's, whole,
// or the compact image plus a prefix of the second phase.
func checkRecovered(t *testing.T, what string, tr *trace, ops int, got []string) {
	t.Helper()
	if isPrefix(got, tr.first) && len(got) >= acked(tr.acks1, ops) && (tr.compacted == 0 || ops < tr.compacted) {
		return
	}
	live := liveOf(tr.first)
	if len(tr.first) == 20 && len(got) >= len(live) && isPrefix(live, got) &&
		isPrefix(got[len(live):], tr.second) && len(got)-len(live) >= acked(tr.acks2, ops) {
		return
	}
	t.Fatalf("%s: recovered %d records %q\nappended %q then %q\nacknowledged %d then %d",
		what, len(got), got, tr.first, tr.second, acked(tr.acks1, ops), acked(tr.acks2, ops))
}

// reopen opens dir with the production filesystem, checks the records
// against the contract, then checks the log is positioned for append:
// two more records and a reopen yield the recovered ones plus the two.
func reopen(t *testing.T, what string, dir string, tr *trace, ops int, synced bool) {
	t.Helper()
	c, err := openClient(wal.OS, dir)
	if err != nil {
		t.Fatalf("%s: reopen: %v", what, err)
	}
	if synced && c.unbacked > 0 {
		t.Fatalf("%s: a durable record indexes payload bytes that are not durable", what)
	}
	checkRecovered(t, what, tr, ops, c.recs)
	want := liveOf(c.recs)
	for _, id := range []int{100, 101} {
		want = append(want, record(id, c.tail, false))
		if err := c.add(id, false); err != nil {
			t.Fatalf("%s: append after recovery: %v", what, err)
		}
	}
	if err := c.log.Close(); err != nil {
		t.Fatalf("%s: close after recovery: %v", what, err)
	}
	c2, err := openClient(wal.OS, dir)
	if err != nil {
		t.Fatalf("%s: second reopen: %v", what, err)
	}
	defer c2.log.Close()
	if !slices.Equal(c2.recs, want) {
		t.Fatalf("%s: after appending to the recovered log it holds %q, want %q", what, c2.recs, want)
	}
	blob, err := os.ReadFile(filepath.Join(dir, blobName))
	if err != nil || int64(len(blob)) != c2.tail {
		t.Fatalf("%s: payload file is %d bytes (%v), want the indexed tail %d", what, len(blob), err, c2.tail)
	}
}

func newFS(t *testing.T) (*waltest.FS, string) {
	t.Helper()
	dir := t.TempDir()
	fsys, err := waltest.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	return fsys, dir
}

// TestCrashAtEveryOperation runs the workload once over the fault
// filesystem, which records the three crash images after every one of its
// operations, and reopens each with the production code.
func TestCrashAtEveryOperation(t *testing.T) {
	fsys, dir := newFS(t)
	fsys.Capture()
	tr := workload(t, fsys, dir)
	if tr.err != nil {
		t.Fatal(tr.err)
	}
	kinds := map[waltest.Kind]int{}
	for _, op := range fsys.Log() {
		kinds[op.Kind]++
	}
	crashes := fsys.Crashes()
	t.Logf("%d filesystem operations %v, %d distinct crash images", fsys.Ops(), kinds, len(crashes))
	for _, kind := range []waltest.Kind{waltest.OpCreate, waltest.OpWrite, waltest.OpSync, waltest.OpRename, waltest.OpTruncate, waltest.OpSyncDir} {
		if kinds[kind] == 0 {
			t.Errorf("the workload performs no %s", kind)
		}
	}
	// 30 records and 31 payloads written, 2 compaction writes … 83 in all
	// when no append finds the last pass 50 ms old; a slow run adds passes,
	// never removes operations. Every operation is a crash point by
	// construction; the floor is there so that a durability step that
	// disappears from wal is noticed here.
	if fsys.Ops() < 83 {
		t.Errorf("the workload performs %d filesystem operations, want at least 83", fsys.Ops())
	}
	for _, c := range crashes {
		cdir := t.TempDir()
		if err := c.Materialize(cdir); err != nil {
			t.Fatal(err)
		}
		reopen(t, c.String(), cdir, tr, c.After, c.Mode == waltest.Synced)
	}
}

// TestInjectedErrorAtEveryOperation fails each operation of the workload
// in turn — writes fail short — and checks the one failure policy: the
// error comes back, stays (workload's sticky check), and the directory
// reopens to the acknowledged prefix.
func TestInjectedErrorAtEveryOperation(t *testing.T) {
	causes := []error{syscall.ENOSPC, syscall.EIO, io.ErrShortWrite}
	k := 1
	for ; ; k++ {
		fsys, dir := newFS(t)
		cause := causes[k%len(causes)]
		fsys.FailAt(k, cause)
		tr := workload(t, fsys, dir)
		if !fsys.Failed() {
			if tr.err != nil {
				t.Fatalf("no operation failed, yet the workload returned %v", tr.err)
			}
			break
		}
		op := fsys.Log()[k-1]
		what := fmt.Sprintf("op %d (%s %s) fails with %v", k, op.Kind, op.Name, cause)
		if !errors.Is(tr.err, cause) {
			t.Fatalf("%s: the workload saw %v", what, tr.err)
		}
		// No crash here: the directory holds everything written, and the
		// workload stopped acknowledging at the failure.
		reopen(t, what, dir, tr, fsys.Ops(), false)
	}
	t.Logf("failed each of %d operations", k-1)
}

// TestFreshLogSurvivesPowerLoss is the directory-entry bug: a log and
// payload file created by this process, synced, must still be there when
// the crash keeps only what was fsynced — which needs the directory
// fsynced too, once per pass.
func TestFreshLogSurvivesPowerLoss(t *testing.T) {
	fsys, dir := newFS(t)
	c, err := openClient(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		if err := c.add(id, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.log.Sync(); err != nil {
		t.Fatal(err)
	}
	img := fsys.Image(waltest.Synced)
	if len(img[logName]) == 0 || len(img[blobName]) == 0 {
		t.Fatalf("after Sync returned, a power loss leaves %d files (log %d bytes, payload %d bytes)",
			len(img), len(img[logName]), len(img[blobName]))
	}
	dirSyncs := 0
	for _, op := range fsys.Log() {
		if op.Kind == waltest.OpSyncDir {
			dirSyncs++
		}
	}
	if dirSyncs != 1 {
		t.Fatalf("%d directory fsyncs for one pass that created two files, want 1", dirSyncs)
	}
	// A second pass creates nothing and must not pay for the directory.
	if err := c.add(3, false); err != nil {
		t.Fatal(err)
	}
	if err := c.log.Sync(); err != nil {
		t.Fatal(err)
	}
	if op := fsys.Log()[fsys.Ops()-1]; op.Kind != waltest.OpSync {
		t.Fatalf("the second pass ends with %s, want the log's fsync", op.Kind)
	}
}

// TestCompactionComparesBytes: an image of the file's length but not its
// bytes still replaces the file.
func TestCompactionComparesBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, logName)
	if err := os.WriteFile(path, wal.AppendFrame(nil, []byte("old!")), 0o644); err != nil {
		t.Fatal(err)
	}
	img := wal.AppendFrame(nil, []byte("new!"))
	log, err := wal.Open(wal.OS, path, maxBody, func([]byte) bool { return true }, func() []byte { return img })
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if raw, _ := os.ReadFile(path); !bytes.Equal(raw, img) {
		t.Fatalf("file holds %q, want the client's image %q", raw, img)
	}
}

// TestAppendRejectsUnreplayableRecords: a body replay would refuse is
// refused at append, without poisoning the log.
func TestAppendRejectsUnreplayableRecords(t *testing.T) {
	log, err := wal.Open(wal.OS, filepath.Join(t.TempDir(), logName), 4, func([]byte) bool { return true }, func() []byte { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if log.Append(nil) == nil || log.Append([]byte("12345")) == nil {
		t.Fatal("an empty or oversized record was accepted")
	}
	if err := log.Append([]byte("1234")); err != nil {
		t.Fatalf("a record of exactly maxBody bytes: %v", err)
	}
	if log.Size() != wal.FrameHeaderSize+4 {
		t.Fatalf("Size = %d, want one frame", log.Size())
	}
}

// FuzzLogReplay feeds arbitrary bytes to Open as a log file, on the shared
// "never panics, re-encode is stable" shape: the recovered prefix
// re-encodes to exactly the bytes Replay consumed and Open leaves exactly
// those on disk; appending after recovery and reopening yields the prefix
// plus what was appended.
func FuzzLogReplay(f *testing.F) {
	two := wal.AppendFrame(wal.AppendFrame(nil, []byte("one")), []byte("two"))
	f.Add(two)
	f.Add(two[:len(two)-2])
	f.Add(append(append([]byte{}, two...), 0, 0, 0, 0, 0, 0, 0, 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), logName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		open := func() (*wal.Log, [][]byte) {
			var bodies [][]byte
			log, err := wal.Open(wal.OS, path, maxBody,
				func(b []byte) bool { bodies = append(bodies, append([]byte(nil), b...)); return true },
				func() []byte {
					var img []byte
					for _, b := range bodies {
						img = wal.AppendFrame(img, b)
					}
					return img
				})
			if err != nil {
				t.Fatal(err)
			}
			return log, bodies
		}
		log, bodies := open()
		var img []byte
		for _, b := range bodies {
			img = wal.AppendFrame(img, b)
		}
		if n := wal.Replay(data, maxBody, func([]byte) bool { return true }); !bytes.Equal(img, data[:n]) {
			t.Fatalf("the %d-byte valid prefix re-encodes to %d different bytes", n, len(img))
		}
		if raw, _ := os.ReadFile(path); !bytes.Equal(raw, img) || log.Size() != int64(len(img)) {
			t.Fatalf("after Open the file holds %d bytes and Size is %d, want the %d-byte prefix", len(raw), log.Size(), len(img))
		}
		if err := log.Append([]byte("appended")); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		log2, again := open()
		defer log2.Close()
		if len(again) != len(bodies)+1 || string(again[len(bodies)]) != "appended" {
			t.Fatalf("reopen after append holds %d records, want the %d recovered plus one", len(again), len(bodies))
		}
		for i := range bodies {
			if !bytes.Equal(again[i], bodies[i]) {
				t.Fatalf("record %d changed across append and reopen", i)
			}
		}
	})
}
