// Package waltest is the fault-injecting filesystem the durable-log tests
// run internal/wal and its two clients over. An FS implements wal.FS on a
// real directory — every operation also happens there, so code that reads
// with package os sees what it wrote — while keeping a model of what a
// power loss would leave behind:
//
//   - a file's bytes are durable up to the file's last successful fsync;
//   - a directory entry (a creation, a rename, a removal) is durable once
//     the directory has been fsynced;
//   - beyond that a crash may keep anything. Three images bracket it:
//     Synced keeps nothing more, Everything keeps all that was written, and
//     Torn keeps every directory entry plus, per file, the durable bytes and
//     the first half of what was written after them.
//
// Every wal.FS call and every File.Write and File.Sync is one numbered
// operation. Capture records the crash images after each operation (one
// workload run enumerates all of its crash points; an image equal to the
// previous one of its mode is not recorded twice), and FailAt makes one
// chosen operation fail — a failed write is a short write: half the bytes
// land, then the error.
package waltest

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/wal"
)

// Kind names an operation.
type Kind string

// The operations an FS counts.
const (
	OpOpen     Kind = "open"   // OpenAppend of an existing file
	OpCreate   Kind = "create" // OpenAppend or Create making a new file, or Create truncating one
	OpWrite    Kind = "write"
	OpSync     Kind = "sync"
	OpRename   Kind = "rename"
	OpRemove   Kind = "remove"
	OpTruncate Kind = "truncate"
	OpSyncDir  Kind = "syncdir"
)

// Op is one counted operation.
type Op struct {
	Kind Kind
	Name string // file name within the directory ("" for syncdir)
}

// Mode selects what a crash keeps beyond the durable state.
type Mode string

// The three crash images; see the package comment.
const (
	Synced     Mode = "synced"
	Everything Mode = "everything"
	Torn       Mode = "torn"
)

// Crash is the directory content a crash right after operation After (0 =
// before the first one) leaves under Mode.
type Crash struct {
	After int
	Op    Op // the operation just completed; zero for After == 0
	Mode  Mode
	Files map[string][]byte
}

// String names the crash point for test output.
func (c Crash) String() string {
	return fmt.Sprintf("crash after op %d (%s %s), %s", c.After, c.Op.Kind, c.Op.Name, c.Mode)
}

// Materialize writes the crash image into dir, which must be empty.
func (c Crash) Materialize(dir string) error {
	for name, data := range c.Files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// file is one inode: its current bytes and the bytes as of its last fsync.
type file struct {
	data, synced []byte
}

// FS is a wal.FS over one real directory with a durability model, an
// operation counter, crash-image capture and one-shot error injection.
type FS struct {
	mu      sync.Mutex
	root    string
	entries map[string]*file // the directory now
	durable map[string]*file // the directory as of its last fsync
	ops     []Op
	capture bool
	crashes []Crash
	last    map[Mode]map[string][]byte
	failAt  int
	failErr error
	failed  bool
}

var _ wal.FS = (*FS)(nil)

// New returns an FS over dir. Files already there are taken as durable.
func New(dir string) (*FS, error) {
	fsys := &FS{root: filepath.Clean(dir), entries: map[string]*file{}, last: map[Mode]map[string][]byte{}}
	list, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range list {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		fsys.entries[e.Name()] = &file{data: data, synced: data}
	}
	fsys.durable = maps.Clone(fsys.entries)
	return fsys, nil
}

// Ops returns the number of operations performed so far.
func (fsys *FS) Ops() int {
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	return len(fsys.ops)
}

// Log returns the operations performed so far.
func (fsys *FS) Log() []Op {
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	return append([]Op(nil), fsys.ops...)
}

// Capture starts recording crash images, beginning with the state now.
func (fsys *FS) Capture() {
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	fsys.capture = true
	fsys.snapshot()
}

// Crashes returns the crash images recorded since Capture.
func (fsys *FS) Crashes() []Crash {
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	return append([]Crash(nil), fsys.crashes...)
}

// FailAt makes operation number k (1-based, counted from the FS's creation)
// fail with err, once; operations after it succeed again.
func (fsys *FS) FailAt(k int, err error) {
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	fsys.failAt, fsys.failErr, fsys.failed = k, err, false
}

// Failed reports whether the operation chosen by FailAt has been reached.
func (fsys *FS) Failed() bool {
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	return fsys.failed
}

// Image returns what a crash now would leave under mode.
func (fsys *FS) Image(mode Mode) map[string][]byte {
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	return fsys.image(mode)
}

func (fsys *FS) image(mode Mode) map[string][]byte {
	dir := fsys.entries
	if mode == Synced {
		dir = fsys.durable
	}
	out := make(map[string][]byte, len(dir))
	for name, f := range dir {
		switch mode {
		case Synced:
			out[name] = f.synced
		case Everything:
			out[name] = f.data
		case Torn:
			keep := 0
			for keep < len(f.synced) && keep < len(f.data) && f.synced[keep] == f.data[keep] {
				keep++
			}
			out[name] = f.data[:keep+(len(f.data)-keep)/2]
		}
	}
	return out
}

// snapshot records the crash images that differ from the last recorded
// one of their mode. Byte slices are never modified in place (writes and
// truncations build new ones), so images share them.
func (fsys *FS) snapshot() {
	c := Crash{After: len(fsys.ops)}
	if c.After > 0 {
		c.Op = fsys.ops[c.After-1]
	}
	for _, mode := range []Mode{Synced, Everything, Torn} {
		img := fsys.image(mode)
		if prev, ok := fsys.last[mode]; ok && sameImage(prev, img) {
			continue
		}
		fsys.last[mode] = img
		c.Mode, c.Files = mode, img
		fsys.crashes = append(fsys.crashes, c)
	}
}

func sameImage(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, data := range a {
		if other, ok := b[name]; !ok || !bytes.Equal(data, other) {
			return false
		}
	}
	return true
}

// name maps a path to its entry name; the FS serves one flat directory.
func (fsys *FS) name(path string) string {
	if filepath.Dir(filepath.Clean(path)) != fsys.root {
		panic(fmt.Sprintf("waltest: %s is not directly inside %s", path, fsys.root))
	}
	return filepath.Base(path)
}

// do counts one operation and either fails it as planned (fail, which
// may be nil, applies a failed operation's partial effect) or applies it.
func (fsys *FS) do(kind Kind, name string, apply func() error, fail func()) error {
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	return fsys.doLocked(kind, name, apply, fail)
}

func (fsys *FS) doLocked(kind Kind, name string, apply func() error, fail func()) error {
	fsys.ops = append(fsys.ops, Op{kind, name})
	var err error
	if len(fsys.ops) == fsys.failAt {
		fsys.failed = true
		if fail != nil {
			fail()
		}
		err = fmt.Errorf("waltest: injected at op %d (%s %s): %w", fsys.failAt, kind, name, fsys.failErr)
	} else {
		err = apply()
	}
	if fsys.capture {
		fsys.snapshot()
	}
	return err
}

// OpenAppend implements wal.FS.
func (fsys *FS) OpenAppend(path string) (wal.File, error) {
	return fsys.openFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND)
}

// Create implements wal.FS.
func (fsys *FS) Create(path string) (wal.File, error) {
	return fsys.openFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
}

func (fsys *FS) openFile(path string, flag int) (wal.File, error) {
	name := fsys.name(path)
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	kind := OpCreate
	if fsys.entries[name] != nil && flag&os.O_TRUNC == 0 {
		kind = OpOpen
	}
	var h *handle
	err := fsys.doLocked(kind, name, func() error {
		real, err := os.OpenFile(path, flag, 0o644)
		if err != nil {
			return err
		}
		f := fsys.entries[name]
		if f == nil {
			f = &file{}
			fsys.entries[name] = f
		}
		if flag&os.O_TRUNC != 0 {
			f.data = nil
		}
		h = &handle{fsys: fsys, name: name, f: f, real: real}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Rename implements wal.FS.
func (fsys *FS) Rename(oldpath, newpath string) error {
	from, to := fsys.name(oldpath), fsys.name(newpath)
	return fsys.do(OpRename, to, func() error {
		if err := os.Rename(oldpath, newpath); err != nil {
			return err
		}
		fsys.entries[to] = fsys.entries[from]
		delete(fsys.entries, from)
		return nil
	}, nil)
}

// Remove implements wal.FS.
func (fsys *FS) Remove(path string) error {
	name := fsys.name(path)
	return fsys.do(OpRemove, name, func() error {
		if err := os.Remove(path); err != nil {
			return err
		}
		delete(fsys.entries, name)
		return nil
	}, nil)
}

// Truncate implements wal.FS.
func (fsys *FS) Truncate(path string, size int64) error {
	name := fsys.name(path)
	return fsys.do(OpTruncate, name, func() error {
		if err := os.Truncate(path, size); err != nil {
			return err
		}
		if f := fsys.entries[name]; f != nil && int64(len(f.data)) > size {
			f.data = f.data[:size:size]
		}
		return nil
	}, nil)
}

// SyncDir implements wal.FS.
func (fsys *FS) SyncDir(dir string) error {
	if filepath.Clean(dir) != fsys.root {
		panic(fmt.Sprintf("waltest: %s is not %s", dir, fsys.root))
	}
	return fsys.do(OpSyncDir, "", func() error {
		fsys.durable = maps.Clone(fsys.entries)
		return nil
	}, nil)
}

// handle is an open file of an FS.
type handle struct {
	fsys *FS
	name string
	f    *file
	real *os.File
}

func (h *handle) Write(p []byte) (int, error) {
	n := len(p)
	write := func(p []byte) error {
		if _, err := h.real.Write(p); err != nil {
			return err
		}
		h.f.data = append(h.f.data[:len(h.f.data):len(h.f.data)], p...)
		return nil
	}
	err := h.fsys.do(OpWrite, h.name, func() error { return write(p) }, func() {
		n = len(p) / 2
		if err := write(p[:n]); err != nil {
			panic(err)
		}
	})
	if err != nil {
		return n, err
	}
	return len(p), nil
}

func (h *handle) Sync() error {
	return h.fsys.do(OpSync, h.name, func() error {
		h.f.synced = h.f.data
		return nil
	}, nil)
}

// Close is not a counted operation: it changes nothing on disk.
func (h *handle) Close() error { return h.real.Close() }
