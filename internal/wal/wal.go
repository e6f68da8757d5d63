// Package wal is the repository's one durable append-only log: the
// coordinator's epoch journal (internal/audit, epochs.wal) and the
// archive's manifest (internal/archive, MANIFEST) are both a wal.Log, and
// nothing else in the tree frames records, batches fsyncs, recovers a torn
// file or decides what a failed write means.
//
// # Framing
//
// A log file is a sequence of frames with nothing before, between or after
// them:
//
//	uint32 BE body length | uint32 BE CRC-32 (IEEE) of body | body
//
// (FrameHeaderSize = 8 bytes of header). A body is 1 … maxBody bytes; the
// bound is the client's (wire.MaxDistFrame for the journal,
// archive.MaxRecordSize for the manifest) and a length outside it is never
// allocated. What a body means is the client's business.
//
// # Open: replay, compact, position
//
// Open reads the file (a missing file is an empty log) and hands the body
// of each frame of the valid prefix to the client's apply function, in
// order. The prefix ends at the first frame that is short, has a length
// of zero or above maxBody, fails its checksum, or that apply rejects by
// returning false — a record that checksums but that the client cannot
// decode or cannot mean; bytes after that point are never interpreted.
// Open then asks the client for its compact image — the frames that
// describe the state it just rebuilt — and, when the image differs from
// the file's bytes (a torn tail, a rejected record, records the client no
// longer needs), durably replaces the file with it (WriteFileDurable:
// temp file, fsync, rename, directory fsync). Appends therefore never land
// behind garbage, and the file stays bounded by live state. The rule is
// bytes, not lengths: an image of the same size as the file still replaces
// it when the content differs.
//
// The append handle is opened — and the file created — by the first
// Append, so a log that is only read (an archive on read-only media) never
// needs write access.
//
// # Group commit
//
// Append writes one frame and returns; an fsync pass runs when
// GroupCommitRecords (16) records have accumulated or GroupCommitInterval
// (50 ms) has passed since the last pass, checked at each Append, and
// whenever the client calls Sync or Close. The two are constants, not
// options: nothing in the repository ever needed other values. A pass fsyncs, in
// this order: every Payload file with unsynced writes, the log file, and —
// when a file was opened, and so possibly created, since the last pass —
// the directory, once. A record that indexes payload bytes is therefore
// never durable before them, and a file that Sync reported durable cannot
// lose its directory entry. The unit of atomicity is the pass: after a
// crash the log recovers to a prefix of what was appended that contains at
// least everything appended before the last pass that returned nil.
//
// # Failure policy
//
// There is one. The first failed operation is returned to the caller and
// nothing is retried. At Open that is a failed read or a failed step of
// the compaction (temp-file write or fsync, rename, directory fsync): Open
// fails, and the file is the old one or the new one, whole. After Open it
// is a failed open-for-append, write (short writes included), fsync or
// directory fsync, and it stays sticky: every later Append, Payload.Write,
// Sync and Close returns that same error without touching the disk. A
// failed write can leave a torn frame, or payload bytes no record indexes,
// at the end of an O_APPEND file; anything appended after it would be
// unreachable by replay while the writer believed it durable. Reads are
// unaffected, and the file reopens to the acknowledged prefix. What a
// client does with the error is its own policy: the archive returns it
// from every append, the journal counts it and lets audits continue
// un-journaled.
//
// # Crash model
//
// internal/wal/waltest implements FS with the model the tests enumerate
// crash points under: a file's bytes are durable up to its last fsync, a
// directory entry (creation, rename) is durable once the directory has
// been fsynced, and a crash may additionally keep any part of the
// unsynced bytes. Reads do not go through FS; recovery reads with package
// os.
//
// A Log is not safe for concurrent use; its client serializes calls.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

const (
	// FrameHeaderSize is the fixed prefix of every frame: body length and
	// CRC-32 of the body, both uint32 big-endian.
	FrameHeaderSize = 8
	// GroupCommitRecords is the number of records appended since the last
	// fsync pass that forces the next one.
	GroupCommitRecords = 16
	// GroupCommitInterval is the time since the last fsync pass after which
	// the next Append runs one.
	GroupCommitInterval = 50 * time.Millisecond
)

// File is the write side of an open file.
type File interface {
	io.WriteCloser
	Sync() error
}

// FS is the write side of a filesystem: every operation through which the
// log, its payload files and its clients change what is on disk. OS is the
// real one; waltest.FS injects faults and crashes.
type FS interface {
	// OpenAppend opens path write-only in append mode, creating it when it
	// does not exist.
	OpenAppend(path string) (File, error)
	// Create opens path write-only, created or truncated to empty.
	Create(path string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// Truncate cuts path to size bytes.
	Truncate(path string, size int64) error
	// SyncDir makes dir's entries durable.
	SyncDir(dir string) error
}

// OS is the FS behind every log outside tests: package os.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenAppend(path string) (File, error) {
	return osFile(os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644))
}

func (osFS) Create(path string) (File, error) {
	return osFile(os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644))
}

// osFile keeps a nil *os.File from becoming a non-nil File.
func osFile(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error               { return os.Remove(path) }
func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (osFS) SyncDir(dir string) error {
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

// AppendFrame appends body's frame — length, CRC-32, body — to dst.
func AppendFrame(dst, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	return append(dst, body...)
}

// Replay hands the body of each frame of raw's valid prefix to apply and
// returns the prefix's length in bytes. It is the read-only half of Open.
func Replay(raw []byte, maxBody uint32, apply func(body []byte) bool) int {
	off := 0
	for len(raw)-off >= FrameHeaderSize {
		n := binary.BigEndian.Uint32(raw[off:])
		sum := binary.BigEndian.Uint32(raw[off+4:])
		body := raw[off+FrameHeaderSize:]
		if n == 0 || n > maxBody || uint64(n) > uint64(len(body)) {
			break
		}
		body = body[:n]
		if crc32.ChecksumIEEE(body) != sum || !apply(body) {
			break
		}
		off += FrameHeaderSize + int(n)
	}
	return off
}

// WriteFileDurable atomically replaces path with data: write a temp file
// beside it, fsync it, rename it over path, fsync the directory. A plain
// write-then-rename can leave an empty or truncated file after a crash,
// which for a log would silently drop every record it held.
func WriteFileDurable(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
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
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp) // best effort; the next compaction truncates it
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// errClosed is the sticky error of a closed log.
var errClosed = errors.New("wal: log is closed")

// Log is an open log file positioned for append.
type Log struct {
	fsys     FS
	path     string
	maxBody  uint32
	f        File // append handle; nil until the first Append
	payloads []*Payload
	size     int64
	pending  int  // records appended since the last fsync pass
	opened   bool // a file was opened, so possibly created, since the last directory fsync
	syncs    int64
	lastSync time.Time
	err      error // sticky; see the package comment's failure policy
}

// Open replays the log file at path through apply, durably rewrites it as
// image() when that differs from the file's bytes, and returns the log
// ready for Append. image is called once, after the last apply.
func Open(fsys FS, path string, maxBody uint32, apply func(body []byte) bool, image func() []byte) (*Log, error) {
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	Replay(raw, maxBody, apply)
	compact := image()
	if !bytes.Equal(compact, raw) {
		if err := WriteFileDurable(fsys, path, compact); err != nil {
			return nil, fmt.Errorf("wal: compacting %s: %w", path, err)
		}
	}
	return &Log{fsys: fsys, path: path, maxBody: maxBody, size: int64(len(compact)), lastSync: time.Now()}, nil
}

// fail records the log's first failure and returns it.
func (l *Log) fail(op, path string, err error) error {
	l.err = fmt.Errorf("wal: %s %s: %w", op, path, err)
	return l.err
}

// open opens an append handle and notes that the directory may have
// gained an entry.
func (l *Log) open(path string) (File, error) {
	f, err := l.fsys.OpenAppend(path)
	if err != nil {
		return nil, l.fail("opening", path, err)
	}
	l.opened = true
	return f, nil
}

// Append writes one record and runs an fsync pass when the group-commit
// policy says so.
func (l *Log) Append(body []byte) error {
	if l.err != nil {
		return l.err
	}
	if len(body) == 0 || uint64(len(body)) > uint64(l.maxBody) {
		return fmt.Errorf("wal: %d-byte record outside (0, %d]", len(body), l.maxBody)
	}
	if l.f == nil {
		f, err := l.open(l.path)
		if err != nil {
			return err
		}
		l.f = f
	}
	frame := AppendFrame(nil, body)
	if _, err := l.f.Write(frame); err != nil {
		return l.fail("writing", l.path, err)
	}
	l.size += int64(len(frame))
	l.pending++
	if l.pending >= GroupCommitRecords || time.Since(l.lastSync) >= GroupCommitInterval {
		return l.Sync()
	}
	return nil
}

// Sync runs an fsync pass now: dirty payload files, then the log file,
// then the directory if a file was opened since the last pass.
func (l *Log) Sync() error {
	if l.err != nil {
		return l.err
	}
	for _, p := range l.payloads {
		if !p.dirty {
			continue
		}
		if err := p.f.Sync(); err != nil {
			return l.fail("syncing", p.path, err)
		}
		p.dirty = false
	}
	if l.pending > 0 {
		if err := l.f.Sync(); err != nil {
			return l.fail("syncing", l.path, err)
		}
		l.pending = 0
		l.syncs++
	}
	if l.opened {
		dir := filepath.Dir(l.path)
		if err := l.fsys.SyncDir(dir); err != nil {
			return l.fail("syncing", dir, err)
		}
		l.opened = false
	}
	l.lastSync = time.Now()
	return nil
}

// Close runs a last fsync pass and releases every handle. It returns the
// log's sticky error if it has one; closing twice is harmless.
func (l *Log) Close() error {
	if l.err == errClosed {
		return nil
	}
	err := l.Sync()
	for _, p := range l.payloads {
		if cerr := p.f.Close(); err == nil {
			err = cerr
		}
	}
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
	}
	l.payloads, l.f, l.err = nil, nil, errClosed
	return err
}

// Size returns the log file's length in bytes.
func (l *Log) Size() int64 { return l.size }

// Syncs returns how many fsync passes have made records durable.
func (l *Log) Syncs() int64 { return l.syncs }

// Payload is an append-only file beside the log holding bytes that the
// log's records index. Its writes share the log's fsync passes — payload
// first, record second — and the log's sticky failure.
type Payload struct {
	l     *Log
	path  string
	f     File
	dirty bool
}

// Payload opens the file name in the log's directory for appending,
// creating it when it does not exist.
func (l *Log) Payload(name string) (*Payload, error) {
	if l.err != nil {
		return nil, l.err
	}
	p := &Payload{l: l, path: filepath.Join(filepath.Dir(l.path), name)}
	f, err := l.open(p.path)
	if err != nil {
		return nil, err
	}
	p.f = f
	l.payloads = append(l.payloads, p)
	return p, nil
}

// Write appends b to the payload file; the next fsync pass makes it
// durable before any record appended after this call.
func (p *Payload) Write(b []byte) error {
	if p.l.err != nil {
		return p.l.err
	}
	if _, err := p.f.Write(b); err != nil {
		return p.l.fail("writing", p.path, err)
	}
	p.dirty = true
	return nil
}
