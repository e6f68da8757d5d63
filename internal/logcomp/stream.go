package logcomp

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/tevlog"
)

// This file implements the streaming face of the columnar container:
// EntryWriter encodes entries as they are appended, EntryReader decodes
// them one at a time through flate.Readers over the column streams. The
// batch CompressEntries/DecompressEntries functions are thin wrappers, so
// the two paths produce bit-identical containers and identical entry
// sequences by construction.
//
// Streaming matters for the auditor: a multi-hour log decodes in constant
// memory (four ~32 KiB flate windows plus one entry), and the first entry
// is available for chain verification and replay before the bulk of the
// container has even been read.

// columnNames label the four column streams in decode errors.
var columnNames = [4]string{"seq", "type", "len", "content"}

// EntrySource is a sequential supplier of log entries: Next returns the
// next entry or io.EOF at a clean end of log; any other error means the
// underlying encoding is corrupt or truncated, and the consumer treats it
// exactly as a failed container decode. EntryReader implements it over an
// in-memory container; the disk archive implements it over epoch
// segments, which is how the stream engine audits a log that never fits
// in memory.
type EntrySource interface {
	// Next returns the next entry, io.EOF at the end, or a decode error.
	Next() (tevlog.Entry, error)
	// Close releases the source's resources; Next must not be called
	// afterwards.
	Close() error
}

var _ EntrySource = (*EntryReader)(nil)

// EntryWriter incrementally encodes an entry sequence into the columnar
// container. Entries stream through per-column flate compressors as they
// are added, so only the compressed columns are ever resident. Bytes
// finalizes the container.
type EntryWriter struct {
	count   uint32
	prevSeq uint64
	bufs    [4]bytes.Buffer
	comps   [4]*flate.Writer
	scratch [binary.MaxVarintLen64]byte
	err     error
}

// compressors and decompressors keep flate state between containers: a
// BestCompression writer holds about 1 MB of tables, and an archive writes
// a container of four columns per epoch. Reset makes a pooled writer the
// one NewWriter would return at the same level, so the bytes do not
// change, and a pooled reader the one NewReader would return.
var (
	compressors   sync.Pool // *flate.Writer at BestCompression
	decompressors sync.Pool // io.ReadCloser that is a flate.Resetter
)

// NewEntryWriter returns an empty writer.
func NewEntryWriter() *EntryWriter {
	w := &EntryWriter{}
	for i := range w.comps {
		if fw, ok := compressors.Get().(*flate.Writer); ok {
			fw.Reset(&w.bufs[i])
			w.comps[i] = fw
			continue
		}
		fw, err := flate.NewWriter(&w.bufs[i], flate.BestCompression)
		if err != nil {
			panic(fmt.Sprintf("logcomp: flate writer: %v", err)) // level is constant and valid
		}
		w.comps[i] = fw
	}
	return w
}

// writeColumn appends bytes to one column stream, latching the first error.
func (w *EntryWriter) writeColumn(col int, b []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.comps[col].Write(b); err != nil {
		w.err = fmt.Errorf("logcomp: compressing %s column: %w", columnNames[col], err)
	}
}

func (w *EntryWriter) writeUvarint(col int, v uint64) {
	n := binary.PutUvarint(w.scratch[:], v)
	w.writeColumn(col, w.scratch[:n])
}

// Add appends one entry to the container. The entry's chain hash is not
// stored (it is recomputable; see tevlog.Rechain). Errors are sticky.
func (w *EntryWriter) Add(e *tevlog.Entry) error {
	if w.err != nil {
		return w.err
	}
	if w.count == 0 {
		w.prevSeq = e.Seq - 1
	}
	w.writeUvarint(0, e.Seq-w.prevSeq)
	w.prevSeq = e.Seq
	w.writeColumn(1, []byte{byte(e.Type)})
	w.writeUvarint(2, uint64(len(e.Content)))
	w.writeColumn(3, e.Content)
	if w.err == nil {
		w.count++
	}
	return w.err
}

// Bytes closes the column compressors and assembles the container. The
// writer must not be used afterwards.
func (w *EntryWriter) Bytes() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	defer w.release()
	if w.count == 0 {
		return append(magic[:], 0, 0, 0, 0), nil
	}
	out := make([]byte, 0, w.bufs[3].Len()+64)
	out = append(out, magic[:]...)
	var countBuf [4]byte
	binary.BigEndian.PutUint32(countBuf[:], w.count)
	out = append(out, countBuf[:]...)
	for i := range w.comps {
		if err := w.comps[i].Close(); err != nil {
			return nil, fmt.Errorf("logcomp: closing %s column: %w", columnNames[i], err)
		}
		out = binary.AppendUvarint(out, uint64(w.bufs[i].Len()))
		out = append(out, w.bufs[i].Bytes()...)
	}
	return out, nil
}

// release hands the column compressors back for another writer.
func (w *EntryWriter) release() {
	for i, fw := range w.comps {
		compressors.Put(fw)
		w.comps[i] = nil
	}
}

// EntryReader incrementally decodes a columnar container, yielding entries
// one at a time. Column streams are read through flate.Readers, so resident
// memory is four decompressor windows plus the entry being assembled —
// independent of the container's entry count.
type EntryReader struct {
	remaining uint32
	total     uint32
	seq       uint64
	cols      [4]*bufio.Reader
	closers   [4]io.ReadCloser
}

// NewEntryReader parses the container header and opens the column streams.
func NewEntryReader(data []byte) (*EntryReader, error) {
	if len(data) < 8 || !bytes.Equal(data[:4], magic[:]) {
		return nil, errors.New("logcomp: bad magic")
	}
	r := &EntryReader{}
	r.total = binary.BigEndian.Uint32(data[4:8])
	r.remaining = r.total
	data = data[8:]
	if r.total == 0 {
		return r, nil
	}
	for i := range r.cols {
		n, used := binary.Uvarint(data)
		if used <= 0 || uint64(len(data)-used) < n {
			return nil, fmt.Errorf("logcomp: truncated %s column: header claims %d compressed bytes, %d remain",
				columnNames[i], n, max(len(data)-used, 0))
		}
		src := bytes.NewReader(data[used : used+int(n)])
		fr, ok := decompressors.Get().(io.ReadCloser)
		if ok {
			fr.(flate.Resetter).Reset(src, nil) // never fails: there is no dictionary
		} else {
			fr = flate.NewReader(src)
		}
		r.closers[i] = fr
		r.cols[i] = bufio.NewReaderSize(fr, 512)
		data = data[used+int(n):]
	}
	return r, nil
}

// colErr wraps a flate/IO error with the column it came from, normalizing
// the bare EOF a truncated stream surfaces mid-value.
func colErr(col int, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("logcomp: truncated %s column stream", columnNames[col])
	}
	return fmt.Errorf("logcomp: %s column: %w", columnNames[col], err)
}

// Next decodes the next entry. It returns io.EOF after the last entry, once
// every column stream has been verified to be fully consumed.
func (r *EntryReader) Next() (tevlog.Entry, error) {
	if r.remaining == 0 {
		if r.total > 0 {
			if err := r.checkExhausted(); err != nil {
				return tevlog.Entry{}, err
			}
		}
		return tevlog.Entry{}, io.EOF
	}
	d, err := binary.ReadUvarint(r.cols[0])
	if err != nil {
		return tevlog.Entry{}, colErr(0, err)
	}
	if r.remaining == r.total && d != 1 {
		// The writer numbers a container's entries from 1; any other first
		// delta would decode to sequence numbers a re-encode cannot keep.
		return tevlog.Entry{}, fmt.Errorf("logcomp: first sequence delta %d, want 1", d)
	}
	typ, err := r.cols[1].ReadByte()
	if err != nil {
		return tevlog.Entry{}, colErr(1, err)
	}
	n, err := binary.ReadUvarint(r.cols[2])
	if err != nil {
		return tevlog.Entry{}, colErr(2, err)
	}
	if n > uint64(1)<<31 {
		return tevlog.Entry{}, fmt.Errorf("logcomp: implausible content length %d", n)
	}
	content := make([]byte, n)
	if _, err := io.ReadFull(r.cols[3], content); err != nil {
		return tevlog.Entry{}, colErr(3, err)
	}
	r.seq += d
	r.remaining--
	return tevlog.Entry{Seq: r.seq, Type: tevlog.EntryType(typ), Content: content}, nil
}

// checkExhausted verifies that no column stream carries bytes beyond the
// declared entry count — a malformed container the row-by-row decode loop
// would otherwise silently accept.
func (r *EntryReader) checkExhausted() error {
	for i, col := range r.cols {
		if _, err := col.ReadByte(); err != io.EOF {
			if i == 3 {
				return errors.New("logcomp: trailing content bytes")
			}
			return fmt.Errorf("logcomp: trailing bytes in %s column", columnNames[i])
		}
	}
	return nil
}

// Close hands the column decompressors back for another reader. It is safe
// to call at any point, and more than once; entries already returned remain
// valid, and Next must not be called afterwards.
func (r *EntryReader) Close() error {
	for i, c := range r.closers {
		if c != nil {
			c.Close() // flate.Reader.Close only reports already-seen errors
			decompressors.Put(c)
			r.closers[i] = nil
			r.cols[i] = nil
		}
	}
	return nil
}
