// Package logcomp implements the two-stage log compression of paper §6.4: a
// general-purpose compressor (the paper uses bzip2; we use stdlib flate)
// plus "a lossless, VMM-specific (but application-independent) compression
// algorithm". Together they bring the AVMM log from ~8 MB/minute to ~2.5
// MB/minute for the game workload.
//
// The VMM-specific stage is column-oriented: a log is a stream of entries
// whose sequence numbers are consecutive, whose types repeat heavily, and
// whose contents (clock values, landmarks) are near-monotonic counters.
// Splitting the fields into separate streams and delta/varint-coding each
// exposes this structure to the entropy coder far better than compressing
// the row-major serialization.
package logcomp

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"

	"repro/internal/tevlog"
)

// Flate compresses raw bytes with the general-purpose stage only (the
// paper's bzip2 baseline).
//
// Invariant: flate.NewWriter only fails on an invalid level (ours is the
// constant BestCompression) and a flate.Writer writing into a bytes.Buffer
// cannot return an error (bytes.Buffer.Write never does; it panics on OOM
// like any allocation). Flate therefore has no error to return; the panics
// below guard the invariant rather than signal recoverable conditions.
func Flate(data []byte) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		panic(fmt.Sprintf("logcomp: flate writer: %v", err)) // level is constant and valid
	}
	if _, err := w.Write(data); err != nil {
		panic(fmt.Sprintf("logcomp: compressing to memory: %v", err))
	}
	if err := w.Close(); err != nil {
		panic(fmt.Sprintf("logcomp: closing flate writer: %v", err))
	}
	return buf.Bytes()
}

// Unflate reverses Flate.
func Unflate(data []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("logcomp: decompressing: %w", err)
	}
	return out, nil
}

// magic identifies the columnar container format.
var magic = [4]byte{'A', 'V', 'L', '1'}

// CompressEntries applies the VMM-specific columnar transform to a segment
// and then flate-compresses each column. The result decodes back to the
// identical entry sequence (chain hashes excluded; they are recomputable),
// numbered from 1: a segment that starts later keeps its gaps, and its
// reader adds the offset back, as the archive does.
// It is a thin wrapper over EntryWriter, which streams the same encoding;
// the two produce bit-identical containers. Like Flate, it writes only to
// memory, where compression cannot fail (the invariant documented there).
func CompressEntries(entries []tevlog.Entry) []byte {
	// Column 1: sequence numbers, delta-coded (all-consecutive logs collapse
	// to a run of 1s). Column 2: types. Column 3: content lengths as
	// varints. Column 4: concatenated contents.
	w := NewEntryWriter()
	for i := range entries {
		if err := w.Add(&entries[i]); err != nil {
			panic(fmt.Sprintf("logcomp: compressing to memory: %v", err))
		}
	}
	out, err := w.Bytes()
	if err != nil {
		panic(fmt.Sprintf("logcomp: compressing to memory: %v", err))
	}
	return out
}

// DecompressEntries reverses CompressEntries. It is a thin wrapper over
// EntryReader, which decodes the same container incrementally; truncated or
// trailing column streams are rejected with an error naming the column.
func DecompressEntries(data []byte) ([]tevlog.Entry, error) {
	r, err := NewEntryReader(data)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var entries []tevlog.Entry
	for {
		e, err := r.Next()
		if err == io.EOF {
			return entries, nil
		}
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
}

// Ratio returns compressed/original as a convenience for reporting.
func Ratio(original, compressed int) float64 {
	if original == 0 {
		return 1
	}
	return float64(compressed) / float64(original)
}
