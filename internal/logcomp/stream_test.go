package logcomp

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tevlog"
)

// legacyCompress is the original batch encoder, kept verbatim as a test
// oracle: EntryWriter must keep producing bit-identical containers, so logs
// compressed by older builds stay decodable and vice versa.
func legacyCompress(entries []tevlog.Entry) []byte {
	if len(entries) == 0 {
		return append(magic[:], 0, 0, 0, 0)
	}
	var seqs, types, lens, contents []byte
	prev := entries[0].Seq - 1
	for i := range entries {
		e := &entries[i]
		seqs = binary.AppendUvarint(seqs, e.Seq-prev)
		prev = e.Seq
		types = append(types, byte(e.Type))
		lens = binary.AppendUvarint(lens, uint64(len(e.Content)))
		contents = append(contents, e.Content...)
	}
	out := make([]byte, 0, len(contents)/2+64)
	out = append(out, magic[:]...)
	var countBuf [4]byte
	binary.BigEndian.PutUint32(countBuf[:], uint32(len(entries)))
	out = append(out, countBuf[:]...)
	for _, col := range [][]byte{seqs, types, lens, contents} {
		comp := Flate(col)
		out = binary.AppendUvarint(out, uint64(len(comp)))
		out = append(out, comp...)
	}
	return out
}

func entriesEqual(a, b []tevlog.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Type != b[i].Type || !bytes.Equal(a[i].Content, b[i].Content) {
			return false
		}
	}
	return true
}

// readAll drains an EntryReader.
func readAll(t *testing.T, data []byte) ([]tevlog.Entry, error) {
	t.Helper()
	r, err := NewEntryReader(data)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []tevlog.Entry
	for {
		e, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

// TestStreamingRoundTripEquivalence: EntryWriter→EntryReader round-trips
// arbitrary entry sequences identically to CompressEntries→DecompressEntries,
// and both encoders emit bit-identical containers.
func TestStreamingRoundTripEquivalence(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		entries := randomEntries(rng, int(nRaw%120))

		w := NewEntryWriter()
		for i := range entries {
			if err := w.Add(&entries[i]); err != nil {
				return false
			}
		}
		streamed, err := w.Bytes()
		if err != nil {
			return false
		}
		batch := CompressEntries(entries)
		if !bytes.Equal(streamed, batch) {
			return false
		}
		if !bytes.Equal(streamed, legacyCompress(entries)) {
			return false
		}

		fromStream, err := readAll(t, streamed)
		if err != nil {
			return false
		}
		fromBatch, err := DecompressEntries(batch)
		if err != nil {
			return false
		}
		return entriesEqual(fromStream, entries) && entriesEqual(fromBatch, entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryReaderEmpty(t *testing.T) {
	w := NewEntryWriter()
	data, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	out, err := readAll(t, data)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty container: entries=%d err=%v", len(out), err)
	}
}

// TestEntryReaderPreciseTruncationErrors: every truncation point yields an
// error (never a short success), and header-level cuts name the column.
func TestEntryReaderPreciseTruncationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	entries := randomEntries(rng, 64)
	data := CompressEntries(entries)
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecompressEntries(data[:cut]); err == nil {
			t.Fatalf("truncation at byte %d of %d decoded without error", cut, len(data))
		}
	}
}

// TestEntryReaderRejectsTrailingColumnBytes: a container whose columns hold
// more rows than the declared count is rejected.
func TestEntryReaderRejectsTrailingColumnBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	entries := randomEntries(rng, 10)
	data := CompressEntries(entries)
	// Lower the declared count; every column now has trailing rows.
	binary.BigEndian.PutUint32(data[4:8], 9)
	if _, err := DecompressEntries(data); err == nil {
		t.Fatal("container with undercounted rows decoded without error")
	}
}

// TestEntryReaderIncremental: entries arrive one Next at a time, in order,
// before the reader has been drained.
func TestEntryReaderIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	entries := randomEntries(rng, 33)
	r, err := NewEntryReader(CompressEntries(entries))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := range entries {
		e, err := r.Next()
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if e.Seq != entries[i].Seq || e.Type != entries[i].Type || !bytes.Equal(e.Content, entries[i].Content) {
			t.Fatalf("entry %d differs", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last entry: err=%v, want io.EOF", err)
	}
}

// TestPooledFlateStateIsFresh: compressors and decompressors handed back by
// one container — after a clean end, a corrupt column, an empty writer or a
// second Close — serve the next exactly as new ones: the same bytes as the
// legacy encoder, the same entries, and no decompressor shared by two live
// readers.
func TestPooledFlateStateIsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b := randomEntries(rng, 40), randomEntries(rng, 70)
	for round := 0; round < 4; round++ {
		if _, err := NewEntryWriter().Bytes(); err != nil {
			t.Fatal(err)
		}
		dataA, dataB := CompressEntries(a), CompressEntries(b)
		if !bytes.Equal(dataA, legacyCompress(a)) || !bytes.Equal(dataB, legacyCompress(b)) {
			t.Fatalf("round %d: a container from pooled compressors differs from a fresh one", round)
		}
		if _, err := DecompressEntries(dataA[:len(dataA)-5]); err == nil {
			t.Fatalf("round %d: a truncated container decoded", round)
		}
		closedTwice, err := NewEntryReader(dataA)
		if err != nil {
			t.Fatal(err)
		}
		closedTwice.Close()
		closedTwice.Close()

		ra, err := NewEntryReader(dataA)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := NewEntryReader(dataB)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b {
			for _, c := range []struct {
				r    *EntryReader
				want []tevlog.Entry
			}{{ra, a}, {rb, b}} {
				if i >= len(c.want) {
					continue
				}
				e, err := c.r.Next()
				if err != nil || !entriesEqual([]tevlog.Entry{e}, c.want[i:i+1]) {
					t.Fatalf("round %d, entry %d: %v, or the entry differs", round, i, err)
				}
			}
		}
		ra.Close()
		rb.Close()
	}
}
