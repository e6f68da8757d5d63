package main

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/archive"
	"repro/internal/audit"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
)

// party is what an auditor of one node holds besides the archive: the
// configured auditor (keys, reference image, reference RNG seed) and the
// collected authenticators, which travel with a recording rather than in
// the archive.
type party struct {
	node  sig.NodeID
	idx   uint32
	a     *audit.Auditor
	auths []tevlog.Authenticator
}

// parties assembles the auditor-side material for the workload's nodes.
func parties(rec *recording, nodes []int) ([]*party, error) {
	var out []*party
	for _, idx := range nodes {
		a, err := rec.auditor(idx)
		if err != nil {
			return nil, err
		}
		auths, err := rec.auths(idx)
		if err != nil {
			return nil, err
		}
		out = append(out, &party{node: rec.mons[idx].Node(), idx: uint32(idx), a: a, auths: auths})
	}
	return out, nil
}

// verdict is an audit outcome reduced to what the oracle compares.
type verdict struct {
	passed bool
	fault  *audit.FaultReport
	replay audit.ReplayStats
	syn    audit.SyntacticStats
	// epochs is how many epochs (spot check: segments) the audit covered.
	epochs int
	// peakResident is the stream engine's high-water mark of decoded
	// entries alive at once (0 on the other engines).
	peakResident int
	err          error
}

func fromResult(res *audit.Result, epochs int, err error) verdict {
	if err != nil || res == nil {
		return verdict{err: fmt.Errorf("audit did not complete: %w", err)}
	}
	return verdict{passed: res.Passed, fault: res.Fault, replay: res.Replay, syn: res.Syntactic, epochs: epochs}
}

// same reports whether two full audits of one recording reached the same
// verdict with identical replay and syntactic statistics.
func (v verdict) same(ref verdict) bool {
	return v.err == nil && ref.err == nil && v.passed == ref.passed &&
		v.replay == ref.replay && v.syn == ref.syn
}

func (v verdict) String() string {
	switch {
	case v.err != nil:
		return "error: " + v.err.Error()
	case v.passed:
		return fmt.Sprintf("pass (%d instructions, %d entries)", v.replay.Instructions, v.syn.Entries)
	case v.fault != nil:
		return fmt.Sprintf("fault (%s): %s", v.fault.Check, v.fault.Detail)
	default:
		return "fail"
	}
}

// materializer folds start states from an archive's increments.
func materializer(inc snapshot.IncrementSource) func(uint32) (*snapshot.Restored, error) {
	return func(k uint32) (*snapshot.Restored, error) { return snapshot.MaterializeFrom(inc, int(k)) }
}

// memoMaterializer is materializer with the folded states kept, for the
// oracle's back-to-back engines over one recording. Audits never mutate a
// Restored.
func memoMaterializer(inc snapshot.IncrementSource) func(uint32) (*snapshot.Restored, error) {
	var mu sync.Mutex
	states := make(map[uint32]*snapshot.Restored)
	return func(k uint32) (*snapshot.Restored, error) {
		mu.Lock()
		st, ok := states[k]
		mu.Unlock()
		if ok {
			return st, nil
		}
		st, err := snapshot.MaterializeFrom(inc, int(k))
		if err == nil {
			mu.Lock()
			states[k] = st
			mu.Unlock()
		}
		return st, err
	}
}

// auditStream is the timed operation of game and minisql: open the
// archive and audit the node on the stream engine with one replay worker,
// entries and start states read from disk.
func auditStream(dir string, p *party) verdict {
	arc, err := archive.Open(dir)
	if err != nil {
		return verdict{err: err}
	}
	defer arc.Close()
	src, err := arc.EntrySource(string(p.node))
	if err != nil {
		return verdict{err: err}
	}
	inc, err := arc.IncrementSource(string(p.node))
	if err != nil {
		return verdict{err: err}
	}
	res, stats, err := p.a.Audit(audit.AuditRequest{
		Node: p.node, NodeIdx: p.idx, Engine: audit.EngineStream, Source: src, Auths: p.auths,
		Options: audit.EngineOptions{Workers: 1, Materialize: materializer(inc)},
	})
	v := fromResult(res, stats.Stream.Epochs, err)
	v.peakResident = stats.Stream.PeakResidentEntries
	return v
}

// auditSpot is the timed operation of kvstate: a fresh ArchiveSource, so
// no folded state carries over from an earlier repetition, and a serial
// spot check of every fourth segment. A spot check reports no statistics;
// its verdict is pass or fault and the number of segments it inspected.
func auditSpot(dir string, p *party) verdict {
	arc, err := archive.Open(dir)
	if err != nil {
		return verdict{err: err}
	}
	defer arc.Close()
	src := &audit.ArchiveSource{Arc: arc, Node: p.node, NodeIdx: p.idx, Auths: p.auths}
	out, err := p.a.SpotCheckParallel(src, everyFourth{}, 1)
	if err != nil {
		return verdict{err: err}
	}
	return verdict{passed: !out.FaultFound, fault: out.FirstFault, epochs: out.SegmentsChecked}
}

// readLog opens the archive and returns the node's chain-verified log
// and increment source, for the engines that take a materialised slice.
// The caller closes the archive.
func readLog(dir string, p *party) (*archive.Archive, []tevlog.Entry, snapshot.IncrementSource, error) {
	arc, err := archive.Open(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	entries, err := arc.ReadLog(string(p.node))
	if err != nil {
		arc.Close()
		return nil, nil, nil, err
	}
	inc, err := arc.IncrementSource(string(p.node))
	if err != nil {
		arc.Close()
		return nil, nil, nil, err
	}
	return arc, entries, inc, nil
}

// auditEntries audits a materialised log on one of the slice-taking
// engines: serial, parallel, or dist on the in-process pool.
func auditEntries(p *party, engine audit.Engine, entries []tevlog.Entry, materialize func(uint32) (*snapshot.Restored, error)) verdict {
	res, stats, err := p.a.Audit(audit.AuditRequest{
		Node: p.node, NodeIdx: p.idx, Engine: engine, Entries: entries, Auths: p.auths,
		Options: audit.EngineOptions{Workers: runtime.NumCPU(), Materialize: materialize},
	})
	return fromResult(res, stats.Dist.Epochs, err)
}

// auditSerial is the reference every other verdict is compared with: the
// node's log read back from the archive and audited from boot on the
// serial engine.
func auditSerial(dir string, p *party) verdict {
	arc, entries, _, err := readLog(dir, p)
	if err != nil {
		return verdict{err: err}
	}
	defer arc.Close()
	return auditEntries(p, audit.EngineSerial, entries, nil)
}
