package main

import (
	"fmt"
	"os"
	"path/filepath"

	avm "repro"
	"repro/internal/archive"
	"repro/internal/audit"
	"repro/internal/game"
)

// oracle checks, untimed, that every engine reaches the serial verdict on
// the last recording: stream from the archive, parallel, dist on the
// in-process pool, and on the fleet workload the coordinator (whose timed
// audits were each compared already). The spot check is compared where it
// is the timed operation, and only there: a chunk that ends between a RECV
// and the injection of an older message faults syntactically ("received
// message was never injected", fleet seed 16, node server), which a node
// receiving two messages within a millisecond at a snapshot tick can
// produce and kvstate's one request per 40 ms cannot.
func (r *runner) oracle(rec *recorded) {
	for i, p := range rec.parties {
		ref := rec.refs[i]
		r.rep.check(auditStream(rec.dir, p).same(ref), "%s: stream verdict differs from serial", p.node)

		arc, entries, inc, err := readLog(rec.dir, p)
		if !r.rep.check(err == nil, "%s: reading the archive back: %v", p.node, err) {
			continue
		}
		// One memoised materialiser for both engines: on kvstate a
		// start state is a 16 MiB fold.
		mat := memoMaterializer(inc)
		for _, engine := range []audit.Engine{audit.EngineParallel, audit.EngineDist} {
			v := auditEntries(p, engine, entries, mat)
			r.rep.check(v.same(ref), "%s: %s verdict differs from serial: %s", p.node, engine, v)
		}
		arc.Close()

		if r.w.op == opSpot {
			spot := auditSpot(rec.dir, p)
			r.rep.check(r.agrees(spot, ref, rec.picks), "%s: spot verdict differs from serial: %s", p.node, spot)
		}
	}
}

// guarded runs an audit that is expected to fault and turns a panic into
// an error verdict, so that a panic counts as a miss instead of ending
// the run.
func guarded(fn func() verdict) (v verdict) {
	defer func() {
		if p := recover(); p != nil {
			v = verdict{err: fmt.Errorf("panic: %v", p)}
		}
	}()
	return fn()
}

// flipBit inverts the lowest bit of the byte at off. Calling it twice
// restores the file.
func flipBit(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	var b [1]byte
	if _, err = f.ReadAt(b[:], off); err == nil {
		b[0] ^= 0x01
		_, err = f.WriteAt(b[:], off)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// epochBytes is the total size of the node's archived epoch segments.
func epochBytes(arc *archive.Archive, node string) (int64, error) {
	epochs, err := arc.Epochs(node)
	if err != nil {
		return 0, err
	}
	var total int64
	for k := 0; k < epochs; k++ {
		info, err := arc.EpochInfo(node, k)
		if err != nil {
			return 0, err
		}
		total += info.Bytes
	}
	return total, nil
}

// negativeControls checks, untimed, that tampering is detected and never
// passes or panics. WriteRecording lays a tile out as every snapshot
// increment, then every epoch segment; increment 0 is a full capture, so
// its first MemSize bytes are memory pages every start state folds in.
//   - One bit flipped inside an epoch segment must give a CheckLog fault.
//   - One bit flipped inside increment 0 must give a CheckSnapshot fault,
//     and the spot check, whose segment source reports a failed read as
//     an error, must not pass.
//   - On game, a catalog cheat installed on player1 must give a fault.
func (r *runner) negativeControls(rec *recorded) {
	p := rec.parties[len(rec.parties)-1]
	tile := filepath.Join(rec.dir, string(p.node)+archive.TileSuffix)
	arc, err := archive.Open(rec.dir)
	if !r.rep.check(err == nil, "negative control: %v", err) {
		return
	}
	memSize, _ := arc.MemSize(string(p.node))
	logBytes, _ := epochBytes(arc, string(p.node))
	arc.Close()
	fi, err := os.Stat(tile)
	if !r.rep.check(err == nil && memSize > 0 && logBytes > 0, "negative control: tile of %s: %v", p.node, err) {
		return
	}
	h := r.seed * 0x9E3779B97F4A7C15 // spreads small seeds over the offsets
	controls := []struct {
		what string
		off  int64
		want audit.Check
	}{
		{"epoch segment", fi.Size() - 1 - int64(h%uint64(logBytes)), audit.CheckLog},
		{"snapshot increment 0", int64(h % uint64(memSize)), audit.CheckSnapshot},
	}
	for _, c := range controls {
		if err := flipBit(tile, c.off); !r.rep.check(err == nil, "negative control: flipping byte %d: %v", c.off, err) {
			continue
		}
		v := guarded(func() verdict { return auditStream(rec.dir, p) })
		r.rep.check(v.err == nil && !v.passed && v.fault != nil && v.fault.Check == c.want,
			"negative control: bit flipped in %s of %s at %d: want a %s fault, got %s", c.what, p.node, c.off, c.want, v)
		if r.w.op == opSpot && c.want == audit.CheckSnapshot {
			s := guarded(func() verdict { return auditSpot(rec.dir, p) })
			r.rep.check(!s.passed, "negative control: spot check passed a tampered increment 0 of %s", p.node)
		}
		r.rep.check(flipBit(tile, c.off) == nil, "negative control: restoring byte %d", c.off)
	}

	if r.w.name != "game" {
		return
	}
	cheat := game.Catalog()[0]
	cfg := r.cfg(avm.ModeAVMMRSA)
	cfg.cheat = cheat
	cheated, err := buildGame(cfg)
	if !r.rep.check(err == nil, "negative control: building cheat scenario: %v", err) {
		return
	}
	cheated.run(3 * second)
	ps, err := parties(cheated, r.w.nodes)
	if !r.rep.check(err == nil, "negative control: %v", err) {
		return
	}
	v := guarded(func() verdict {
		return auditEntries(ps[0], audit.EngineSerial, cheated.mons[ps[0].idx].Log.Entries(), nil)
	})
	r.rep.check(v.err == nil && !v.passed && v.fault != nil,
		"negative control: cheat %q on %s: want a fault, got %s", cheat.Name, ps[0].node, v)
}
