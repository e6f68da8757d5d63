package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	avm "repro"
	"repro/internal/archive"
	"repro/internal/audit"
	"repro/internal/logcomp"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
	"repro/internal/wire"
)

// The traced run. Every layer is measured from outside, by timing calls
// into its exported functions inside spans; timers inside the program are
// a later change. A time is reported as the floor over its repetitions,
// like the end-to-end metrics; the detail line carries the quartiles.

// layers carries one traced run.
type layers struct {
	runner
	tr *tracer
}

// repsAfter chooses how many repetitions a measurement gets from the
// duration of its first: at least ten where the driver's time cap allows,
// fewer for the operations that take a large part of a second.
func repsAfter(first time.Duration) int {
	switch {
	case first < 150*time.Millisecond:
		return 10
	case first < 500*time.Millisecond:
		return 5
	default:
		return 3
	}
}

// timed repeats fn inside spans called name and returns the durations in
// seconds. prepare, when non-nil, runs untimed before every repetition.
func (l *layers) timed(name string, prepare, fn func()) []float64 {
	var out []float64
	for rep, n := 0, 1; rep < n; rep++ {
		if prepare != nil {
			prepare()
		}
		runtime.GC()
		l.tr.setRep(rep)
		d := l.tr.do(name, fn)
		if rep == 0 {
			n = repsAfter(d)
		}
		out = append(out, d.Seconds())
	}
	return out
}

// ms and us report the floor of xs (seconds) in milliseconds or, divided
// over ops operations, in microseconds, and keep the spread as detail.
func (l *layers) ms(name string, xs []float64) float64 {
	return l.scaled(name, xs, 1e3, "ms")
}

func (l *layers) us(name string, xs []float64, ops int) float64 {
	return l.scaled(name, xs, 1e6/float64(ops), "us")
}

func (l *layers) scaled(name string, xs []float64, k float64, unit string) float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * k
	}
	l.rep.detail[name] = summarize(ys)
	l.rep.set(name, floor(ys), unit)
	return floor(xs)
}

func (l *layers) count(name string, v float64) { l.rep.set(name, v, "count") }
func (l *layers) pct(name string, v float64)   { l.rep.set(name, v, "%") }

// must aborts the traced run on an error no measurement can survive.
type layerError struct{ err error }

func must(err error) {
	if err != nil {
		panic(layerError{err})
	}
}

// runLayers measures the per-layer metrics of one workload.
func runLayers(w *workload, seed uint64, seconds float64, workdir, traceTo string) (rep *report, err error) {
	l := &layers{runner: runner{w: w, seed: seed, workdir: workdir, rep: newReport(w)}, tr: newTracer()}
	defer l.tearDown()
	defer func() {
		if p := recover(); p != nil {
			le, ok := p.(layerError)
			if !ok {
				panic(p)
			}
			rep, err = nil, le.err
		}
	}()
	begin := time.Now()

	_, err = l.setUp()
	must(err)
	rec, others := l.recordSide()
	dir := l.freshDir("rec")
	l.archiveWrite(rec, dir)
	ps, err := parties(rec, w.nodes)
	must(err)
	target := ps[len(ps)-1]
	mon := rec.mons[target.idx]

	pass := l.auditPasses(dir, target)
	l.engines(dir, target)
	l.logLayers(dir, target, mon)
	l.stateLayers(dir, target, mon, append(others, rec))
	l.wireLayers(dir, target)
	l.fleetLegs(dir, ps)
	l.calibrate(dir)

	// Spend what is left of the measured seconds on more repetitions of
	// the decomposed audit, the spans the attribution is read from.
	for rep := 1000; time.Since(begin).Seconds() < seconds; rep++ {
		runtime.GC()
		l.tr.setRep(rep)
		pass(l.tr)
	}
	l.attribution()

	if traceTo == "" {
		traceTo = filepath.Join(workdir, "trace-"+w.name+".jsonl")
	}
	must(l.tr.writeJSONL(traceTo))
	withParent := 0
	for _, s := range l.tr.spans {
		if s.Parent >= 0 {
			withParent++
		}
	}
	fmt.Printf("# trace: %d spans (%d with a parent) written to %s\n", len(l.tr.spans), withParent, traceTo)
	return l.rep, nil
}

// recordSide times Scenario.Run under the three configurations the
// recording overhead is read from and returns the last full recording
// plus the other recorded scenarios (for snapshot.take_ms).
func (l *layers) recordSide() (rsa *recording, others []*recording) {
	w := l.w
	run := func(mode avm.Mode, span string, reps int) ([]float64, []*recording) {
		var xs []float64
		var recs []*recording
		for i := 0; i < reps; i++ {
			rec, err := w.build(l.cfg(mode))
			must(err)
			runtime.GC()
			l.tr.setRep(i)
			xs = append(xs, l.tr.do(span, func() { rec.run(w.virtualNs) }).Seconds())
			recs = append(recs, rec)
		}
		return xs, recs
	}
	bareX, bareRecs := run(avm.ModeBareHW, "avmm.bare", 3)
	nosigX, nosigRecs := run(avm.ModeAVMMNoSig, "avmm.nosig", 3)
	rsaX, rsaRecs := run(avm.ModeAVMMRSA, "avmm.rsa", 2)
	bare, nosig, full := l.ms("avmm.bare_ms", bareX), l.ms("avmm.nosig_ms", nosigX), l.ms("avmm.rsa_ms", rsaX)
	l.pct("avmm.log_share_pct", 100*(nosig-bare)/full)
	l.pct("avmm.sign_share_pct", 100*(full-nosig)/full)

	rsa = rsaRecs[len(rsaRecs)-1]
	var icount, bareICount, frames, bareFrames uint64
	for _, idx := range w.nodes {
		icount += rsa.mons[idx].Machine.ICount
		bareICount += bareRecs[0].mons[idx].Machine.ICount
		frames += rsa.mons[idx].Devs.Frames
		bareFrames += bareRecs[0].mons[idx].Devs.Frames
	}
	l.pct("avmm.guest_slowdown_pct", 100*(1-float64(icount)/float64(bareICount)))
	// Only the game guests render frames; the other guests report 0.
	drop := 0.0
	if bareFrames > 0 {
		drop = 100 * (1 - float64(frames)/float64(bareFrames))
	}
	l.pct("avmm.fps_drop_pct", drop)
	target := rsa.mons[w.nodes[len(w.nodes)-1]]
	l.rep.set("avmm.entries_per_vs", float64(target.Log.Len())/w.virtualSeconds(), "1/vs")

	// sig: tight loops on one signer and its verifier.
	signer, err := sig.GenerateRSA("bench", keyBits, fmt.Sprintf("bench-%d", l.seed))
	must(err)
	const sigOps = 200
	msg := make([]byte, 40) // an authenticator body: seq plus chain hash
	var signature []byte
	l.us("sig.sign_us", l.timed("sig.sign", nil, func() {
		for i := 0; i < sigOps; i++ {
			signature = signer.Sign(msg)
		}
	}), sigOps)
	verifier := signer.Public()
	l.us("sig.verify_us", l.timed("sig.verify", nil, func() {
		for i := 0; i < sigOps; i++ {
			if !verifier.Verify(msg, signature) {
				must(fmt.Errorf("sig: own signature does not verify"))
			}
		}
	}), sigOps)
	return rsa, append(nosigRecs, rsaRecs[:len(rsaRecs)-1]...)
}

// archiveWrite times WriteRecording+Close into fresh directories and
// leaves the recording archived in dir.
func (l *layers) archiveWrite(rec *recording, dir string) {
	var size int64
	var scratch string
	xs := l.timed("archive.write", func() {
		os.RemoveAll(scratch)
		scratch = l.freshDir("write")
	}, func() {
		var err error
		size, err = writeArchive(scratch, rec, l.w.nodes)
		must(err)
	})
	must(os.Rename(scratch, dir))
	best := l.ms("archive.write_ms", xs)
	l.rep.set("archive.write_mb_s", float64(size)/1e6/best, "MB/s")
	l.rep.set("archive.bytes", float64(size), "B")
}

// replay is the semantic check as auditSerial performs it, called from
// outside: boot the reference image, feed the log, run.
func replay(p *party, entries []tevlog.Entry) (*audit.Replay, error) {
	rp, err := audit.NewReplayFromImage(p.node, p.a.RefImage, p.a.RNGSeed)
	if err != nil {
		return nil, err
	}
	rp.Feed(entries)
	rp.Close()
	rp.Run()
	if f := rp.Fault(); f != nil {
		return nil, f
	}
	return rp, nil
}

// tracedIncrements records a span around every increment read, so that
// archive time shows as a child of the fold that caused it.
type tracedIncrements struct {
	snapshot.IncrementSource
	tr *tracer
}

func (t tracedIncrements) Increment(k int) (s *snapshot.Snapshot, err error) {
	t.tr.do("archive.increment", func() { s, err = t.IncrementSource.Increment(k) })
	return s, err
}

// auditPasses runs the decomposed audits: the three calls auditSerial
// makes, on the log read back from the archive, and on a spot-checked
// workload the calls auditChunk makes per inspected segment. It reports
// the layer times read from them and returns the workload's own pass for
// further repetitions.
func (l *layers) auditPasses(dir string, p *party) func(*tracer) {
	var machine *vm.Machine
	var instructions uint64
	var verifyOps int
	serialPass := func(tr *tracer) {
		tr.do("audit", func() {
			var arc *archive.Archive
			var entries []tevlog.Entry
			tr.do("archive.open", func() {
				var err error
				arc, err = archive.Open(dir)
				must(err)
			})
			defer arc.Close()
			tr.do("archive.read", func() {
				var err error
				entries, err = arc.ReadLog(string(p.node))
				must(err)
			})
			tr.do("tevlog.verify", func() {
				must(tevlog.VerifySegment(tevlog.Hash{}, entries, p.auths, p.a.Keys))
			})
			tr.do("audit.syntactic", func() {
				stats, fault := audit.SyntacticCheck(p.node, entries, audit.SyntacticOptions{
					NodeIdx: p.idx, Keys: p.a.Keys, VerifySignatures: true,
				})
				if fault != nil {
					must(fault)
				}
				verifyOps = stats.SigsVerified + len(p.auths)
			})
			tr.do("audit.replay", func() {
				rp, err := replay(p, entries)
				must(err)
				machine, instructions = rp.Machine(), rp.Stats.Instructions
			})
		})
	}
	spotPass := func(tr *tracer) {
		tr.do("audit.spot", func() {
			var arc *archive.Archive
			tr.do("archive.open", func() {
				var err error
				arc, err = archive.Open(dir)
				must(err)
			})
			defer arc.Close()
			bounds, err := arc.Boundaries(string(p.node))
			must(err)
			inc, err := arc.IncrementSource(string(p.node))
			must(err)
			for _, from := range (everyFourth{}).Pick(len(bounds) - 1) {
				tr.do("audit.chunk", func() {
					var entries []tevlog.Entry
					var start *snapshot.Restored
					tr.do("archive.window", func() {
						entries, err = arc.ReadWindow(string(p.node), from, 1)
						must(err)
					})
					tr.do("snapshot.materialize", func() {
						start, err = snapshot.MaterializeFrom(tracedIncrements{inc, tr}, int(bounds[from].SnapIdx))
						must(err)
					})
					lh := &snapshot.LiveStateHasher{}
					tr.do("snapshot.seedverify", func() { must(lh.SeedVerify(start, bounds[from].Root)) })
					tr.do("tevlog.verify", func() {
						must(tevlog.VerifySegment(bounds[from].EntryHash, entries, p.auths, p.a.Keys))
					})
					tr.do("audit.syntactic", func() {
						_, fault := audit.SyntacticCheck(p.node, entries, audit.SyntacticOptions{
							NodeIdx: p.idx, Keys: p.a.Keys, VerifySignatures: true,
						})
						if fault != nil {
							must(fault)
						}
					})
					tr.do("audit.replay", func() {
						rp, err := audit.NewReplayFromSnapshot(p.node, start, p.a.RNGSeed)
						must(err)
						rp.AdoptStateHasher(lh)
						rp.Feed(entries)
						rp.Close()
						rp.Run()
						if f := rp.Fault(); f != nil {
							must(f)
						}
					})
				})
			}
		})
	}

	// Per repetition: the decomposed pass, then the serial engine on the
	// same log, so that the two share the machine's state of the moment.
	arc, entries, _, err := readLog(dir, p)
	must(err)
	arc.Close()
	var unattributed []float64
	var allocMB float64
	first := l.tr.do("audit.warm", func() { serialPass(nil) })
	for rep, n := 0, repsAfter(first); rep < n; rep++ {
		runtime.GC()
		l.tr.setRep(rep)
		from := len(l.tr.spans)
		serialPass(l.tr)
		parts := 0.0
		for _, s := range l.tr.spans[from:] {
			switch s.Name {
			case "tevlog.verify", "audit.syntactic", "audit.replay":
				parts += float64(s.End-s.Start) / 1e9
			}
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		whole := l.tr.do("audit.serial", func() {
			v := auditEntries(p, audit.EngineSerial, entries, nil)
			if v.err != nil || !v.passed {
				must(fmt.Errorf("serial audit of %s: %s", p.node, v))
			}
		}).Seconds()
		runtime.ReadMemStats(&after)
		allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		unattributed = append(unattributed, 100*(whole-parts)/whole)
	}
	l.ms("archive.open_ms", l.tr.durations("archive.open"))
	read := l.ms("archive.read_ms", l.tr.durations("archive.read"))
	l.ms("tevlog.verify_ms", l.tr.durations("tevlog.verify"))
	l.ms("audit.syntactic_ms", l.tr.durations("audit.syntactic"))
	replayS := l.ms("audit.replay_ms", l.tr.durations("audit.replay"))
	l.ms("audit.serial_ms", l.tr.durations("audit.serial"))
	l.pct("audit.unattributed_pct", summarize(unattributed).Median)
	l.rep.set("audit.alloc_mb", allocMB, "MB")
	l.count("sig.verify_ops", float64(verifyOps))
	l.count("tevlog.entries", float64(len(entries)))
	l.count("tevlog.auths", float64(len(p.auths)))
	l.count("vm.instructions", float64(instructions))
	l.rep.set("vm.minstr_per_s", float64(instructions)/1e6/replayS, "M/s")
	l.rep.set("vm.dispatches_per_instr",
		float64(machine.ICount-machine.FusedPairs-machine.FusedQuads)/float64(machine.ICount), "ratio")
	arc, err = archive.Open(dir)
	must(err)
	logBytes, err := epochBytes(arc, string(p.node))
	must(err)
	arc.Close()
	l.rep.set("archive.read_mb_s", float64(logBytes)/1e6/read, "MB/s")

	// Tracing overhead: the workload's own pass with and without spans.
	pass := serialPass
	if l.w.op == opSpot {
		pass = spotPass
	}
	var traced, untraced []float64
	for rep, n := 0, 1; rep < n; rep++ {
		runtime.GC()
		l.tr.setRep(rep)
		start := time.Now()
		pass(nil)
		d := time.Since(start)
		untraced = append(untraced, d.Seconds())
		runtime.GC()
		start = time.Now()
		pass(l.tr)
		traced = append(traced, time.Since(start).Seconds())
		if rep == 0 {
			n = repsAfter(d)
		}
	}
	l.pct("trace.overhead_pct", 100*(floor(traced)-floor(untraced))/floor(untraced))
	return pass
}

// attribution reads the share of the audit each group of layers holds
// from the self times of the workload's decomposed pass, and prints the
// table the shares come from.
func (l *layers) attribution() {
	root := "audit"
	if l.w.op == opSpot {
		root = "audit.spot"
	}
	byName, total := l.tr.selfByName(root)
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	fmt.Printf("# self time under %q, all repetitions (%.3f s)\n", root, total)
	state := 0.0
	for _, n := range names {
		fmt.Printf("#   %-22s %6.1f %%\n", n, 100*byName[n]/total)
		if strings.HasPrefix(n, "snapshot.") || strings.HasPrefix(n, "archive.") || strings.HasPrefix(n, "merkle.") {
			state += byName[n]
		}
	}
	l.pct("audit.replay_share_pct", 100*byName["audit.replay"]/total)
	l.pct("audit.state_share_pct", 100*state/total)
}

// engines times Auditor.Audit per engine on the same recording.
func (l *layers) engines(dir string, p *party) {
	var peak int
	xs := l.timed("audit.stream", nil, func() {
		v := auditStream(dir, p)
		if v.err != nil || !v.passed {
			must(fmt.Errorf("stream audit of %s: %s", p.node, v))
		}
		peak = v.peakResident
	})
	l.ms("audit.stream_ms", xs)
	l.rep.set("audit.stream_ms_p90", 1e3*summarize(xs).P90, "ms")
	l.count("audit.stream_peak_resident", float64(peak))

	arc, entries, inc, err := readLog(dir, p)
	must(err)
	defer arc.Close()
	// The parallel engine needs a second processor to differ from the
	// serial one; with one, the row reads 0 and is not a measurement.
	if runtime.NumCPU() > 1 {
		l.ms("audit.parallel_ms", l.timed("audit.parallel", nil, func() {
			v := auditEntries(p, audit.EngineParallel, entries, materializer(inc))
			if v.err != nil || !v.passed {
				must(fmt.Errorf("parallel audit of %s: %s", p.node, v))
			}
		}))
	} else {
		l.rep.set("audit.parallel_ms", 0, "ms")
	}

	// One chunk: the last segment the spot policy inspects whose audit
	// passes (see oracle: a chunk can end inside the injection pipeline
	// and fault).
	src := &audit.ArchiveSource{Arc: arc, Node: p.node, NodeIdx: p.idx, Auths: p.auths}
	pts, err := src.Segments()
	must(err)
	picks := (everyFourth{}).Pick(len(pts) - 1)
	for i := len(picks) - 1; ; i-- {
		if i < 0 {
			must(fmt.Errorf("%s: none of the %d inspected segments passes a chunk audit", p.node, len(picks)))
		}
		req, err := src.Chunk(picks[i], 1)
		must(err)
		chunk := func() bool {
			res, _, err := p.a.Audit(audit.AuditRequest{Chunk: &req})
			return err == nil && res.Passed
		}
		if chunk() {
			l.ms("audit.chunk_ms", l.timed("audit.chunk", nil, func() { chunk() }))
			break
		}
	}
}

// logLayers times the tamper-evident log and its codec on the recorded
// contents.
func (l *layers) logLayers(dir string, p *party, mon *avm.Monitor) {
	arc, entries, _, err := readLog(dir, p)
	must(err)
	defer arc.Close()
	scratch := make([]tevlog.Entry, len(entries))
	l.ms("tevlog.rechain_ms", l.timed("tevlog.rechain", func() { copy(scratch, entries) }, func() {
		must(tevlog.Rechain(tevlog.Hash{}, scratch))
	}))
	l.us("tevlog.append_us", l.timed("tevlog.append", nil, func() {
		log := tevlog.New(sig.NullSigner{Node: p.node})
		for i := range entries {
			log.Append(entries[i].Type, entries[i].Content)
		}
	}), len(entries))

	var compressed []byte
	l.ms("logcomp.encode_ms", l.timed("logcomp.encode", nil, func() { compressed = logcomp.CompressEntries(entries) }))
	l.ms("logcomp.decode_ms", l.timed("logcomp.decode", nil, func() {
		_, err := logcomp.DecompressEntries(compressed)
		must(err)
	}))
	l.rep.set("logcomp.ratio", logcomp.Ratio(mon.TotalLogBytes(), len(compressed)), "ratio")

	picks := (everyFourth{}).Pick(mon.Snaps.Count() - 1)
	l.ms("archive.window_ms", l.timed("archive.window", nil, func() {
		for _, from := range picks {
			_, err := arc.ReadWindow(string(p.node), from, 1)
			must(err)
		}
	}))
	var inc snapshot.IncrementSource
	l.ms("archive.increment_ms", l.timed("archive.increment", func() {
		// A fresh source: increments are memoised per source.
		inc, err = arc.IncrementSource(string(p.node))
		must(err)
	}, func() {
		for k := 0; k < inc.Count(); k++ {
			_, err := inc.Increment(k)
			must(err)
		}
	}))
}

// stateLayers times snapshot and merkle on the recorded states.
func (l *layers) stateLayers(dir string, p *party, mon *avm.Monitor, recs []*recording) {
	arc, err := archive.Open(dir)
	must(err)
	defer arc.Close()
	inc, err := arc.IncrementSource(string(p.node))
	must(err)
	n := inc.Count()

	// The start states the workload's audit folds: the inspected
	// segments' on a spot check, every epoch's otherwise. Increments are
	// memoised by now, so this is the fold alone.
	var starts []int
	if l.w.op == opSpot {
		starts = (everyFourth{}).Pick(n - 1)
	} else {
		for k := 0; k < n; k++ {
			starts = append(starts, k)
		}
	}
	var last *snapshot.Restored
	l.ms("snapshot.materialize_ms", l.timed("snapshot.materialize", nil, func() {
		for _, k := range starts {
			last, err = snapshot.MaterializeFrom(inc, k)
			must(err)
		}
	}))
	l.count("snapshot.pages_folded", float64(len(starts)*inc.MemSize()/vm.PageSize))
	l.ms("snapshot.seedverify_ms", l.timed("snapshot.seedverify", nil, func() {
		must((&snapshot.LiveStateHasher{}).SeedVerify(last, last.Root))
	}))

	deltas := make([]*snapshot.Delta, n)
	l.ms("snapshot.delta_ms", l.timed("snapshot.delta", nil, func() {
		for k := 1; k < n; k++ {
			deltas[k], err = snapshot.DeltaFrom(inc, k)
			must(err)
		}
	}))
	base, err := snapshot.MaterializeFrom(inc, 0)
	must(err)
	dirty := 0
	l.ms("snapshot.applydelta_ms", l.timed("snapshot.applydelta", nil, func() {
		state := base
		dirty = 0
		for k := 1; k < n; k++ {
			state, err = snapshot.ApplyDelta(state, deltas[k])
			must(err)
			dirty += len(deltas[k].Pages)
		}
	}))

	mem := mon.Machine.Mem
	hasher := snapshot.StateHasher{Workers: 1}
	hashS := floor(l.timed("merkle.hash", nil, func() { hasher.RootOfState(mem, nil, nil) }))
	l.rep.set("merkle.hash_mb_s", float64(len(mem))/1e6/hashS, "MB/s")

	// One fold of the workload's mean dirty set, spread over the image.
	pages := len(mem) / vm.PageSize
	mean := 1
	if n > 1 && dirty/(n-1) > 1 {
		mean = dirty / (n - 1)
	}
	set := make([]int, mean)
	for i := range set {
		set[i] = i * pages / mean
	}
	live := snapshot.LiveStateHasher{Workers: 1}
	live.Seed(mem, nil, nil)
	const folds = 20
	l.us("merkle.fold_us", l.timed("merkle.fold", nil, func() {
		for i := 0; i < folds; i++ {
			_, err := live.Fold(mem, set, nil, nil)
			must(err)
		}
	}), folds)

	// Taking a snapshot mutates the monitor's log, so it comes last and
	// once per recorded scenario. Each runs on for half a snapshot
	// period first, so that the take captures, hashes and commits half an
	// epoch's dirty pages and not the few left since the last periodic
	// snapshot.
	var takes []float64
	for i, rec := range recs {
		rec.run(l.w.virtualNs + l.w.snapEveryNs/2)
		m := rec.mons[p.idx]
		l.tr.setRep(i)
		takes = append(takes, l.tr.do("snapshot.take", func() {
			_, err := m.TakeSnapshot()
			must(err)
		}).Seconds())
	}
	l.ms("snapshot.take_ms", takes)
}

// wireLayers times the job codecs on a job built from the last start
// state and the epoch that replays from it.
func (l *layers) wireLayers(dir string, p *party) {
	arc, err := archive.Open(dir)
	must(err)
	defer arc.Close()
	inc, err := arc.IncrementSource(string(p.node))
	must(err)
	epochs, err := arc.Epochs(string(p.node))
	must(err)
	k := epochs - 1
	info, err := arc.EpochInfo(string(p.node), k)
	must(err)
	entries, err := arc.ReadEpoch(string(p.node), k)
	must(err)
	start, err := snapshot.MaterializeFrom(inc, int(info.StartSnap))
	must(err)
	delta, err := snapshot.DeltaFrom(inc, int(info.StartSnap))
	must(err)

	job := &wire.AuditJob{
		Index: uint64(k), StartSnap: info.StartSnap, StartSeq: info.StartSeq, StartRoot: info.StartRoot,
		Mem: start.Mem, Machine: start.Machine, Device: start.Device, AuthDevice: start.AuthDevice,
		Entries: entries,
	}
	deltaJob := &wire.AuditDeltaJob{
		Index: uint64(k), StartSnap: info.StartSnap, StartSeq: info.StartSeq, StartRoot: info.StartRoot,
		BaseSnap: info.StartSnap - 1, BaseRoot: delta.FromRoot,
		Steps: []wire.DeltaStep{wire.DeltaStepFromDelta(delta)}, Entries: entries,
	}
	const ops = 20
	var frame, deltaFrame []byte
	l.us("wire.job_encode_us", l.timed("wire.job_encode", nil, func() {
		for i := 0; i < ops; i++ {
			frame = job.Marshal()
		}
	}), ops)
	l.us("wire.job_decode_us", l.timed("wire.job_decode", nil, func() {
		for i := 0; i < ops; i++ {
			_, err := wire.ParseAuditJob(frame)
			must(err)
		}
	}), ops)
	l.us("wire.deltajob_encode_us", l.timed("wire.deltajob_encode", nil, func() {
		for i := 0; i < ops; i++ {
			deltaFrame = deltaJob.Marshal()
		}
	}), ops)
	l.us("wire.deltajob_decode_us", l.timed("wire.deltajob_decode", nil, func() {
		for i := 0; i < ops; i++ {
			_, err := wire.ParseAuditDeltaJob(deltaFrame)
			must(err)
		}
	}), ops)
	l.rep.set("wire.job_bytes", float64(len(frame)), "B")
	l.rep.set("wire.deltajob_bytes", float64(len(deltaFrame)), "B")
}

// fleetLegs audits the workload's nodes through a journaled coordinator,
// through one without a journal (interleaved A/B, so both legs see the
// same machine) and on the in-process pool, the base of the dispatch
// overhead.
func (l *layers) fleetLegs(dir string, ps []*party) {
	journaled := l.rig
	if journaled == nil {
		var err error
		journaled, err = startFleet(l.freshDir("journal"))
		must(err)
		defer journaled.close()
	}
	plain, err := startFleet("")
	must(err)
	defer plain.close()

	ops, clients := len(ps), fleetClients
	if len(ps) == 1 {
		clients = 1
	} else {
		ops = fleetBatchOps
	}
	refs := make([]verdict, len(ps))
	for i, p := range ps {
		refs[i] = auditSerial(dir, p)
	}
	// Same replay parallelism as the fleet: its workers, shared by the
	// clients.
	poolWorkers := fleetWorkers / clients
	poolBatch := func(parent int) float64 {
		b := poolBatch(dir, ps, ops, clients, poolWorkers, l.tr, parent)
		for _, op := range b.ops {
			l.rep.check(op.verdict.same(refs[op.party]), "pool audit of %s: %s", ps[op.party].node, op.verdict)
		}
		return b.seconds
	}

	var jBatches, pBatches, poolBatches, opSeconds, prep, merge []float64
	var busyNs, epochs, dispatched, wireBytes, deltaJobs, fallbacks int64
	reps := 1
	for rep := 0; rep < reps; rep++ {
		l.tr.setRep(rep)
		runtime.GC()
		var b fleetBatch
		d := l.tr.do("fleet.batch", func() { b = journaled.batch(dir, ps, ops, clients, l.tr, l.tr.current()) })
		if rep == 0 {
			reps = repsAfter(d)
		}
		jBatches = append(jBatches, b.seconds)
		busyNs += b.busyNs
		epochs += b.epochs
		for _, op := range b.ops {
			l.rep.check(op.verdict.same(refs[op.party]), "fleet audit of %s: %s", ps[op.party].node, op.verdict)
			opSeconds = append(opSeconds, op.seconds)
			prep = append(prep, float64(op.stats.PrepWallNs)/1e9)
			merge = append(merge, float64(op.stats.MergeWallNs)/1e9)
			dispatched += int64(op.stats.Dispatched)
			wireBytes += int64(op.stats.WireBytes)
			deltaJobs += int64(op.stats.DeltaJobsShipped)
			fallbacks += int64(op.stats.DeltaFallbacks)
		}
		runtime.GC()
		l.tr.do("fleet.batch.nojournal", func() { b = plain.batch(dir, ps, ops, clients, l.tr, l.tr.current()) })
		pBatches = append(pBatches, b.seconds)
		runtime.GC()
		l.tr.do("fleet.batch.pool", func() { poolBatches = append(poolBatches, poolBatch(l.tr.current())) })
	}
	for i := range opSeconds {
		opSeconds[i] *= 1e3
	}
	sort.Float64s(opSeconds)
	l.rep.set("fleet.audit_ms_p50", nearestRank(opSeconds, 0.5), "ms")
	l.rep.set("fleet.audit_ms_p90", nearestRank(opSeconds, 0.9), "ms")
	l.rep.detail["fleet.audit_ms_p50"] = summarize(opSeconds)
	var wall float64
	for _, s := range jBatches {
		wall += s
	}
	l.rep.set("fleet.utilization", float64(busyNs)/1e9/(wall*fleetWorkers), "ratio")
	l.ms("fleet.prep_ms", prep)
	l.ms("fleet.merge_ms", merge)
	l.rep.set("fleet.wire_bytes_per_epoch", float64(wireBytes)/float64(dispatched), "B")
	l.pct("fleet.delta_jobs_pct", 100*float64(deltaJobs)/float64(dispatched))
	l.count("fleet.delta_fallbacks", float64(fallbacks))
	st := journaled.coord.Stats()
	l.count("fleet.retries", float64(st.Retries))
	l.count("fleet.hedges", float64(st.Hedges))
	l.rep.set("fleet.journal_bytes", float64(st.JournalBytes), "B")
	l.rep.check(st.RunsResumed == 0, "coordinator resumed %d runs", st.RunsResumed)
	l.rep.set("fleet.epochs_per_s", float64(epochs)/wall, "1/s")
	j, pl, pool := floor(jBatches), floor(pBatches), floor(poolBatches)
	l.pct("fleet.journal_overhead_pct", 100*(j-pl)/pl)
	l.ms("fleet.pool_ms", poolBatches)
	l.rep.set("fleet.dispatch_overhead_x", j/pool, "ratio")
}

// poolBatch is batch on the in-process pool: the same audits with the
// replay stage on poolWorkers goroutines per client instead of the fleet.
func poolBatch(dir string, ps []*party, n, clients, poolWorkers int, tr *tracer, parent int) fleetBatch {
	return runBatch(ps, n, clients, func(p *party) (v verdict, _ audit.DistStats) {
		tr.doUnder(parent, "pool.audit", func() {
			arc, entries, inc, err := readLog(dir, p)
			if err != nil {
				v = verdict{err: err}
				return
			}
			defer arc.Close()
			res, stats, err := p.a.Audit(audit.AuditRequest{
				Node: p.node, NodeIdx: p.idx, Engine: audit.EngineDist, Entries: entries, Auths: p.auths,
				Options: audit.EngineOptions{Workers: poolWorkers, Materialize: materializer(inc)},
			})
			v = fromResult(res, stats.Dist.Epochs, err)
		})
		return v, audit.DistStats{}
	})
}

// calibrate measures the ceilings two layer rates are read against.
func (l *layers) calibrate(dir string) {
	buf := make([]byte, 16<<20)
	for i := range buf {
		buf[i] = byte(uint32(i) * 2654435761 >> 24)
	}
	shaS := floor(l.timed("calib.sha256", nil, func() { sha256.Sum256(buf) }))
	sha := float64(len(buf)) / 1e6 / shaS
	l.rep.set("calib.sha256_mb_s", sha, "MB/s")

	tiles, err := filepath.Glob(filepath.Join(dir, "*"+archive.TileSuffix))
	must(err)
	var tileBytes int
	readS := floor(l.timed("calib.file_read", nil, func() {
		tileBytes = 0
		for _, t := range tiles {
			b, err := os.ReadFile(t)
			must(err)
			tileBytes += len(b)
		}
	}))
	fileRead := float64(tileBytes) / 1e6 / readS
	l.rep.set("calib.file_read_mb_s", fileRead, "MB/s")
	l.pct("merkle.hash_of_sha256_pct", 100*l.rep.metrics["merkle.hash_mb_s"].Value/sha)
	l.pct("archive.read_of_file_read_pct", 100*l.rep.metrics["archive.read_mb_s"].Value/fileRead)

	l.ms("lang.compile_ms", l.timed("lang.compile", nil, func() { must(l.w.compile()) }))
}
