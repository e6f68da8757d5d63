package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	avm "repro"
	"repro/internal/archive"
)

const (
	// setupReps is how often a run sets up.
	setupReps = 4
	// warmupNs is the throw-away record+audit each set-up ends with.
	warmupNs = 2 * second
	// sliceNs is the virtual time between two clock reads while
	// recording (see recordFloor).
	sliceNs = second / 20
	// minRecordReps and minAuditReps hold whatever -seconds says.
	minRecordReps = 3
	minAuditReps  = 30
	// recordShare is the part of each measurement cycle given to its
	// record repetition; audit repetitions take the rest.
	recordShare = 0.65
	// fleetBatchOps is the number of node audits in one fleet batch:
	// every node twice.
	fleetBatchOps = 6
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	metrics   map[string]metric
	detail    map[string]summary
	attempted int
	failed    int
	notes     []string
}

func newReport(w *workload) *report {
	return &report{workload: w.name, metrics: map[string]metric{}, detail: map[string]summary{}}
}

// set reports a metric. A value that is not a number (a ratio over a
// zero base) cannot be printed and counts as a failed operation.
func (r *report) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.check(false, "metric %s is not a number", name)
		value = 0
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// check counts one operation and records why it failed, if it did.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
	return ok
}

// fingerprint is the simulated outcome of a recording that must repeat
// exactly between repetitions. The chain hash is deliberately absent:
// crypto/rsa mixes fresh randomness into key generation, so every built
// scenario signs with different keys and logs different signature bytes.
type fingerprint struct {
	icount   uint64
	entries  int
	logBytes int
}

func fingerprints(rec *recording, nodes []int) []fingerprint {
	out := make([]fingerprint, len(nodes))
	for i, idx := range nodes {
		m := rec.mons[idx]
		out[i] = fingerprint{icount: m.Machine.ICount, entries: m.Log.Len(), logBytes: m.TotalLogBytes()}
	}
	return out
}

// writeArchive archives the workload's nodes into dir and returns the
// archive's size.
func writeArchive(dir string, rec *recording, nodes []int) (int64, error) {
	arc, err := archive.Open(dir)
	if err != nil {
		return 0, err
	}
	for _, idx := range nodes {
		m := rec.mons[idx]
		sf := m.Snaps.File()
		if err := arc.WriteRecording(string(m.Node()), m.Log.Entries(), &sf); err != nil {
			arc.Close()
			return 0, err
		}
	}
	size := arc.Bytes()
	return size, arc.Close()
}

// runner carries one run's state.
type runner struct {
	w       *workload
	seed    uint64
	workdir string
	rep     *report
	rig     *fleetRig // live coordinator and workers, fleet workload only
	nextDir int
}

func (r *runner) cfg(mode avm.Mode) scenarioCfg {
	return scenarioCfg{mode: mode, seed: r.seed, snapEveryNs: r.w.snapEveryNs}
}

func (r *runner) freshDir(kind string) string {
	r.nextDir++
	return filepath.Join(r.workdir, fmt.Sprintf("%s-%d", kind, r.nextDir))
}

// auditOp is one run of the workload's audit operation: its wall time,
// the verdict of every node audit in it, and the epochs it covered. On
// the stream and spot workloads the operation is one node audit; on fleet
// it is a closed-loop batch of them on two clients.
type auditOp struct {
	seconds float64
	audits  []nodeAudit
	epochs  int64
}

// timedAudit runs the workload's audit operation once over dir. nodes is
// the number of node audits in a fleet batch.
func (r *runner) timedAudit(dir string, ps []*party, nodes int) auditOp {
	if r.w.op == opFleet {
		b := r.rig.batch(dir, ps, nodes, fleetClients, nil, -1)
		return auditOp{seconds: b.seconds, audits: b.ops, epochs: b.epochs}
	}
	audit := auditStream
	if r.w.op == opSpot {
		audit = auditSpot
	}
	start := time.Now()
	v := audit(dir, ps[0])
	return auditOp{seconds: time.Since(start).Seconds(), audits: []nodeAudit{{verdict: v}}, epochs: int64(v.epochs)}
}

// checkAudit counts every node audit of op and fails those that disagree
// with the serial reference of their node.
func (r *runner) checkAudit(what string, op auditOp, rec *recorded) {
	for _, a := range op.audits {
		r.rep.check(r.agrees(a.verdict, rec.refs[a.party], rec.picks), "%s of %s: %s, serial says %s",
			what, rec.parties[a.party].node, a.verdict, rec.refs[a.party])
	}
}

// agrees reports whether the workload's operation reported what it must
// for a node whose serial audit gave ref. A spot check carries no
// statistics: it must pass like the serial audit and inspect exactly the
// segments the fixed policy picks.
func (r *runner) agrees(v, ref verdict, picks int) bool {
	if r.w.op == opSpot {
		return v.err == nil && v.passed == ref.passed && v.epochs == picks
	}
	return v.same(ref)
}

// setUp is what setup_s times: start the fleet where the workload has
// one, compile the guests, generate keys and build the scenario, and push
// a short throw-away recording through archive and audit so that every
// lazy initialisation on the measured path has happened. It returns the
// duration of each stage.
func (r *runner) setUp() (stages []float64, err error) {
	start := time.Now()
	lap := func() {
		now := time.Now()
		stages = append(stages, now.Sub(start).Seconds())
		start = now
	}
	dir := r.freshDir("warm")
	defer os.RemoveAll(dir)
	if r.w.op == opFleet {
		if r.rig, err = startFleet(dir + "-journal"); err != nil {
			return nil, err
		}
	}
	lap()
	rec, err := r.w.build(r.cfg(avm.ModeAVMMRSA))
	if err != nil {
		return nil, err
	}
	lap()
	rec.run(warmupNs)
	lap()
	if _, err := writeArchive(dir, rec, r.w.nodes); err != nil {
		return nil, err
	}
	ps, err := parties(rec, r.w.nodes)
	if err != nil {
		return nil, err
	}
	for _, a := range r.timedAudit(dir, ps, len(ps)).audits {
		if v := a.verdict; v.err != nil || !v.passed {
			return nil, fmt.Errorf("warm-up audit of %s: %s", ps[a.party].node, v)
		}
	}
	lap()
	return stages, nil
}

// tearDown stops what setUp started.
func (r *runner) tearDown() {
	if r.rig != nil {
		r.rig.close()
		r.rig = nil
	}
}

// recorded is one finished record repetition.
type recorded struct {
	dir     string
	parties []*party
	refs    []verdict // serial audit per party: the oracle's reference
	picks   int       // segments the spot policy inspects
	times   recordRep
	prints  []fingerprint
	arcSize int64
}

// record runs one record repetition: build (untimed), run in slices,
// archive, audit the fresh archive, then check the verdicts against the
// serial reference (untimed).
func (r *runner) record() (*recorded, error) {
	rec, err := r.w.build(r.cfg(avm.ModeAVMMRSA))
	if err != nil {
		return nil, err
	}
	out := &recorded{dir: r.freshDir("rec")}
	runtime.GC()
	for t := sliceNs; t <= r.w.virtualNs; t += sliceNs {
		start := time.Now()
		rec.run(t)
		out.times.slices = append(out.times.slices, time.Since(start).Seconds())
	}
	start := time.Now()
	out.arcSize, err = writeArchive(out.dir, rec, r.w.nodes)
	out.times.write = time.Since(start).Seconds()
	if !r.rep.check(err == nil, "archiving recording: %v", err) {
		return nil, err
	}
	if out.parties, err = parties(rec, r.w.nodes); err != nil {
		return nil, err
	}
	fresh := r.timedAudit(out.dir, out.parties, len(out.parties))
	out.times.fresh = fresh.seconds

	out.prints = fingerprints(rec, r.w.nodes)
	for _, p := range out.parties {
		ref := auditSerial(out.dir, p)
		out.refs = append(out.refs, ref)
		r.rep.check(ref.err == nil && ref.passed, "serial audit of %s: %s", p.node, ref)
	}
	if r.w.op == opSpot {
		out.picks = len(everyFourth{}.Pick(rec.mons[r.w.nodes[0]].Snaps.Count() - 1))
	}
	r.checkAudit("fresh audit", fresh, out)
	return out, nil
}

// runE2E measures the end-to-end metrics of one workload for about
// seconds seconds; set-up, the minimum repetition counts and the oracle
// come on top.
func runE2E(w *workload, seed uint64, seconds float64, workdir string) (*report, error) {
	r := &runner{w: w, seed: seed, workdir: workdir, rep: newReport(w)}
	defer r.tearDown()

	// Set-up, several times. Its stages are combined like the slices of
	// a recording: key generation alone varies by a factor of three.
	var setups []recordRep
	var setupTotals []float64
	for i := 0; i < setupReps; i++ {
		r.tearDown()
		runtime.GC()
		stages, err := r.setUp()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		total := 0.0
		for _, s := range stages {
			total += s
		}
		setups = append(setups, recordRep{slices: stages})
		setupTotals = append(setupTotals, total)
	}
	setupFloor, _ := recordFloor(setups)
	r.rep.set("setup_s", setupFloor, "s")
	r.rep.detail["setup_s"] = summarize(setupTotals)

	// Cycles of one record repetition (audited fresh) and a share of
	// audit repetitions over its archive, so that both kinds of sample
	// are spread over the whole measured time.
	begin := time.Now()
	elapsed := func() float64 { return time.Since(begin).Seconds() }
	nodesPerOp := 1
	if w.op == opFleet {
		nodesPerOp = fleetBatchOps
	}
	var reps []*recorded
	var audits, rates []float64
	auditOnce := func(rec *recorded) {
		runtime.GC()
		op := r.timedAudit(rec.dir, rec.parties, nodesPerOp)
		r.checkAudit(fmt.Sprintf("audit %d", len(audits)), op, rec)
		audits = append(audits, op.seconds)
		rates = append(rates, float64(op.epochs)/op.seconds)
	}
	var cycle float64
	for len(reps) < minRecordReps || elapsed()+cycle < seconds {
		cycleStart := elapsed()
		rec, err := r.record()
		if err != nil {
			return nil, fmt.Errorf("record: %w", err)
		}
		if len(reps) > 0 {
			os.RemoveAll(reps[len(reps)-1].dir)
			for i, fp := range rec.prints {
				r.rep.check(fp == reps[0].prints[i], "recording of %s differs between repetitions: %+v, first %+v",
					rec.parties[i].node, fp, reps[0].prints[i])
			}
		}
		reps = append(reps, rec)
		until := cycleStart + (elapsed()-cycleStart)/recordShare
		for elapsed() < until {
			auditOnce(rec)
		}
		cycle = elapsed() - cycleStart
	}
	final := reps[len(reps)-1]
	defer os.RemoveAll(final.dir)
	for len(audits) < minAuditReps || elapsed() < seconds {
		auditOnce(final)
	}

	vs := w.virtualSeconds()
	var recTimes []recordRep
	var recTotals, e2eTotals []float64
	for _, rec := range reps {
		recTimes = append(recTimes, rec.times)
		total := rec.times.write
		for _, s := range rec.times.slices {
			total += s
		}
		recTotals = append(recTotals, total/vs)
		e2eTotals = append(e2eTotals, (total+rec.times.fresh)/vs)
	}
	recFloor, e2eFloor := recordFloor(recTimes)
	r.rep.set("record_s_per_vs", recFloor/vs, "s/vs")
	r.rep.set("e2e_s_per_vs", e2eFloor/vs, "s/vs")
	r.rep.detail["record_s_per_vs"] = summarize(recTotals)
	r.rep.detail["e2e_s_per_vs"] = summarize(e2eTotals)

	// Host seconds per audited virtual second: one node audit on the
	// stream and spot workloads, a batch of them on fleet.
	perVS := make([]float64, len(audits))
	for i, a := range audits {
		perVS[i] = a / (float64(nodesPerOp) * vs)
	}
	r.rep.set("audit_s_per_vs", floor(perVS), "s/vs")
	r.rep.detail["audit_s_per_vs"] = summarize(perVS)

	// Epochs audited per host second, in the fastest operation. On fleet
	// the epochs are the coordinator's own count over a batch; elsewhere
	// no coordinator runs and they are the epochs (spot check: segments)
	// the workload's own operation covered.
	r.rep.set("fleet_epochs_per_s", slices.Max(rates), "1/s")
	r.rep.detail["fleet_epochs_per_s"] = summarize(rates)
	if w.op == opFleet {
		st := r.rig.coord.Stats()
		r.rep.check(st.RunsResumed == 0, "coordinator resumed %d runs: concurrent audits shared a journal key", st.RunsResumed)
		r.rep.check(st.Retries == 0, "coordinator retried %d epochs", st.Retries)
	}

	// Simulated, exact metrics.
	var logBytes, icount uint64
	for _, fp := range final.prints {
		logBytes += uint64(fp.logBytes)
		icount += fp.icount
	}
	r.rep.set("log_bytes_per_vs", float64(logBytes)/vs, "B/vs")
	r.rep.set("archive_bytes_per_vs", float64(final.arcSize)/vs, "B/vs")
	bare, err := w.build(r.cfg(avm.ModeBareHW))
	if err != nil {
		return nil, fmt.Errorf("bare-hardware scenario: %w", err)
	}
	bare.run(w.virtualNs)
	var bareICount uint64
	for _, fp := range fingerprints(bare, w.nodes) {
		bareICount += fp.icount
	}
	r.rep.set("guest_speed_pct", 100*float64(icount)/float64(bareICount), "%")

	r.oracle(final)
	r.negativeControls(final)
	return r.rep, nil
}
