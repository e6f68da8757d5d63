package main

import "fmt"

// opKind is the audit operation a workload times, from archive.Open to a
// verdict.
type opKind int

const (
	// opStream audits the whole log on the stream engine, entries and
	// start states read straight from the archive, one replay worker.
	opStream opKind = iota
	// opSpot spot-checks every fourth segment from a fresh ArchiveSource.
	opSpot
	// opFleet audits each node through a coordinator and two loopback
	// workers with delta-shipped jobs.
	opFleet
)

// workload is one set of inputs the benchmark runs. Virtual lengths are
// sized so that a run (set-up, at least three recordings, the audit
// repetitions, the oracle) fits the driver's budget of about 35 s on the
// 2-core sandbox; every metric is normalised per virtual second.
type workload struct {
	name  string
	build func(scenarioCfg) (*recording, error)
	// compile builds the workload's guest images, for lang.compile_ms.
	compile func() error
	// virtualNs is the recorded virtual time, snapEveryNs the snapshot
	// cadence.
	virtualNs   uint64
	snapEveryNs uint64
	// nodes are the network indexes that are archived and audited.
	nodes []int
	op    opKind
}

func (w *workload) virtualSeconds() float64 { return float64(w.virtualNs) / 1e9 }

const second = uint64(1e9)

var workloads = []*workload{
	{
		// The paper's workload: CPU-bound guest, replay is about half of the audit, so interpreter work shows here.
		name:  "game",
		build: buildGame, compile: compileGame, virtualNs: 20 * second, snapEveryNs: 20 * second / 8,
		nodes: []int{1}, op: opStream,
	},
	{
		// I/O-dense timer-paced guest, one authenticator per two entries: signature and chain checks dominate, replay is minor.
		name:  "minisql",
		build: buildMinisql, compile: compileMinisql, virtualNs: 6 * second, snapEveryNs: second / 2,
		nodes: []int{0}, op: opStream,
	},
	{
		// 16 MiB guest with scattered writes, spot-checked: the only workload where snapshot, merkle and archive dominate.
		name:  "kvstate",
		build: buildKV, compile: func() error { _, _, err := compileKV(); return err }, virtualNs: 30 * second, snapEveryNs: 2 * second,
		nodes: []int{0}, op: opSpot,
	},
	{
		// Three nodes with 48 snapshots audited through a journaled coordinator and two workers: wire, dispatch, deltas, journal.
		name:  "fleet",
		build: buildGame, compile: compileGame, virtualNs: 20 * second, snapEveryNs: 20 * second / 48,
		nodes: []int{0, 1, 2}, op: opFleet,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
