package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/dbapp"
	"repro/internal/game"
	"repro/internal/logcomp"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
)

// Sec66Result reproduces §6.6: wall-clock durations of each audit pipeline
// stage on a recorded match (compress, decompress, syntactic check,
// semantic check), plus the ratio of replay time to recorded play time.
type Sec66Result struct {
	RecordedNs     uint64
	LogEntries     int
	LogBytes       int
	CompressedSize int
	Compress       time.Duration
	Decompress     time.Duration
	Syntactic      time.Duration
	Semantic       time.Duration
	ReplayedInstr  uint64
	Passed         bool
	// AuditParallel is the whole audit — chain, syntactic check and replay
	// — on the epoch-parallel engine with ParallelWorkers replay workers;
	// ParallelSpeedup is the serial stages' sum, Syntactic plus Semantic,
	// divided by AuditParallel.
	AuditParallel   time.Duration
	ParallelWorkers int
	ParallelSpeedup float64
	Snapshots       int
}

// RunSec66 records a match, then times the audit pipeline on the server's
// log (the paper audits the machine hosting the game). The machine takes
// periodic snapshots, so the whole audit can also run on the
// epoch-parallel engine for comparison.
func RunSec66(scale Scale) (*Sec66Result, error) {
	s, err := runGame(avmm.ModeAVMMRSA, scale, func(cfg *game.ScenarioConfig) {
		cfg.SnapshotEveryNs = scale.GameNs / 8
	})
	if err != nil {
		return nil, err
	}
	target := s.Player(1)
	entries := target.Log.Entries()
	auths, err := s.CollectAuths(target.Node())
	if err != nil {
		return nil, err
	}
	res := &Sec66Result{
		RecordedNs: scale.GameNs,
		LogEntries: len(entries),
		LogBytes:   target.TotalLogBytes(),
	}
	var compressed []byte
	res.Compress = stopwatch(func() {
		compressed = logcomp.CompressEntries(entries)
	})
	res.CompressedSize = len(compressed)
	var decompressed []tevlog.Entry
	var decompressErr error
	res.Decompress = stopwatch(func() {
		decompressed, decompressErr = logcomp.DecompressEntries(compressed)
	})
	if decompressErr != nil {
		return nil, fmt.Errorf("sec66 decompress: %w", decompressErr)
	}
	if err := tevlog.Rechain(tevlog.Hash{}, decompressed); err != nil {
		return nil, fmt.Errorf("sec66 rechain: %w", err)
	}

	a := &audit.Auditor{
		Keys: s.Keys, RefImage: s.RefImgs[target.Node()], RNGSeed: s.RNGSeedOf(target.Index()),
		TamperEvident: true, VerifySignatures: true,
	}
	var synFault *audit.FaultReport
	res.Syntactic = stopwatch(func() {
		if err := tevlog.VerifySegment(tevlog.Hash{}, decompressed, auths, s.Keys); err != nil {
			synFault = &audit.FaultReport{Detail: err.Error()}
			return
		}
		_, synFault = audit.SyntacticCheck(target.Node(), decompressed, audit.SyntacticOptions{
			NodeIdx: uint32(target.Index()), Keys: s.Keys, VerifySignatures: true,
		})
	})
	if synFault != nil {
		return nil, fmt.Errorf("sec66 syntactic check failed: %s", synFault.Detail)
	}
	var rep *audit.Replay
	res.Semantic = stopwatch(func() {
		rep, err = audit.NewReplayFromImage(target.Node(), a.RefImage, a.RNGSeed)
		if err != nil {
			return
		}
		rep.Feed(decompressed)
		rep.Close()
		rep.Run()
	})
	if err != nil {
		return nil, err
	}
	if f := rep.Fault(); f != nil {
		return nil, fmt.Errorf("sec66 semantic check failed: %s", f.Detail)
	}
	res.ReplayedInstr = rep.Stats.Instructions
	res.Snapshots = rep.Stats.SnapshotsVerified

	// The same audit on the epoch-parallel engine, pulling epoch start
	// states from the machine's snapshot store: its chain and syntactic
	// checks overlap the replay of the epochs they have passed. Report the
	// fan-out actually used: at most one worker per epoch has work, and the
	// epoch count is bounded by the number of snapshots in the log.
	res.ParallelWorkers = runtime.GOMAXPROCS(0)
	if res.ParallelWorkers > res.Snapshots && res.Snapshots > 0 {
		res.ParallelWorkers = res.Snapshots
	}
	var pres *audit.Result
	res.AuditParallel = stopwatch(func() {
		pres, _, err = a.Audit(audit.AuditRequest{
			Node: target.Node(), NodeIdx: uint32(target.Index()), Engine: audit.EngineParallel,
			Entries: decompressed, Auths: auths,
			Options: audit.EngineOptions{
				Workers:     res.ParallelWorkers,
				Materialize: func(snapIdx uint32) (*snapshot.Restored, error) { return target.Snaps.Materialize(int(snapIdx)) },
			},
		})
	})
	if err != nil {
		return nil, err
	}
	if !pres.Passed {
		return nil, fmt.Errorf("sec66 parallel audit failed: %s", pres.Fault.Detail)
	}
	if res.AuditParallel > 0 {
		res.ParallelSpeedup = float64(res.Syntactic+res.Semantic) / float64(res.AuditParallel)
	}
	res.Passed = true
	return res, nil
}

// Table renders §6.6.
func (r *Sec66Result) Table() *metrics.Table {
	t := metrics.NewTable("Section 6.6: audit pipeline timing",
		"stage", "wall time", "notes")
	t.Row("compress", r.Compress.String(), fmt.Sprintf("%d → %d bytes", r.LogBytes, r.CompressedSize))
	t.Row("decompress", r.Decompress.String(), "")
	t.Row("syntactic check", r.Syntactic.String(), fmt.Sprintf("%d entries", r.LogEntries))
	t.Row("semantic check (replay)", r.Semantic.String(), fmt.Sprintf("%d instructions, %d snapshots", r.ReplayedInstr, r.Snapshots))
	t.Row("full audit (parallel engine)", r.AuditParallel.String(),
		fmt.Sprintf("%d workers, %.2fx syntactic + semantic", r.ParallelWorkers, r.ParallelSpeedup))
	t.Row("recorded play (virtual)", time.Duration(r.RecordedNs).String(), "")
	return t
}

// Fig8Row is one online-auditing configuration.
type Fig8Row struct {
	AuditsPerMachine int
	AvgFPS           float64
	MaxLagEntries    int
	AuditsPassed     bool
}

// Fig8Result reproduces Figure 8 and the §6.11 discussion: frame rate with
// 0/1/2 concurrent online audits per machine, with audit progress (lag)
// measured from real incremental replays running alongside the match.
type Fig8Result struct {
	Rows []Fig8Row
	// SlowdownFPS is the frame rate with the 5% artificial slowdown that
	// guarantees auditors keep up (§6.11).
	SlowdownFPS float64
}

// onlineAuditDriver incrementally replays a target's log while the match
// runs.
type onlineAuditDriver struct {
	target  *avmm.Monitor
	oa      *audit.OnlineAudit
	everyNs uint64
	nextNs  uint64
	maxLag  int
	failed  *audit.FaultReport
}

// Tick implements avmm.Driver.
func (d *onlineAuditDriver) Tick(_ *avmm.World, nowNs uint64) {
	if nowNs < d.nextNs || d.failed != nil {
		return
	}
	d.nextNs = nowNs + d.everyNs
	hi := uint64(d.target.Log.Len())
	if hi <= d.oa.FedTo() {
		return
	}
	entries, err := d.target.Log.SegmentView(d.oa.FedTo()+1, hi)
	if err != nil {
		return
	}
	d.oa.Feed(entries)
	if f := d.oa.Fault(); f != nil {
		d.failed = f
	}
	if lag := d.oa.LagEntries(); lag > d.maxLag {
		d.maxLag = lag
	}
}

// RunFig8 plays matches with a concurrent audits per machine, modeling CPU
// contention as a per-instruction slowdown while running the actual
// incremental replays.
func RunFig8(scale Scale) (*Fig8Result, error) {
	res := &Fig8Result{}
	for _, audits := range []int{0, 1, 2} {
		audits := audits
		// Contention model: each concurrent audit steals roughly one
		// hyperthread's worth of memory bandwidth and shared cache from the
		// game thread; calibrated to the paper's 137→104 fps for two
		// audits.
		slow := uint64(audits) * 280
		var drivers []*onlineAuditDriver
		fps, s, err := runGameFPS(avmm.ModeAVMMRSA, scale, func(cfg *game.ScenarioConfig) {
			cfg.SlowdownPerInstrNs = slow
			cfg.OnAfterBuild = func(sc *game.Scenario) error {
				// Each player audits `audits` other players.
				for i := 1; i <= len(sc.Players); i++ {
					for k := 1; k <= audits; k++ {
						targetID := (i-1+k)%len(sc.Players) + 1
						target := sc.Player(targetID)
						oa, err := audit.NewOnlineAudit(target.Node(),
							sc.RefImgs[target.Node()], sc.RNGSeedOf(target.Index()))
						if err != nil {
							return err
						}
						d := &onlineAuditDriver{target: target, oa: oa, everyNs: 500_000_000}
						drivers = append(drivers, d)
						sc.World.Drivers = append(sc.World.Drivers, d)
					}
				}
				return nil
			}
		})
		if err != nil {
			return nil, err
		}
		_ = s
		row := Fig8Row{AuditsPerMachine: audits, AvgFPS: metrics.Mean(fps), AuditsPassed: true}
		for _, d := range drivers {
			if d.failed != nil {
				row.AuditsPassed = false
			}
			if d.maxLag > row.MaxLagEntries {
				row.MaxLagEntries = d.maxLag
			}
		}
		res.Rows = append(res.Rows, row)
	}
	// The §6.11 5% slowdown variant.
	fps, _, err := runGameFPS(avmm.ModeAVMMRSA, scale, func(cfg *game.ScenarioConfig) {
		cfg.SlowdownPerInstrNs = game.GameNsPerInstr / 20
	})
	if err != nil {
		return nil, err
	}
	res.SlowdownFPS = metrics.Mean(fps)
	return res, nil
}

// Table renders Figure 8.
func (r *Fig8Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 8: frame rate with online auditing",
		"audits/machine", "avg fps", "max audit lag (entries)", "audits passed")
	for _, row := range r.Rows {
		t.Row(row.AuditsPerMachine, row.AvgFPS, row.MaxLagEntries, row.AuditsPassed)
	}
	t.Row("5% slowdown fps", r.SlowdownFPS, "", "")
	return t
}

// Fig9Row is the spot-check cost for one chunk size.
type Fig9Row struct {
	K             int
	TimePct       float64 // replay wall time vs full audit
	DataPct       float64 // transferred bytes vs full audit
	ChunksAudited int
	AllPassed     bool
}

// Fig9Result reproduces Figure 9: spot-checking cost versus chunk size on
// the minisql workload, normalized against a full audit.
type Fig9Result struct {
	Segments       int
	FullAuditWall  time.Duration
	FullAuditBytes int
	SnapshotBytes  int // per-snapshot transfer (the fixed cost)
	Rows           []Fig9Row
}

// fig9Passes is how many times RunFig9 times the full audit and every
// chunk size; each is reported as its median pass.
const fig9Passes = 5

// RunFig9 runs the database workload with periodic snapshots, then audits
// every k-chunk for k ∈ {1,3,5,9,12} (excluding chunks that start at the
// very beginning, as the paper does). Wall times are the median of
// fig9Passes passes, and each pass times the full audit and every k in
// turn, so a slow phase of the machine slows every k alike instead of
// reordering them.
func RunFig9(scale Scale) (*Fig9Result, error) {
	s, err := dbapp.NewScenario(dbapp.ScenarioConfig{
		Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(), Seed: 17,
		SnapshotEveryNs: scale.DBSnapshotNs, FakeSignatures: true,
	})
	if err != nil {
		return nil, err
	}
	s.Run(scale.DBNs)
	entries := s.Server.Log.Entries()
	points, err := audit.FindSnapshots(entries)
	if err != nil {
		return nil, err
	}
	if len(points) < 3 {
		return nil, fmt.Errorf("fig9: only %d snapshots; increase duration", len(points))
	}
	auths, err := s.ServerAuths()
	if err != nil {
		return nil, err
	}
	a := s.Auditor()
	res := &Fig9Result{Segments: len(points) - 1}
	res.FullAuditBytes = s.Server.TotalLogBytes()
	if b, err := s.Server.Snaps.TransferBytes(1); err == nil {
		res.SnapshotBytes = b
	}

	// Every k-chunk's request, its start state materialized once: the
	// chunk audit copies the state into its replica and never writes it.
	type sized struct {
		row    Fig9Row
		data   int
		chunks []audit.ChunkRequest
		walls  []time.Duration // per-chunk mean, one per pass
	}
	var sizes []*sized
	for _, k := range []int{1, 3, 5, 9, 12} {
		if k > res.Segments-1 {
			break
		}
		sz := &sized{row: Fig9Row{K: k, AllPassed: true}}
		for i := 1; i+k < len(points); i++ {
			start, end := points[i], points[i+k]
			restored, err := s.Server.Snaps.Materialize(int(start.SnapIdx))
			if err != nil {
				return nil, err
			}
			transfer, err := s.Server.Snaps.TransferBytes(int(start.SnapIdx))
			if err != nil {
				return nil, err
			}
			chunk := entries[start.EntryIndex+1 : end.EntryIndex+1]
			sz.data += transfer + len(tevlog.MarshalSegment(chunk))
			sz.chunks = append(sz.chunks, audit.ChunkRequest{
				Node: "db-server", NodeIdx: 0,
				Start: restored, StartRoot: start.Root, PrevHash: start.EntryHash,
				Entries: chunk, Auths: auths,
			})
		}
		sizes = append(sizes, sz)
	}

	var fullWalls []time.Duration
	for range fig9Passes {
		var full *audit.Result
		fullWalls = append(fullWalls, stopwatch(func() {
			full, _, err = a.Audit(audit.AuditRequest{Node: "db-server", Entries: entries, Auths: auths})
		}))
		if err != nil {
			return nil, err
		}
		if !full.Passed {
			return nil, fmt.Errorf("fig9: full audit failed: %v", full.Fault)
		}
		for _, sz := range sizes {
			var wall time.Duration
			for i := range sz.chunks {
				var cres *audit.Result
				wall += stopwatch(func() {
					cres, _, err = a.Audit(audit.AuditRequest{Chunk: &sz.chunks[i]})
				})
				if err != nil {
					return nil, err
				}
				if !cres.Passed {
					sz.row.AllPassed = false
				}
			}
			sz.walls = append(sz.walls, wall/time.Duration(len(sz.chunks)))
		}
	}
	res.FullAuditWall = medianDuration(fullWalls)
	for _, sz := range sizes {
		row := sz.row
		row.ChunksAudited = len(sz.chunks)
		row.TimePct = float64(medianDuration(sz.walls)) / float64(res.FullAuditWall) * 100
		row.DataPct = float64(sz.data) / float64(len(sz.chunks)) / float64(res.FullAuditBytes) * 100
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// medianDuration returns the median of ds (the upper one of an even
// count), sorting ds in place.
func medianDuration(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// Table renders Figure 9.
func (r *Fig9Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 9: spot-checking cost (normalized to a full audit)",
		"k (segments)", "time %", "data %", "chunks", "all passed")
	for _, row := range r.Rows {
		t.Row(row.K, row.TimePct, row.DataPct, row.ChunksAudited, row.AllPassed)
	}
	t.Row("segments", r.Segments, "", "", "")
	t.Row("snapshot transfer (bytes)", r.SnapshotBytes, "", "", "")
	return t
}
