package game

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/logcomp"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
)

// ScenarioConfig assembles a fragfest match, modeled on the paper's
// experimental setup (§6.2): one server plus N players on a switched LAN,
// each machine recording under a chosen configuration.
type ScenarioConfig struct {
	// Players is the number of player machines (default 3, like the paper).
	Players int
	// Mode is the evaluation configuration for every machine.
	Mode avmm.Mode
	// Cost is the virtual-time cost model.
	Cost avmm.CostModel
	// Seed drives bots, device RNGs and the network.
	Seed uint64
	// FrameCap enables the client frame-rate cap (§6.5).
	FrameCap bool
	// ClockDelayOpt enables the consecutive-clock-read delay optimization.
	ClockDelayOpt bool
	// SnapshotEveryNs takes periodic snapshots when nonzero.
	SnapshotEveryNs uint64
	// SnapshotMaxDirtyBytes takes a snapshot early once a machine dirties
	// this many bytes since its last one (0 = periodic cadence only).
	SnapshotMaxDirtyBytes uint64
	// SnapshotMaxInstr takes a snapshot early once a machine retires this
	// many instructions since its last one (0 = periodic cadence only).
	SnapshotMaxInstr uint64
	// RenderWork overrides the per-frame render loop length (0 = default).
	RenderWork int
	// NetLatencyNs is the one-way link latency (default 96 µs, switch-like).
	NetLatencyNs uint64
	// NetJitterNs bounds random extra delay.
	NetJitterNs uint64
	// CheatPlayer, if in [1,Players], runs Cheat's modified image.
	CheatPlayer int
	// Cheat is the catalog entry CheatPlayer installs.
	Cheat *Cheat
	// ExternalAimbot, if in [1,Players], gives that player's bot
	// machine-generated perfect-fire inputs WITHOUT modifying the image —
	// the re-engineered external cheat of §5.4 that AVMs cannot detect.
	ExternalAimbot int
	// BotIntervalNs is the cadence of bot input events (default 100 ms).
	BotIntervalNs uint64
	// KeySeed namespaces deterministic RSA keys.
	KeySeed string
	// FakeSignatures substitutes RSA-768-sized keyed digests for real RSA
	// in signing modes: identical wire and log bytes, negligible wall cost.
	// Crypto cost still enters results through the virtual cost model.
	// Performance experiments use this; security tests must not.
	FakeSignatures bool
	// SlowdownPerInstrNs artificially slows every player machine, modeling
	// CPU contention (online audits, §6.11's deliberate slowdown).
	SlowdownPerInstrNs uint64
	// OnAfterBuild, if set, runs after the scenario is assembled and before
	// the first slice — the hook experiments use to attach extra drivers.
	OnAfterBuild func(*Scenario) error
}

// Scenario is a running fragfest match.
type Scenario struct {
	Cfg     ScenarioConfig
	Net     *netsim.Network
	World   *avmm.World
	Server  *avmm.Monitor
	Players []*avmm.Monitor // Players[i] is node i+1
	RefImgs map[sig.NodeID]*vm.Image
	Keys    *sig.KeyStore
	bots    []*botDriver
}

// NewScenario builds the world: generates the nodes' keys, compiles
// images, boots monitors, wires bots.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	return newScenario(cfg, nil)
}

// newScenario is NewScenario with the nodes' signers supplied; nil makes
// them from cfg. Fresh RSA keys differ from one generation to the next
// whatever the seed, so a test that records one world twice and compares
// bytes passes both builds the same signers.
func newScenario(cfg ScenarioConfig, signers map[sig.NodeID]sig.Signer) (*Scenario, error) {
	if cfg.Players == 0 {
		cfg.Players = 3
	}
	if cfg.Players < 1 || cfg.Players >= MaxPlayers {
		return nil, fmt.Errorf("game: %d players out of range [1,%d)", cfg.Players, MaxPlayers-1)
	}
	if cfg.BotIntervalNs == 0 {
		cfg.BotIntervalNs = 100_000_000
	}
	if cfg.NetLatencyNs == 0 {
		cfg.NetLatencyNs = 96_000
	}
	if cfg.KeySeed == "" {
		cfg.KeySeed = "fragfest"
	}
	s := &Scenario{
		Cfg:     cfg,
		Net:     netsim.New(netsim.Config{BaseLatencyNs: cfg.NetLatencyNs, JitterNs: cfg.NetJitterNs, Seed: cfg.Seed + 1}),
		Keys:    sig.NewKeyStore(),
		RefImgs: make(map[sig.NodeID]*vm.Image),
	}
	s.World = avmm.NewWorld(s.Net, s.Keys)
	if signers == nil {
		nodes := []sig.NodeID{"server"}
		for i := 1; i <= cfg.Players; i++ {
			nodes = append(nodes, playerNode(i))
		}
		signers = avmm.NodeSigners(cfg.Mode, cfg.FakeSignatures, cfg.KeySeed, nodes...)
	}

	serverImg, err := BuildServer()
	if err != nil {
		return nil, err
	}
	s.RefImgs["server"] = serverImg
	s.Server, err = avmm.NewMonitor(avmm.Config{
		Node: "server", Index: 0, Mode: cfg.Mode, Cost: cfg.Cost,
		Signer: signers["server"], Keys: s.Keys, Image: serverImg, Net: s.Net,
		RNGSeed: cfg.Seed + 100, NsPerInstr: GameNsPerInstr,
		SnapshotEveryNs: cfg.SnapshotEveryNs, ClockDelayOpt: cfg.ClockDelayOpt,
		SnapshotMaxDirtyBytes: cfg.SnapshotMaxDirtyBytes, SnapshotMaxInstr: cfg.SnapshotMaxInstr,
	})
	if err != nil {
		return nil, err
	}
	if err := s.World.Add(s.Server); err != nil {
		return nil, err
	}

	for i := 1; i <= cfg.Players; i++ {
		node := playerNode(i)
		opts := BuildOptions{RenderWork: cfg.RenderWork, FrameCap: cfg.FrameCap}
		refImg, err := BuildClient(i, opts)
		if err != nil {
			return nil, err
		}
		s.RefImgs[node] = refImg
		runImg := refImg
		if cfg.CheatPlayer == i && cfg.Cheat != nil {
			opts.Cheat = cfg.Cheat
			runImg, err = BuildClient(i, opts)
			if err != nil {
				return nil, err
			}
		}
		mon, err := avmm.NewMonitor(avmm.Config{
			Node: node, Index: i, Mode: cfg.Mode, Cost: cfg.Cost,
			Signer: signers[node], Keys: s.Keys, Image: runImg, Net: s.Net,
			RNGSeed: cfg.Seed + 100 + uint64(i), NsPerInstr: GameNsPerInstr,
			SnapshotEveryNs: cfg.SnapshotEveryNs, ClockDelayOpt: cfg.ClockDelayOpt,
			SnapshotMaxDirtyBytes: cfg.SnapshotMaxDirtyBytes, SnapshotMaxInstr: cfg.SnapshotMaxInstr,
			SlowdownPerInstrNs: cfg.SlowdownPerInstrNs,
		})
		if err != nil {
			return nil, err
		}
		if err := s.World.Add(mon); err != nil {
			return nil, err
		}
		s.Players = append(s.Players, mon)
		bot := &botDriver{
			mon: mon, rng: cfg.Seed*2654435761 + uint64(i)*0x9E3779B9,
			intervalNs: cfg.BotIntervalNs,
			aggressive: cfg.ExternalAimbot == i,
		}
		s.bots = append(s.bots, bot)
		s.World.Drivers = append(s.World.Drivers, bot)
	}
	if cfg.OnAfterBuild != nil {
		if err := cfg.OnAfterBuild(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// playerNode names player i's machine (1-based).
func playerNode(i int) sig.NodeID { return sig.NodeID(fmt.Sprintf("player%d", i)) }

// Run advances the match to the given virtual time.
func (s *Scenario) Run(untilNs uint64) { s.World.Run(untilNs) }

// Player returns the monitor for player id (1-based).
func (s *Scenario) Player(id int) *avmm.Monitor { return s.Players[id-1] }

// RNGSeedOf returns the device seed node idx booted with (part of the
// reference configuration an auditor needs).
func (s *Scenario) RNGSeedOf(idx int) uint64 { return s.Cfg.Seed + 100 + uint64(idx) }

// CollectAuths gathers all authenticators other machines hold for node,
// plus the machine's own head commitment — what an auditor assembles in the
// multi-party scenario (§4.6).
func (s *Scenario) CollectAuths(node sig.NodeID) ([]tevlog.Authenticator, error) {
	var auths []tevlog.Authenticator
	all := append([]*avmm.Monitor{s.Server}, s.Players...)
	var target *avmm.Monitor
	for _, mon := range all {
		if mon.Node() == node {
			target = mon
			continue
		}
		auths = append(auths, mon.AuthenticatorsFor(node)...)
	}
	if target == nil {
		return nil, fmt.Errorf("game: unknown node %q", node)
	}
	if target.Log.Len() > 0 {
		head, err := target.Log.LastAuthenticator()
		if err != nil {
			return nil, err
		}
		auths = append(auths, head)
	}
	return auths, nil
}

// auditorFor locates the node's monitor and assembles the auditor and
// authenticator set shared by the serial and parallel audit entry points.
func (s *Scenario) auditorFor(node sig.NodeID) (*avmm.Monitor, []tevlog.Authenticator, *audit.Auditor, error) {
	all := append([]*avmm.Monitor{s.Server}, s.Players...)
	var target *avmm.Monitor
	for _, mon := range all {
		if mon.Node() == node {
			target = mon
		}
	}
	if target == nil {
		return nil, nil, nil, fmt.Errorf("game: unknown node %q", node)
	}
	auths, err := s.CollectAuths(node)
	if err != nil {
		return nil, nil, nil, err
	}
	a := &audit.Auditor{
		Keys: s.Keys, RefImage: s.RefImgs[node], RNGSeed: s.RNGSeedOf(target.Index()),
		TamperEvident: s.Cfg.Mode.TamperEvident(), VerifySignatures: s.Cfg.Mode.Signs(),
	}
	return target, auths, a, nil
}

// AuditNode runs a full audit of the given node against its reference
// image.
func (s *Scenario) AuditNode(node sig.NodeID) (*audit.Result, error) {
	target, auths, a, err := s.auditorFor(node)
	if err != nil {
		return nil, err
	}
	res, _, err := a.Audit(audit.AuditRequest{
		Node: node, NodeIdx: uint32(target.Index()), Entries: target.Log.Entries(), Auths: auths,
	})
	return res, err
}

// AuditNodeParallel is AuditNode on the epoch-parallel engine: the node's
// log is cut at its snapshot entries and the epochs are replayed
// concurrently on up to workers goroutines, with each epoch's starting
// state pulled from the node's snapshot store and verified against the
// root committed in the log. The verdict is identical to AuditNode's.
func (s *Scenario) AuditNodeParallel(node sig.NodeID, workers int) (*audit.Result, error) {
	target, auths, a, err := s.auditorFor(node)
	if err != nil {
		return nil, err
	}
	res, _, err := a.Audit(audit.AuditRequest{
		Node: node, NodeIdx: uint32(target.Index()), Engine: audit.EngineParallel,
		Entries: target.Log.Entries(), Auths: auths,
		Options: audit.EngineOptions{
			Workers:     workers,
			Materialize: func(snapIdx uint32) (*snapshot.Restored, error) { return target.Snaps.Materialize(int(snapIdx)) },
		},
	})
	return res, err
}

// AuditNodeStream is AuditNode on the streaming pipeline: the node's log is
// compressed into the columnar container and audited straight from it —
// decode, chain verification and epoch replay overlapped in bounded memory.
// The verdict is identical to AuditNode's.
func (s *Scenario) AuditNodeStream(node sig.NodeID, workers, window int) (*audit.Result, audit.StreamStats, error) {
	target, auths, a, err := s.auditorFor(node)
	if err != nil {
		return nil, audit.StreamStats{}, err
	}
	compressed := logcomp.CompressEntries(target.Log.Entries())
	res, stats, err := a.Audit(audit.AuditRequest{
		Node: node, NodeIdx: uint32(target.Index()), Engine: audit.EngineStream,
		Compressed: compressed, Auths: auths,
		Options: audit.EngineOptions{
			Workers: workers, Window: window,
			Materialize: func(snapIdx uint32) (*snapshot.Restored, error) { return target.Snaps.Materialize(int(snapIdx)) },
		},
	})
	return res, stats.Stream, err
}

// AuditInputs exposes the raw materials of an audit of node — the target
// monitor, the collected authenticators, and a configured auditor — for
// callers that drive the pipeline in nonstandard ways (streaming-mode
// experiments, CLI tools).
func (s *Scenario) AuditInputs(node sig.NodeID) (*avmm.Monitor, []tevlog.Authenticator, *audit.Auditor, error) {
	return s.auditorFor(node)
}

// AuditNodeDist is AuditNode with the replay stage fanned out over an
// epoch backend — simulated network workers or real TCP workers, or
// in-process replay workers when opts.Backend is nil. The node's snapshot
// store supplies epoch starting states (root-verified by the coordinator
// before dispatch); the verdict is byte-identical to AuditNode's.
func (s *Scenario) AuditNodeDist(node sig.NodeID, opts audit.DistOptions) (*audit.Result, audit.DistStats, error) {
	target, auths, a, err := s.auditorFor(node)
	if err != nil {
		return nil, audit.DistStats{}, err
	}
	if opts.Materialize == nil {
		opts.Materialize = func(snapIdx uint32) (*snapshot.Restored, error) {
			return target.Snaps.Materialize(int(snapIdx))
		}
	}
	if opts.DeltaSource == nil {
		opts.DeltaSource = func(k uint32) (*snapshot.Delta, error) {
			return target.Snaps.Delta(int(k))
		}
	}
	res, stats, err := a.Audit(audit.AuditRequest{
		Node: node, NodeIdx: uint32(target.Index()), Engine: audit.EngineDist,
		Entries: target.Log.Entries(), Auths: auths,
		Options: opts.EngineOptions, Backend: opts.Backend,
	})
	return res, stats.Dist, err
}

// botDriver synthesizes player input: a seeded random walk with aim
// wiggle, fire bursts, reloads, occasional jumps and weapon switches. The
// aggressive variant holds fire continuously — the §5.4 external aimbot,
// which produces cheat-like inputs without modifying the image.
type botDriver struct {
	mon        *avmm.Monitor
	rng        uint64
	intervalNs uint64
	nextNs     uint64
	aggressive bool
}

func (b *botDriver) rand() uint32 {
	b.rng ^= b.rng << 13
	b.rng ^= b.rng >> 7
	b.rng ^= b.rng << 17
	return uint32(b.rng)
}

// Tick implements avmm.Driver.
func (b *botDriver) Tick(_ *avmm.World, nowNs uint64) {
	for nowNs >= b.nextNs {
		b.nextNs += b.intervalNs
		r := b.rand()
		dx := r % 3
		dy := (r >> 2) % 3
		aimDelta := (r >> 4) & 0x3F // small wiggle, re-centered by +128 offset
		fire := uint32(0)
		if b.aggressive || (r>>10)&7 < 3 { // ~38% of intervals fire
			fire = 1
		}
		reload := (r >> 13) & 1
		jump := (r >> 14) & 1
		duck := (r >> 15) & 1
		weapon := uint32(0)
		if (r>>16)&0xF == 0 { // occasional switch
			weapon = (r >> 20) & 3
		}
		ev := dx | dy<<2 | (aimDelta+96)<<4 | fire<<12 | reload<<13 | jump<<14 | duck<<15 | weapon<<16
		b.mon.InjectInput(ev)
	}
}
