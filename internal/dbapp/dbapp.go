// Package dbapp implements "minisql", the client/server database workload
// of the paper's spot-checking experiment (§6.12): a table server in one
// AVM and a benchmark client in another, run for a long period with
// periodic snapshots so that an auditor can check arbitrary k-chunks of the
// log. It stands in for MySQL 5.0.51 + sql-bench.
package dbapp

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/lang"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/tevlog"
	"repro/internal/vm"
)

// langCompile compiles a guest with the database-sized memory image.
func langCompile(name, src string) (*vm.Image, error) {
	return lang.Compile(name, src, lang.Options{MemSize: 256 * 1024})
}

const ports = `
const CLOCK_LO = 0x01;
const RNG = 0x03;
const NET_RX_STATUS = 0x20;
const NET_RX_LEN = 0x21;
const NET_RX_FROM = 0x22;
const NET_RX_BYTE = 0x23;
const NET_RX_DONE = 0x24;
const NET_TX_BYTE = 0x28;
const NET_TX_COMMIT = 0x29;
const TIMER_PERIOD = 0x40;
const DEBUG = 0x60;
`

// serverSource is the minisql server: an open-addressing hash table of
// (key, value) rows, with insert/select/update/delete operations over the
// network. Row storage dirties memory pages progressively, which is what
// gives the incremental snapshots of §6.12 their varying sizes.
const serverSource = ports + `
const SLOTS = 4096;
const SERVER = 0;

var keys[4096];
var vals[4096];
var used[4096];
var rows = 0;
var ops = 0;

interrupt(1) func on_net() { }

func slot_for(k) {
	var h = (k * 2654435761) % SLOTS;
	var probes = 0;
	while (probes < SLOTS) {
		if (used[h] == 0) { return h; }
		if (used[h] == 1 && keys[h] == k) { return h; }
		h = (h + 1) % SLOTS;
		probes = probes + 1;
	}
	return SLOTS;
}

func reply(to, status, val) {
	out(NET_TX_BYTE, 'R');
	out(NET_TX_BYTE, status);
	out(NET_TX_BYTE, val & 0xFF);
	out(NET_TX_BYTE, (val >> 8) & 0xFF);
	out(NET_TX_BYTE, (val >> 16) & 0xFF);
	out(NET_TX_BYTE, (val >> 24) & 0xFF);
	out(NET_TX_COMMIT, to);
}

func handle() {
	var n = in(NET_RX_LEN);
	var from = in(NET_RX_FROM);
	var op = in(NET_RX_BYTE);
	var k = in(NET_RX_BYTE) + (in(NET_RX_BYTE) << 8);
	var v = in(NET_RX_BYTE) + (in(NET_RX_BYTE) << 8) + (in(NET_RX_BYTE) << 16) + (in(NET_RX_BYTE) << 24);
	out(NET_RX_DONE, 0);
	ops = ops + 1;
	var s = slot_for(k);
	if (s == SLOTS) { reply(from, 2, 0); return; }
	if (op == 'I') {
		if (used[s] == 0) { rows = rows + 1; }
		used[s] = 1;
		keys[s] = k;
		vals[s] = v;
		reply(from, 0, rows);
	}
	if (op == 'Q') {
		if (used[s] == 1) { reply(from, 0, vals[s]); }
		else { reply(from, 1, 0); }
	}
	if (op == 'U') {
		if (used[s] == 1) { vals[s] = vals[s] + v; reply(from, 0, vals[s]); }
		else { reply(from, 1, 0); }
	}
	if (op == 'D') {
		if (used[s] == 1) { used[s] = 2; rows = rows - 1; reply(from, 0, 0); }
		else { reply(from, 1, 0); }
	}
}

func main() {
	sti();
	while (1) {
		while (in(NET_RX_STATUS) > 0) { handle(); }
		wfi();
	}
}
`

// clientSource is the sql-bench-style driver: batches of mixed operations
// on a seeded key distribution, paced by the timer.
const clientSource = ports + `
const SERVER = 0;
const OPS_PER_TICK = 4;
const KEYRANGE = 3000;

var sent = 0;
var replies = 0;
var okc = 0;
var tick = 0;
var last_tick = 0;

interrupt(0) func on_tick() { tick = tick + 1; }
interrupt(1) func on_net() { }

func send_op(op, k, v) {
	out(NET_TX_BYTE, op);
	out(NET_TX_BYTE, k & 0xFF);
	out(NET_TX_BYTE, (k >> 8) & 0xFF);
	out(NET_TX_BYTE, v & 0xFF);
	out(NET_TX_BYTE, (v >> 8) & 0xFF);
	out(NET_TX_BYTE, (v >> 16) & 0xFF);
	out(NET_TX_BYTE, (v >> 24) & 0xFF);
	out(NET_TX_COMMIT, SERVER);
	sent = sent + 1;
}

func drain() {
	while (in(NET_RX_STATUS) > 0) {
		var n = in(NET_RX_LEN);
		var t = in(NET_RX_BYTE);
		var status = in(NET_RX_BYTE);
		out(NET_RX_DONE, 0);
		replies = replies + 1;
		if (status == 0) { okc = okc + 1; }
	}
}

func do_batch() {
	var i = 0;
	while (i < OPS_PER_TICK) {
		var r = in(RNG);
		var k = r % KEYRANGE;
		var kind = (r >> 16) % 10;
		if (kind < 5) { send_op('I', k, r & 0xFFFF); }
		else {
			if (kind < 7) { send_op('Q', k, 0); }
			else {
				if (kind < 9) { send_op('U', k, 1); }
				else { send_op('D', k, 0); }
			}
		}
		i = i + 1;
	}
}

func main() {
	out(TIMER_PERIOD, 20000);
	sti();
	while (1) {
		drain();
		if (tick != last_tick) { last_tick = tick; do_batch(); }
		wfi();
	}
}
`

// ScenarioConfig sets up the minisql workload.
type ScenarioConfig struct {
	Mode            avmm.Mode
	Cost            avmm.CostModel
	Seed            uint64
	SnapshotEveryNs uint64
	KeySeed         string
	// FakeSignatures substitutes RSA-sized keyed digests for real RSA (see
	// game.ScenarioConfig).
	FakeSignatures bool
}

// Scenario is a running minisql deployment: server at node 0, client at
// node 1.
type Scenario struct {
	Cfg    ScenarioConfig
	Net    *netsim.Network
	World  *avmm.World
	Server *avmm.Monitor
	Client *avmm.Monitor
	Keys   *sig.KeyStore
	imgs   map[sig.NodeID]*vm.Image
}

// NewScenario generates the two machines' keys, compiles the guests and
// boots them.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	return newScenario(cfg, nil)
}

// newScenario is NewScenario with the signers of db-server and db-client
// supplied; nil makes them from cfg. A test that records one world twice
// and compares bytes passes both builds the same keys, because a fresh RSA
// key differs from one generation to the next whatever the seed.
func newScenario(cfg ScenarioConfig, signers map[sig.NodeID]sig.Signer) (*Scenario, error) {
	if cfg.KeySeed == "" {
		cfg.KeySeed = "minisql"
	}
	serverImg, err := BuildServer()
	if err != nil {
		return nil, err
	}
	clientImg, err := BuildClient()
	if err != nil {
		return nil, err
	}
	s := &Scenario{
		Cfg:  cfg,
		Net:  netsim.New(netsim.Config{BaseLatencyNs: 96_000, Seed: cfg.Seed + 1}),
		Keys: sig.NewKeyStore(),
		imgs: map[sig.NodeID]*vm.Image{"db-server": serverImg, "db-client": clientImg},
	}
	s.World = avmm.NewWorld(s.Net, s.Keys)
	if signers == nil {
		signers = avmm.NodeSigners(cfg.Mode, cfg.FakeSignatures, cfg.KeySeed, "db-server", "db-client")
	}
	s.Server, err = avmm.NewMonitor(avmm.Config{
		Node: "db-server", Index: 0, Mode: cfg.Mode, Cost: cfg.Cost,
		Signer: signers["db-server"], Keys: s.Keys, Image: serverImg, Net: s.Net,
		RNGSeed: cfg.Seed + 500, SnapshotEveryNs: cfg.SnapshotEveryNs,
	})
	if err != nil {
		return nil, err
	}
	s.Client, err = avmm.NewMonitor(avmm.Config{
		Node: "db-client", Index: 1, Mode: cfg.Mode, Cost: cfg.Cost,
		Signer: signers["db-client"], Keys: s.Keys, Image: clientImg, Net: s.Net,
		RNGSeed: cfg.Seed + 501,
	})
	if err != nil {
		return nil, err
	}
	if err := s.World.Add(s.Server); err != nil {
		return nil, err
	}
	if err := s.World.Add(s.Client); err != nil {
		return nil, err
	}
	return s, nil
}

// BuildServer compiles the minisql server image.
func BuildServer() (*vm.Image, error) {
	img, err := langCompile("minisql-server", serverSource)
	if err != nil {
		return nil, fmt.Errorf("dbapp: %w", err)
	}
	return img, nil
}

// BuildClient compiles the bench client image.
func BuildClient() (*vm.Image, error) {
	img, err := langCompile("minisql-client", clientSource)
	if err != nil {
		return nil, fmt.Errorf("dbapp: %w", err)
	}
	return img, nil
}

// Run advances the deployment to the given virtual time.
func (s *Scenario) Run(untilNs uint64) { s.World.Run(untilNs) }

// ServerAuths collects the authenticators the client holds for the server,
// the server's snapshot commitments, and its head commitment.
func (s *Scenario) ServerAuths() ([]tevlog.Authenticator, error) {
	auths := s.Client.AuthenticatorsFor("db-server")
	auths = append(auths, s.Server.SnapshotAuths()...)
	if s.Server.Log.Len() > 0 {
		head, err := s.Server.Log.LastAuthenticator()
		if err != nil {
			return nil, err
		}
		auths = append(auths, head)
	}
	return auths, nil
}

// Auditor returns an auditor configured for the server.
func (s *Scenario) Auditor() *audit.Auditor {
	img, err := BuildServer()
	if err != nil {
		panic(err) // the server image compiled once already; cannot fail
	}
	return &audit.Auditor{
		Keys: s.Keys, RefImage: img, RNGSeed: s.Cfg.Seed + 500,
		TamperEvident: s.Cfg.Mode.TamperEvident(), VerifySignatures: s.Cfg.Mode.Signs(),
	}
}
