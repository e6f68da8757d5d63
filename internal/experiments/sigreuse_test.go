package experiments

import (
	"crypto/sha256"
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/dbapp"
	"repro/internal/game"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
)

// verifiedSet counts signature verifications by (node, message, signature)
// — for an authenticator that is (node, seq, hash, sig) — so that an audit
// can be asked how many of its verifications repeated an earlier one.
type verifiedSet struct {
	mu    sync.Mutex
	seen  map[[32]byte]int
	total int
}

func (s *verifiedSet) distinct() int { return len(s.seen) }

// countingVerifier is a node's verifier reporting to one or more sets.
type countingVerifier struct {
	sig.Verifier
	sets []*verifiedSet
}

func (v countingVerifier) Verify(msg, signature []byte) bool {
	h := sha256.New()
	h.Write([]byte(v.ID()))
	h.Write([]byte{0})
	h.Write(msg)
	h.Write([]byte{0})
	h.Write(signature)
	var key [32]byte
	h.Sum(key[:0])
	for _, s := range v.sets {
		s.mu.Lock()
		s.seen[key]++
		s.total++
		s.mu.Unlock()
	}
	return v.Verifier.Verify(msg, signature)
}

// counted returns a with every key wrapped to report to sets.
func counted(a *audit.Auditor, sets ...*verifiedSet) *audit.Auditor {
	ks := sig.NewKeyStore()
	for _, id := range a.Keys.IDs() {
		v, _ := a.Keys.Lookup(id)
		ks.Add(countingVerifier{Verifier: v, sets: sets})
	}
	out := *a
	out.Keys = ks
	return &out
}

func newVerifiedSet() *verifiedSet { return &verifiedSet{seen: make(map[[32]byte]int)} }

// auditCounted audits one monitor's log from boot on the dist engine with
// in-process epochs and fails the test unless it passes.
func auditCounted(t *testing.T, a *audit.Auditor, mon *avmm.Monitor, auths []tevlog.Authenticator) {
	t.Helper()
	res, _, err := a.Audit(audit.AuditRequest{
		Node: mon.Node(), NodeIdx: uint32(mon.Index()), Engine: audit.EngineDist,
		Entries: mon.Log.Entries(), Auths: auths,
		Options: audit.EngineOptions{Materialize: func(k uint32) (*snapshot.Restored, error) {
			return mon.Snaps.Materialize(int(k))
		}},
	})
	if err != nil || !res.Passed {
		t.Fatalf("audit of %s: %v %v", mon.Node(), err, res)
	}
}

// TestSignatureReuseAcrossAnAudit measures what a verified-set in front of
// Authenticator.Verify would save (ROADMAP, "the audit's signature work …
// done once"): how many (node, seq, hash, sig) tuples an audit verifies more
// than once, on the three shapes the benchmark audits — one game player,
// the minisql server, and all three nodes of a game as a fleet. Keyed
// digests stand in for RSA: the tuples are the same, the recording is fast.
//
// Within one node's audit nothing repeats: the chain authenticators are the
// audited node's own and the RECV/ACK-carried ones its peers'. Across the
// nodes of a fleet every one does: the authenticator B attached to a
// message is verified once inside A's RECV entry when A is audited, and
// once as a chain authenticator — A collected it — when B is.
func TestSignatureReuseAcrossAnAudit(t *testing.T) {
	const second = 1_000_000_000

	gameAudit := func(snapEveryNs uint64, nodes ...sig.NodeID) (fleet *verifiedSet, perNode []*verifiedSet) {
		s, err := game.NewScenario(game.ScenarioConfig{
			Players: 2, Mode: avmm.ModeAVMMRSA, FakeSignatures: true, Cost: avmm.DefaultCostModel(),
			Seed: 1234, SnapshotEveryNs: snapEveryNs,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(20 * second)
		fleet = newVerifiedSet()
		for _, node := range nodes {
			mon, auths, a, err := s.AuditInputs(node)
			if err != nil {
				t.Fatal(err)
			}
			own := newVerifiedSet()
			auditCounted(t, counted(a, fleet, own), mon, auths)
			perNode = append(perNode, own)
		}
		return fleet, perNode
	}

	player, _ := gameAudit(20*second/8, "player1")
	t.Logf("game, player1 alone:   %d verifications, %d distinct", player.total, player.distinct())
	if player.total == 0 || player.total != player.distinct() {
		t.Errorf("a single node's audit verified %d tuples %d times", player.distinct(), player.total)
	}

	db, err := dbapp.NewScenario(dbapp.ScenarioConfig{
		Mode: avmm.ModeAVMMRSA, FakeSignatures: true, Cost: avmm.DefaultCostModel(), Seed: 1234, SnapshotEveryNs: second / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Run(6 * second)
	auths, err := db.ServerAuths()
	if err != nil {
		t.Fatal(err)
	}
	server := newVerifiedSet()
	auditCounted(t, counted(db.Auditor(), server), db.Server, auths)
	t.Logf("minisql, server alone: %d verifications, %d distinct", server.total, server.distinct())
	if server.total == 0 || server.total != server.distinct() {
		t.Errorf("a single node's audit verified %d tuples %d times", server.distinct(), server.total)
	}

	fleet, perNode := gameAudit(20*second/48, "server", "player1", "player2")
	t.Logf("fleet, three nodes:    %d verifications, %d distinct (%.0f %% repeated)",
		fleet.total, fleet.distinct(), 100*float64(fleet.total-fleet.distinct())/float64(fleet.total))
	for i, own := range perNode {
		if own.total != own.distinct() {
			t.Errorf("fleet node %d: its own audit verified %d tuples %d times; repeats are expected across nodes only", i, own.distinct(), own.total)
		}
	}
	for _, n := range fleet.seen {
		if n > 2 {
			t.Fatalf("a tuple was verified %d times; an authenticator has one issuer and one recipient", n)
		}
	}
	if fleet.total == fleet.distinct() {
		t.Error("no tuple repeated across the fleet: the chain authenticators of one node should be the RECV/ACK-carried ones of its peers")
	}
}
