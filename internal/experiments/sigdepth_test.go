package experiments

import (
	"testing"

	"repro/internal/avmm"
	"repro/internal/dbapp"
	"repro/internal/game"
	"repro/internal/sig"
	"repro/internal/tevlog"
	"repro/internal/wire"
)

// sigDepth is what the finished logs of one recording say about the order
// its signatures could have been computed in.
type sigDepth struct {
	// signatures is how many the recording made: one per SEND entry (the
	// message's authenticator) and one per RECV entry (the acknowledgement's).
	signatures int
	// chain is the longest chain of signatures each of which is covered by
	// the next, the floor of a recording's signing time in sign-times
	// whatever the number of cores.
	chain int
	// twoCores is the length in sign-times of the schedule that signs
	// everything at chain depth 1, then everything at depth 2 and so on,
	// two at a time.
	twoCores int
}

// measureSigDepth computes the dependency depth of every signature of a
// recording from its logs alone. The signature a node makes at sequence
// number s covers its chain hash at s, and with it every peer signature
// logged in its RECV and ACK entries up to s — the bytes of those
// signatures are in the hashed content, so s cannot be signed before they
// exist. A node's own earlier signatures are not in its log: it can make
// them in any order.
func measureSigDepth(t *testing.T, mons []*avmm.Monitor) sigDepth {
	t.Helper()
	type node struct {
		entries []tevlog.Entry
		next    int   // entries[:next] have been walked
		covered int   // deepest peer signature logged in entries[:next]
		depth   []int // depth[i]: of the signature made at entries[i]; 0 if none is
	}
	nodes := make(map[sig.NodeID]*node)
	for _, mon := range mons {
		es := mon.Log.Entries()
		nodes[mon.Node()] = &node{entries: es, depth: make([]int, len(es))}
	}
	// walk advances through id's log up to and including sequence number
	// seq, giving every signature made on the way its depth. A logged
	// signature was made before the entry that logs it, so the walk into
	// the peer's log that a RECV or ACK entry asks for ends: the recursion
	// follows the recording's causal order backwards.
	var walk func(id sig.NodeID, seq uint64) *node
	// depthOf is the depth of the signature that a peer's log says id made
	// at seq.
	depthOf := func(id sig.NodeID, seq uint64) int {
		n := nodes[id]
		if n == nil || seq == 0 || seq > uint64(len(n.entries)) {
			t.Fatalf("a log names signature (%s, %d), which no log holds", id, seq)
		}
		if walk(id, seq); n.depth[seq-1] == 0 {
			t.Fatalf("a log names signature (%s, %d), but that entry is neither a SEND nor a RECV", id, seq)
		}
		return n.depth[seq-1]
	}
	walk = func(id sig.NodeID, seq uint64) *node {
		n := nodes[id]
		for n.next < int(seq) {
			e := &n.entries[n.next]
			if e.Seq != uint64(n.next)+1 {
				t.Fatalf("%s entry %d has sequence number %d", id, n.next, e.Seq)
			}
			n.next++ // before recursing: the peer may name an earlier entry of this log
			switch e.Type {
			case tevlog.TypeRecv:
				c, err := wire.ParseRecv(e.Content)
				if err != nil {
					t.Fatal(err)
				}
				n.covered = max(n.covered, depthOf(sig.NodeID(c.SrcNode), c.SenderSeq))
			case tevlog.TypeAck:
				c, err := wire.ParseAck(e.Content)
				if err != nil {
					t.Fatal(err)
				}
				n.covered = max(n.covered, depthOf(sig.NodeID(c.PeerNode), c.PeerSeq))
			}
			if e.Type == tevlog.TypeSend || e.Type == tevlog.TypeRecv {
				n.depth[e.Seq-1] = n.covered + 1
			}
		}
		return n
	}
	var out sigDepth
	var perLevel []int
	for id, n := range nodes {
		for _, d := range walk(id, uint64(len(n.entries))).depth {
			if d == 0 {
				continue
			}
			out.signatures++
			out.chain = max(out.chain, d)
			for len(perLevel) < d {
				perLevel = append(perLevel, 0)
			}
			perLevel[d-1]++
		}
	}
	for _, k := range perLevel {
		out.twoCores += (k + 1) / 2
	}
	return out
}

// TestSignatureDependencyDepth states the ceiling for recording faster by
// signing in parallel (ROADMAP, "Recording past the in-order-delivery
// ceiling"): signatures ÷ P is not the floor, because the signatures of a
// request/reply exchange cover one another. On the two recordings the
// benchmark makes, the longest chain is 28 % and 38 % of all signatures:
// however many cores sign, game cannot record in under 1213 sign-times and
// minisql in under 1833, and two cores working level by level need 2284 and
// 2797 — against 2154 and 2392 for signatures ÷ 2. Keyed digests stand in
// for RSA: the logs, and so the dependencies, are the same.
func TestSignatureDependencyDepth(t *testing.T) {
	const second = 1_000_000_000
	// The daemon also signs one authenticator per snapshot entry. Nothing
	// covers those, so they are outside the chains.
	check := func(name string, mons []*avmm.Monitor, daemon avmm.DaemonStats, want sigDepth) {
		t.Helper()
		got := measureSigDepth(t, mons)
		snaps := 0
		for _, mon := range mons {
			snaps += len(mon.SnapshotAuths())
		}
		t.Logf("%-8s %d signatures, longest chain %d (%.0f %%), two cores level by level %d sign-times (signatures/2 = %d); %d snapshot authenticators",
			name, got.signatures, got.chain, 100*float64(got.chain)/float64(got.signatures), got.twoCores, (got.signatures+1)/2, snaps)
		if got.signatures+snaps != daemon.Signatures {
			t.Errorf("%s: the logs account for %d signatures and %d snapshot authenticators, the logging daemon made %d", name, got.signatures, snaps, daemon.Signatures)
		}
		if got != want {
			t.Errorf("%s: %+v, want %+v", name, got, want)
		}
	}

	g, err := game.NewScenario(game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, FakeSignatures: true, Cost: avmm.DefaultCostModel(),
		Seed: 1234, SnapshotEveryNs: 20 * second / 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(20 * second)
	check("game", append([]*avmm.Monitor{g.Server}, g.Players...), g.World.DaemonStats(),
		sigDepth{signatures: 4308, chain: 1213, twoCores: 2284})

	db, err := dbapp.NewScenario(dbapp.ScenarioConfig{
		Mode: avmm.ModeAVMMRSA, FakeSignatures: true, Cost: avmm.DefaultCostModel(), Seed: 1234, SnapshotEveryNs: second / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Run(6 * second)
	check("minisql", []*avmm.Monitor{db.Server, db.Client}, db.World.DaemonStats(),
		sigDepth{signatures: 4784, chain: 1833, twoCores: 2797})
}
