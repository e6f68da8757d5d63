// Package avmmtest holds what the tests of the packages that build worlds
// (game, dbapp, the root avm package) share: the check that a recording
// does not depend on how many cores the logging daemon had.
package avmmtest

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/avmm"
	"repro/internal/sig"
	"repro/internal/tevlog"
)

// fingerprint renders everything two recordings of the same world must
// agree on, node by node: the log (head hash, entry count, bytes), the
// guest's progress, every authenticator the node collected from its peers
// or issued for its snapshots — signatures included —, the daemon's virtual
// busy time, the monitor's counters and the node's traffic.
func fingerprint(w *avmm.World) string {
	var b strings.Builder
	auths := func(label string, as []tevlog.Authenticator) {
		fmt.Fprintf(&b, "  %s: %d\n", label, len(as))
		for _, a := range as {
			fmt.Fprintf(&b, "    %s %d %x %x\n", a.Node, a.Seq, a.Hash, a.Sig)
		}
	}
	for i, mon := range w.Monitors {
		head := mon.Log.LastHash()
		fmt.Fprintf(&b, "%s: head=%x entries=%d logbytes=%d icount=%d daemon=%dns retransmits=%d bad=%d dropped=%d net=%+v\n",
			mon.Node(), head, mon.Log.Len(), mon.TotalLogBytes(), mon.Machine.ICount, mon.DaemonBusyNs,
			mon.Retransmits, mon.BadFrames, mon.DroppedFrames, *w.Net.NodeStats(i))
		peers := make([]sig.NodeID, 0, len(mon.PeerAuths))
		for id := range mon.PeerAuths {
			peers = append(peers, id)
		}
		sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
		for _, id := range peers {
			auths("from "+string(id), mon.PeerAuths[id])
		}
		auths("snapshots", mon.SnapshotAuths())
	}
	return b.String()
}

// record builds a world with GOMAXPROCS set to procs, runs it to untilNs and
// returns its fingerprint. It fails the test if a goroutine started during
// the run is still alive after World.Run returned.
func record(t testing.TB, procs int, build func() *avmm.World, untilNs uint64) (string, avmm.DaemonStats) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	w := build() // the daemon sizes itself when the world is made
	before := runtime.NumGoroutine()
	w.Run(untilNs)
	// Run waits for every daemon goroutine's last statement, not for the
	// runtime to retire it: give the scheduler a moment to do that.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("GOMAXPROCS=%d: %d goroutines after World.Run, %d before", procs, after, before)
	}
	return fingerprint(w), w.DaemonStats()
}

// RequireSameRecording records build's world once with one P, where every
// signature is computed the moment it is requested, and once with four,
// where the daemon signs concurrently with the simulation, and requires
// identical fingerprints. build must return the same world both times: the
// same signer objects (fresh RSA keys never repeat), images and seeds.
func RequireSameRecording(t *testing.T, build func() *avmm.World, untilNs uint64) {
	t.Helper()
	inline, inlineStats := record(t, 1, build, untilNs)
	concurrent, stats := record(t, 4, build, untilNs)
	if inline != concurrent {
		a, b := strings.Split(inline, "\n"), strings.Split(concurrent, "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("recording depends on GOMAXPROCS; first difference at line %d:\n  one P:   %s\n  four Ps: %s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("recording depends on GOMAXPROCS: %d fingerprint lines with one P, %d with four", len(a), len(b))
	}
	if inlineStats.Waits != 0 || inlineStats.MaxInFlight != 0 {
		t.Errorf("one P: signatures were handed off: %+v", inlineStats)
	}
	if stats.Signatures != inlineStats.Signatures {
		t.Errorf("signatures requested: %d with four Ps, %d with one", stats.Signatures, inlineStats.Signatures)
	}
	if stats.Signatures == 0 {
		t.Error("the world signed nothing; the comparison is vacuous")
	}
	if stats.MaxInFlight == 0 {
		t.Errorf("four Ps: no signature was handed to the daemon: %+v", stats)
	}
}
