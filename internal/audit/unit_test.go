package audit

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
	"repro/internal/wire"
)

// compileT compiles MiniC or fails the test.
func compileT(t *testing.T, name, src string) *vm.Image {
	t.Helper()
	img, err := lang.Compile(name, src, lang.Options{MemSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// synthLog builds a log with the given entries appended under a null
// signer (chain hashes computed, no signatures needed).
func synthLog(entries ...tevlog.Entry) []tevlog.Entry {
	l := tevlog.New(sig.NullSigner{Node: "m"})
	for _, e := range entries {
		l.Append(e.Type, e.Content)
	}
	return l.All()
}

func nondetEntry(port uint32, val uint64) tevlog.Entry {
	return tevlog.Entry{Type: tevlog.TypeNondet,
		Content: (&wire.NondetContent{Port: port, Value: val}).Marshal()}
}

func eventEntry(ev *wire.EventContent) tevlog.Entry {
	typ := tevlog.TypeIRQ
	if ev.Kind == wire.EventSnapshot {
		typ = tevlog.TypeSnapshot
	}
	return tevlog.Entry{Type: typ, Content: ev.Marshal()}
}

func TestReplayConsumesCleanLog(t *testing.T) {
	img := compileT(t, "clock3", `
		const CLOCK_LO = 0x01;
		func main() {
			out(0x60, in(CLOCK_LO));
			out(0x60, in(CLOCK_LO));
			out(0x60, in(CLOCK_LO));
			halt();
		}
	`)
	entries := synthLog(
		nondetEntry(vm.PortClockLo, 100),
		nondetEntry(vm.PortClockLo, 200),
		nondetEntry(vm.PortClockLo, 300),
	)
	rp, err := NewReplayFromImage("m", img, 1)
	if err != nil {
		t.Fatal(err)
	}
	rp.Feed(entries)
	rp.Close()
	rp.Run()
	if f := rp.Fault(); f != nil {
		t.Fatalf("clean log diverged: %v", f)
	}
	if !rp.Done() {
		t.Fatal("not done")
	}
	// The logged values were fed back verbatim.
	if d := rp.Devices().Debug; len(d) != 3 || d[0] != 100 || d[1] != 200 || d[2] != 300 {
		t.Fatalf("debug = %v", d)
	}
}

func TestReplayDetectsWrongPortOrder(t *testing.T) {
	img := compileT(t, "clock1", `
		const CLOCK_LO = 0x01;
		func main() { out(0x60, in(CLOCK_LO)); halt(); }
	`)
	entries := synthLog(nondetEntry(vm.PortClockHi, 0)) // wrong port
	rp, err := NewReplayFromImage("m", img, 1)
	if err != nil {
		t.Fatal(err)
	}
	rp.Feed(entries)
	rp.Run()
	f := rp.Fault()
	if f == nil || !strings.Contains(f.Detail, "port") {
		t.Fatalf("fault = %v", f)
	}
}

func TestReplayDetectsLogPastHalt(t *testing.T) {
	img := compileT(t, "halts", `func main() { halt(); }`)
	entries := synthLog(nondetEntry(vm.PortClockLo, 1))
	rp, err := NewReplayFromImage("m", img, 1)
	if err != nil {
		t.Fatal(err)
	}
	rp.Feed(entries)
	rp.Run()
	if f := rp.Fault(); f == nil || !strings.Contains(f.Detail, "halt") {
		t.Fatalf("fault = %v", f)
	}
}

func TestReplayDetectsForgedLandmarkState(t *testing.T) {
	// The guest runs a known number of instructions then halts. An event
	// entry claims an interrupt was raised at a reachable icount but with a
	// wrong branch count — the forged landmark the full triple catches.
	img := compileT(t, "spin", `
		func main() {
			var i = 0;
			while (i < 100) { i = i + 1; }
			halt();
		}
	`)
	entries := synthLog(eventEntry(&wire.EventContent{
		Kind: wire.EventIRQ, IRQ: 0,
		Landmark: vm.Landmark{ICount: 50, Branches: 9999, PC: 0x1000},
	}))
	rp, err := NewReplayFromImage("m", img, 1)
	if err != nil {
		t.Fatal(err)
	}
	rp.Feed(entries)
	rp.Run()
	if f := rp.Fault(); f == nil || !strings.Contains(f.Detail, "landmark mismatch") {
		t.Fatalf("fault = %v", f)
	}
}

func TestReplayBudgetExhaustion(t *testing.T) {
	// The log claims a clock read that the (divergent) image never
	// performs; the replayer must not spin forever.
	img := compileT(t, "noclock", `
		func main() {
			var i = 0;
			while (1) { i = i + 1; }
		}
	`)
	entries := synthLog(nondetEntry(vm.PortClockLo, 5))
	rp, err := NewReplayFromImage("m", img, 1)
	if err != nil {
		t.Fatal(err)
	}
	rp.Feed(entries)
	rp.Close()
	rp.MaxInstructions = 100_000
	rp.Run()
	if f := rp.Fault(); f == nil || !strings.Contains(f.Detail, "budget") {
		t.Fatalf("fault = %v", f)
	}
}

func TestReplayBudgetPausesUntilClose(t *testing.T) {
	// While the feed is incomplete, budget exhaustion pauses (later entries
	// can only raise the budget); the fault verdict is rendered at Close.
	// This is what keeps streaming and one-shot verdicts identical.
	img := compileT(t, "noclock2", `
		func main() {
			var i = 0;
			while (1) { i = i + 1; }
		}
	`)
	entries := synthLog(nondetEntry(vm.PortClockLo, 5))
	rp, err := NewReplayFromImage("m", img, 1)
	if err != nil {
		t.Fatal(err)
	}
	rp.Feed(entries)
	rp.MaxInstructions = 100_000
	rp.Run()
	if f := rp.Fault(); f != nil {
		t.Fatalf("incomplete feed rendered a budget verdict: %v", f)
	}
	if rp.Pending() == 0 {
		t.Fatal("expected the unreproduced entry to remain pending")
	}
	rp.Close()
	rp.Run()
	if f := rp.Fault(); f == nil || !strings.Contains(f.Detail, "budget") {
		t.Fatalf("fault after Close = %v", f)
	}
}

func TestReplayUnexpectedOutput(t *testing.T) {
	// The image sends, but the log's next replayable entry is a nondet:
	// "outputs that are not in the log".
	img := compileT(t, "sender", `
		const NET_TX_BYTE = 0x28;
		const NET_TX_COMMIT = 0x29;
		const CLOCK_LO = 0x01;
		func main() {
			out(NET_TX_BYTE, 1);
			out(NET_TX_COMMIT, 0);
			out(0x60, in(CLOCK_LO));
			halt();
		}
	`)
	entries := synthLog(
		nondetEntry(vm.PortClockLo, 7), // log claims clock read happens first
		tevlog.Entry{Type: tevlog.TypeSend,
			Content: (&wire.SendContent{MsgID: 2, Dest: 0, Payload: []byte{1}}).Marshal()},
	)
	rp, err := NewReplayFromImage("m", img, 1)
	if err != nil {
		t.Fatal(err)
	}
	rp.Feed(entries)
	rp.Run()
	if f := rp.Fault(); f == nil {
		t.Fatal("divergent output order not detected")
	}
}

func TestReplayPayloadMismatch(t *testing.T) {
	img := compileT(t, "sender", `
		const NET_TX_BYTE = 0x28;
		const NET_TX_COMMIT = 0x29;
		func main() {
			out(NET_TX_BYTE, 1);
			out(NET_TX_COMMIT, 0);
			halt();
		}
	`)
	entries := synthLog(tevlog.Entry{Type: tevlog.TypeSend,
		Content: (&wire.SendContent{MsgID: 1, Dest: 0, Payload: []byte{9}}).Marshal()})
	rp, err := NewReplayFromImage("m", img, 1)
	if err != nil {
		t.Fatal(err)
	}
	rp.Feed(entries)
	rp.Run()
	if f := rp.Fault(); f == nil || !strings.Contains(f.Detail, "mismatch") {
		t.Fatalf("fault = %v", f)
	}
}

func TestIncrementalFeedEqualsOneShot(t *testing.T) {
	img := compileT(t, "clockN", `
		const CLOCK_LO = 0x01;
		func main() {
			var i = 0;
			while (i < 6) { out(0x60, in(CLOCK_LO)); i = i + 1; }
			halt();
		}
	`)
	var entries []tevlog.Entry
	for i := 0; i < 6; i++ {
		entries = append(entries, nondetEntry(vm.PortClockLo, uint64(i*10)))
	}
	entries = synthLog(entries...)

	oneShot, err := NewReplayFromImage("m", img, 1)
	if err != nil {
		t.Fatal(err)
	}
	oneShot.Feed(entries)
	oneShot.Run()

	incr, err := NewReplayFromImage("m", img, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(entries); i += 2 {
		incr.Feed(entries[i : i+2])
		incr.Run()
	}
	if oneShot.Fault() != nil || incr.Fault() != nil {
		t.Fatalf("faults: %v, %v", oneShot.Fault(), incr.Fault())
	}
	if oneShot.Stats.NondetsConsumed != incr.Stats.NondetsConsumed {
		t.Fatal("incremental and one-shot replay disagree")
	}
}

func TestSyntacticFaults(t *testing.T) {
	opts := SyntacticOptions{NodeIdx: 0, Keys: sig.NewKeyStore()}
	cases := []struct {
		name string
		log  []tevlog.Entry
		want string
	}{
		{"malformed send", synthLog(tevlog.Entry{Type: tevlog.TypeSend, Content: []byte{0x80}}), "malformed SEND"},
		{"send id mismatch", synthLog(tevlog.Entry{Type: tevlog.TypeSend,
			Content: (&wire.SendContent{MsgID: 99, Dest: 0}).Marshal()}), "does not match entry sequence"},
		{"ack references non-send", synthLog(
			tevlog.Entry{Type: tevlog.TypeNondet, Content: (&wire.NondetContent{Port: 1}).Marshal()},
			tevlog.Entry{Type: tevlog.TypeAck, Content: (&wire.AckContent{MsgID: 1, PeerNode: "x"}).Marshal()},
		), "non-SEND"},
		{"non-monotonic landmarks", synthLog(
			eventEntry(&wire.EventContent{Kind: wire.EventIRQ, Landmark: vm.Landmark{ICount: 100}}),
			eventEntry(&wire.EventContent{Kind: wire.EventIRQ, Landmark: vm.Landmark{ICount: 50}}),
		), "not monotonic"},
		{"injection without recv", synthLog(
			eventEntry(&wire.EventContent{Kind: wire.EventInjectPacket, RecvSeq: 1, Payload: []byte("x")}),
		), "non-RECV"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, fr := SyntacticCheck("m", c.log, opts)
			if fr == nil {
				t.Fatal("no fault")
			}
			if !strings.Contains(fr.Detail, c.want) {
				t.Fatalf("fault %q does not contain %q", fr.Detail, c.want)
			}
		})
	}
}

func TestSyntacticDetectsAlteredInjection(t *testing.T) {
	rc := &wire.RecvContent{MsgID: 1, SrcNode: "peer", SrcIdx: 1, Payload: []byte("genuine")}
	log := synthLog(
		tevlog.Entry{Type: tevlog.TypeRecv, Content: rc.Marshal()},
		eventEntry(&wire.EventContent{
			Kind: wire.EventInjectPacket, RecvSeq: 1, SrcIdx: 1, Payload: []byte("altered"),
		}),
	)
	_, fr := SyntacticCheck("m", log, SyntacticOptions{Keys: sig.NewKeyStore()})
	if fr == nil || !strings.Contains(fr.Detail, "differs") {
		t.Fatalf("fault = %v", fr)
	}
}

// TestSyntacticDetectsDroppedInjection: an uninjected RECV is a fault
// exactly when a message received after it was injected. The monitor
// injects in arrival order, so the honest shapes — a segment or spot-check
// chunk ending with the newest messages still in the injection pipeline —
// must pass, and a fault must name the lowest dropped sequence number,
// whatever order the checker's maps iterate in.
func TestSyntacticDetectsDroppedInjection(t *testing.T) {
	recv := func(id uint64) tevlog.Entry {
		rc := &wire.RecvContent{MsgID: id, SrcNode: "peer", SrcIdx: 1, Payload: []byte{byte(id)}}
		return tevlog.Entry{Type: tevlog.TypeRecv, Content: rc.Marshal()}
	}
	inject := func(recvSeq uint64) tevlog.Entry {
		return eventEntry(&wire.EventContent{
			Kind: wire.EventInjectPacket, RecvSeq: recvSeq, SrcIdx: 1, Payload: []byte{byte(recvSeq)},
		})
	}
	for _, tc := range []struct {
		name     string
		log      []tevlog.Entry
		faultSeq uint64 // 0: must pass
		inFlight int
	}{
		// Only the second message is injected: the first was dropped.
		{"dropped", synthLog(recv(1), recv(2), inject(2)), 1, 0},
		// Both arrived, the first was injected, the log ends: the second is
		// next in the monitor's FIFO, not dropped.
		{"honest pipeline tail", synthLog(recv(1), recv(2), inject(1)), 0, 1},
		// A chunk that opens after RECV 1: its only injection is of that
		// older, pre-chunk message and says nothing about RECV 2.
		{"honest chunk boundary", synthLog(recv(1), recv(2), inject(1))[1:], 0, 1},
		// Three dropped behind one injection: the lowest is reported.
		{"lowest dropped first", synthLog(recv(1), recv(2), recv(3), recv(4), inject(4)), 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < 20; round++ {
				stats, fr := SyntacticCheck("m", tc.log, SyntacticOptions{Keys: sig.NewKeyStore()})
				if tc.faultSeq == 0 {
					if fr != nil {
						t.Fatalf("honest log faulted: %v", fr)
					}
					if stats.InFlightRecvs != tc.inFlight {
						t.Fatalf("InFlightRecvs = %d, want %d", stats.InFlightRecvs, tc.inFlight)
					}
					continue
				}
				if fr == nil || !strings.Contains(fr.Detail, "never injected") {
					t.Fatalf("fault = %v", fr)
				}
				if fr.EntrySeq != tc.faultSeq {
					t.Fatalf("round %d: fault names entry %d, want the lowest dropped message %d", round, fr.EntrySeq, tc.faultSeq)
				}
			}
		})
	}
}

func TestSyntacticToleratesInFlightTail(t *testing.T) {
	rc := &wire.RecvContent{MsgID: 1, SrcNode: "peer", SrcIdx: 1, Payload: []byte("m1")}
	log := synthLog(tevlog.Entry{Type: tevlog.TypeRecv, Content: rc.Marshal()})
	stats, fr := SyntacticCheck("m", log, SyntacticOptions{Keys: sig.NewKeyStore()})
	if fr != nil {
		t.Fatalf("in-flight tail message faulted: %v", fr)
	}
	if stats.InFlightRecvs != 1 {
		t.Fatalf("InFlightRecvs = %d", stats.InFlightRecvs)
	}
}

func TestSyntacticDoubleInjection(t *testing.T) {
	rc := &wire.RecvContent{MsgID: 1, SrcNode: "peer", SrcIdx: 1, Payload: []byte("m")}
	inj := eventEntry(&wire.EventContent{
		Kind: wire.EventInjectPacket, RecvSeq: 1, SrcIdx: 1, Payload: []byte("m"),
	})
	log := synthLog(tevlog.Entry{Type: tevlog.TypeRecv, Content: rc.Marshal()}, inj, inj)
	_, fr := SyntacticCheck("m", log, SyntacticOptions{Keys: sig.NewKeyStore()})
	if fr == nil || !strings.Contains(fr.Detail, "twice") {
		t.Fatalf("fault = %v", fr)
	}
}

func TestNonResponseEvidence(t *testing.T) {
	signer := sig.MustGenerateRSA("m", sig.DefaultKeyBits, "nr")
	keys := sig.NewKeyStore()
	keys.Add(signer.Public())
	l := tevlog.New(signer)
	l.Append(tevlog.TypeSend, []byte("x"))
	auth, err := l.LastAuthenticator()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyNonResponse(&NonResponseEvidence{Accused: "m", Auth: auth}, keys); err != nil {
		t.Fatalf("genuine non-response evidence rejected: %v", err)
	}
	if err := VerifyNonResponse(&NonResponseEvidence{Accused: "other", Auth: auth}, keys); err == nil {
		t.Fatal("mismatched accusation accepted")
	}
	bad := auth
	bad.Sig = append([]byte(nil), auth.Sig...)
	bad.Sig[0] ^= 1
	if err := VerifyNonResponse(&NonResponseEvidence{Accused: "m", Auth: bad}, keys); err == nil {
		t.Fatal("forged non-response evidence accepted")
	}
}

func TestFindSnapshots(t *testing.T) {
	log := synthLog(
		nondetEntry(vm.PortClockLo, 1),
		eventEntry(&wire.EventContent{Kind: wire.EventSnapshot, SnapIdx: 0, Landmark: vm.Landmark{ICount: 5}}),
		nondetEntry(vm.PortClockLo, 2),
		eventEntry(&wire.EventContent{Kind: wire.EventSnapshot, SnapIdx: 1, Landmark: vm.Landmark{ICount: 10}}),
	)
	points, err := FindSnapshots(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].SnapIdx != 0 || points[1].SnapIdx != 1 {
		t.Fatalf("points = %+v", points)
	}
	if points[0].EntryIndex != 1 || points[1].EntryIndex != 3 {
		t.Fatalf("entry indices = %d, %d", points[0].EntryIndex, points[1].EntryIndex)
	}
}

// stubMaterialize satisfies the router's "a state source exists" check;
// the cut itself never materializes anything.
func stubMaterialize(uint32) (*snapshot.Restored, error) {
	return nil, errNoState
}

var errNoState = errors.New("no state")

// TestRouterCut pins the one cut rule every epoch engine's jobs come from:
// an epoch ends at each snapshot entry when start states can be
// materialized, costs its landmark instruction span, and a tail no snapshot
// closes is costed at the log's instructions-per-entry rate so far.
func TestRouterCut(t *testing.T) {
	snap := func(idx uint32, icount uint64) tevlog.Entry {
		return eventEntry(&wire.EventContent{Kind: wire.EventSnapshot, SnapIdx: idx, Landmark: vm.Landmark{ICount: icount}})
	}
	nondet := func(v uint64) tevlog.Entry { return nondetEntry(vm.PortClockLo, v) }
	type job struct {
		boot    bool
		snap    uint32
		entries int
		cost    uint64
	}
	for _, tc := range []struct {
		name        string
		log         []tevlog.Entry
		materialize func(uint32) (*snapshot.Restored, error)
		want        []job
	}{
		{
			// The tail's cost: 100 instructions / 4 entries * 2 tail entries.
			name:        "tail",
			log:         []tevlog.Entry{nondet(1), snap(0, 40), nondet(2), snap(1, 100), nondet(3), nondet(4)},
			materialize: stubMaterialize,
			want:        []job{{true, 0, 2, 40}, {false, 0, 2, 60}, {false, 1, 2, 50}},
		},
		{
			name:        "ends exactly at a snapshot",
			log:         []tevlog.Entry{nondet(1), snap(0, 40), nondet(2), snap(1, 100)},
			materialize: stubMaterialize,
			want:        []job{{true, 0, 2, 40}, {false, 0, 2, 60}},
		},
		{
			name: "no Materialize",
			log:  []tevlog.Entry{nondet(1), snap(0, 40), nondet(2), snap(1, 100), nondet(3), nondet(4)},
			want: []job{{true, 0, 6, 0}},
		},
		{
			name:        "no snapshots",
			log:         []tevlog.Entry{nondet(1), nondet(2), nondet(3)},
			materialize: stubMaterialize,
			want:        []job{{true, 0, 3, 0}},
		},
		{
			name:        "empty log",
			materialize: stubMaterialize,
			want:        []job{{true, 0, 0, 0}},
		},
		{
			// The syntactic check faults on the malformed entry; the cut
			// goes on past it: 40 instructions / 2 entries * 3 tail entries.
			name: "an unparseable snapshot entry cuts nothing",
			log: []tevlog.Entry{nondet(1), snap(0, 40), nondet(2),
				{Type: tevlog.TypeSnapshot, Content: []byte{0xFF}}, nondet(3)},
			materialize: stubMaterialize,
			want:        []job{{true, 0, 2, 40}, {false, 0, 3, 60}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := synthLog(tc.log...)
			jobs := (&Auditor{}).cutJobs("m", log, tc.materialize)
			var got []job
			at := 0
			for i, j := range jobs {
				if j.Index != i {
					t.Fatalf("job %d has index %d", i, j.Index)
				}
				if !j.Boot && j.StartSeq != log[at-1].Seq {
					t.Fatalf("job %d starts at seq %d, want the snapshot entry's %d", i, j.StartSeq, log[at-1].Seq)
				}
				at += len(j.Entries)
				got = append(got, job{j.Boot, j.StartSnap, len(j.Entries), j.Cost})
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("jobs = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// costJobs builds epoch jobs carrying only the costs, the one field
// costBlocks reads besides position.
func costJobs(costs ...uint64) []*EpochJob {
	jobs := make([]*EpochJob, len(costs))
	for i, c := range costs {
		jobs[i] = &EpochJob{Index: i, Cost: c}
	}
	return jobs
}

// checkContiguousCover fails unless the blocks are in-order contiguous
// runs that together cover every job exactly once — the invariant that keeps
// a connection's delta chains empty.
func checkContiguousCover(t *testing.T, blocks [][]int, n int) {
	t.Helper()
	next := 0
	for w, b := range blocks {
		for _, pos := range b {
			if pos != next {
				t.Fatalf("worker %d holds job %d, want %d (blocks %v)", w, pos, next, blocks)
			}
			next++
		}
	}
	if next != n {
		t.Fatalf("blocks cover %d of %d jobs: %v", next, n, blocks)
	}
}

// TestCoordinatorCostWeightedBlocks is the skewed-epoch dispatch check:
// one epoch ten times hotter than its neighbours must not drag half the
// log onto one worker the way an equal-count split does.
func TestCoordinatorCostWeightedBlocks(t *testing.T) {
	jobs := costJobs(100, 100, 100, 600, 100, 100)
	blocks := costBlocks(jobs, 3)
	checkContiguousCover(t, blocks, len(jobs))

	blockCost := func(b []int) uint64 {
		var sum uint64
		for _, pos := range b {
			sum += jobs[pos].Cost
		}
		return sum
	}
	// The equal-count split [0 1][2 3][4 5] puts 700 of 1100 instructions
	// on the middle worker. The weighted split must do strictly better,
	// which for this skew means the hot epoch rides alone.
	var max uint64
	for _, b := range blocks {
		if c := blockCost(b); c > max {
			max = c
		}
	}
	if max >= 700 {
		t.Fatalf("hottest block carries %d of 1100 instructions, no better than the equal-count split (blocks %v)", max, blocks)
	}
	for _, b := range blocks {
		if len(b) == 1 && b[0] == 3 {
			return
		}
	}
	t.Fatalf("hot epoch 3 shares a block: %v", blocks)
}

func TestCoordinatorCostBlocksZeroFallback(t *testing.T) {
	// Logs recorded before landmark counts were shipped have unknown
	// (zero) costs; the split must degrade to the old equal-count layout.
	jobs := costJobs(0, 0, 0, 0, 0, 0, 0)
	blocks := costBlocks(jobs, 3)
	checkContiguousCover(t, blocks, len(jobs))
	want := [][]int{{0, 1}, {2, 3}, {4, 5, 6}}
	for w := range want {
		if len(blocks[w]) != len(want[w]) {
			t.Fatalf("blocks = %v, want %v", blocks, want)
		}
	}
}

func TestCoordinatorCostBlocksMoreWorkersThanJobs(t *testing.T) {
	// total < workers exercises the boundary arithmetic at tiny scales;
	// every job must still land somewhere, each on its own worker.
	jobs := costJobs(1, 1)
	blocks := costBlocks(jobs, 5)
	checkContiguousCover(t, blocks, len(jobs))
	nonEmpty := 0
	for _, b := range blocks {
		if len(b) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 2 {
		t.Fatalf("2 jobs spread over %d workers: %v", nonEmpty, blocks)
	}
}
