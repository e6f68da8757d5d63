package audit

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/logcomp"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
	"repro/internal/wire"
)

// The signature-fault table: logs signed with real RSA keys whose RECV, ACK
// and chain signatures are forged in every combination with structural
// faults that matters for ordering, each audited on the batch, stream and
// chunk paths at one P and at four and held to the pinned serial pass
// (serialoracle_test.go): the same fault, the same entry, the same stats.

// sigCycles is how many five-entry message cycles the honest log has. Each
// carries two peer signatures, so the log holds several times sigRing
// signatures and many times the stream window used below.
const sigCycles = 400

// sigWorld is the material every case starts from: the audited machine "m"
// (node index 0), its peer (index 1), both with real keys, and the honest
// log's contents — signed once, because 800 RSA signatures are the
// expensive part.
type sigWorld struct {
	m, peer *sig.RSASigner
	keys    *sig.KeyStore
	honest  []tevlog.Entry // Type and Content only
	img     *vm.Image
	start   *snapshot.Restored
}

var (
	sigWorldOnce sync.Once
	theSigWorld  *sigWorld
)

// entry positions inside cycle c (sequence numbers are position+1).
func recvAt(c int) int   { return 5 * c }
func injectAt(c int) int { return 5*c + 1 }
func sendAt(c int) int   { return 5*c + 2 }
func ackAt(c int) int    { return 5*c + 3 }
func nondetAt(c int) int { return 5*c + 4 }

func getSigWorld(t testing.TB) *sigWorld {
	t.Helper()
	sigWorldOnce.Do(func() {
		signers := sig.MustGenerateRSAAll([]sig.NodeID{"m", "peer"}, sig.DefaultKeyBits, "sigfault")
		w := &sigWorld{m: signers[0], peer: signers[1], keys: sig.NewKeyStore()}
		w.keys.Add(w.m.Public())
		w.keys.Add(w.peer.Public())
		// The peer's own log is where genuine sender signatures and
		// acknowledgments come from.
		peerLog := tevlog.New(w.peer)
		for c := 0; c < sigCycles; c++ {
			payload := []byte(fmt.Sprintf("request %d", c))
			// RECV: the peer logged SEND(payload → node 0) and signed it.
			prev := peerLog.LastHash()
			seq := peerLog.NextSeq()
			peerLog.Append(tevlog.TypeSend, (&wire.SendContent{MsgID: seq, Dest: 0, Payload: payload}).Marshal())
			sent, err := peerLog.Authenticator(seq)
			if err != nil {
				panic(err)
			}
			recvSeq := uint64(recvAt(c) + 1)
			w.honest = append(w.honest,
				tevlog.Entry{Type: tevlog.TypeRecv, Content: (&wire.RecvContent{
					MsgID: seq, SrcNode: "peer", SrcIdx: 1, Payload: payload,
					SenderSeq: seq, SenderPrev: prev, SenderSig: sent.Sig,
				}).Marshal()},
				eventEntry(&wire.EventContent{
					Kind: wire.EventInjectPacket, Landmark: vm.Landmark{ICount: uint64(100 * (c + 1))},
					RecvSeq: recvSeq, SrcIdx: 1, Payload: payload,
				}),
				tevlog.Entry{Type: tevlog.TypeSend, Content: (&wire.SendContent{
					MsgID: uint64(sendAt(c) + 1), Dest: 1, Payload: []byte("reply"),
				}).Marshal()},
			)
			// ACK: the peer logged the reply's receipt and signed that entry.
			peerLog.Append(tevlog.TypeRecv, []byte("reply"))
			acked, err := peerLog.LastAuthenticator()
			if err != nil {
				panic(err)
			}
			w.honest = append(w.honest,
				tevlog.Entry{Type: tevlog.TypeAck, Content: (&wire.AckContent{
					MsgID: uint64(sendAt(c) + 1), PeerNode: "peer",
					PeerSeq: acked.Seq, PeerHash: acked.Hash, PeerSig: acked.Sig,
				}).Marshal()},
				nondetEntry(vm.PortClockLo, uint64(c)),
			)
		}
		img, err := lang.Compile("halts", `func main() { halt(); }`, lang.Options{MemSize: 64 * 1024})
		if err != nil {
			panic(err)
		}
		w.img = img
		w.start = &snapshot.Restored{Mem: make([]byte, 64*1024), Machine: []byte{1}, AuthDevice: []byte{2}}
		w.start.Root = snapshot.RootOfState(w.start.Mem, w.start.Machine, w.start.AuthDevice)
		theSigWorld = w
	})
	return theSigWorld
}

// sigLog is one case's log under construction: the honest contents, edited.
type sigLog struct {
	t       testing.TB
	ents    []tevlog.Entry
	badAuth int // index of a chain authenticator to corrupt, or -1
}

// headAuth is the index of the head authenticator among those build
// collects: it follows one for every 97th entry.
const headAuth = (5*sigCycles - 1) / 97

func (l *sigLog) recv(c int, edit func(*wire.RecvContent)) {
	rc, err := wire.ParseRecv(l.ents[recvAt(c)].Content)
	if err != nil {
		l.t.Fatal(err)
	}
	edit(rc)
	l.ents[recvAt(c)].Content = rc.Marshal()
}

func (l *sigLog) ack(c int, edit func(*wire.AckContent)) {
	ac, err := wire.ParseAck(l.ents[ackAt(c)].Content)
	if err != nil {
		l.t.Fatal(err)
	}
	edit(ac)
	l.ents[ackAt(c)].Content = ac.Marshal()
}

func (l *sigLog) event(i int, edit func(*wire.EventContent)) {
	ev, err := wire.ParseEvent(l.ents[i].Content)
	if err != nil {
		l.t.Fatal(err)
	}
	edit(ev)
	l.ents[i].Content = ev.Marshal()
}

func flipSig(s []byte) []byte {
	out := append([]byte(nil), s...)
	out[len(out)/2] ^= 0x10
	return out
}

func (l *sigLog) forgeRecv(c int) {
	l.recv(c, func(rc *wire.RecvContent) { rc.SenderSig = flipSig(rc.SenderSig) })
}
func (l *sigLog) forgeAck(c int) {
	l.ack(c, func(ac *wire.AckContent) { ac.PeerSig = flipSig(ac.PeerSig) })
}

// backwardsLandmark is a structural fault at the injection of cycle c.
func (l *sigLog) backwardsLandmark(c int) {
	l.event(injectAt(c), func(ev *wire.EventContent) { ev.Landmark.ICount = 1 })
}

// build chains the case's contents into m's log and collects m's
// authenticators: every 97th entry, and the head.
func (l *sigLog) build(w *sigWorld) ([]tevlog.Entry, []tevlog.Authenticator) {
	log := tevlog.New(w.m)
	for _, e := range l.ents {
		log.Append(e.Type, e.Content)
	}
	var auths []tevlog.Authenticator
	for seq := uint64(97); seq < uint64(log.Len()); seq += 97 {
		a, err := log.Authenticator(seq)
		if err != nil {
			l.t.Fatal(err)
		}
		auths = append(auths, a)
	}
	head, err := log.LastAuthenticator()
	if err != nil {
		l.t.Fatal(err)
	}
	auths = append(auths, head)
	if l.badAuth >= 0 {
		auths[l.badAuth].Sig = flipSig(auths[l.badAuth].Sig)
	}
	return log.All(), auths
}

// sigFaultCases is the table. want is a fragment of the expected fault's
// detail and wantSeq its entry (0: not pinned here) — stated by hand so the
// oracle is itself checked; everything else is compared against the oracle.
var sigFaultCases = []struct {
	name    string
	edit    func(l *sigLog)
	want    string
	wantSeq uint64
}{
	{"clean", func(l *sigLog) {}, "", 0},
	{"forged RECV signature", func(l *sigLog) { l.forgeRecv(30) },
		"RECV entry carries an invalid sender signature", uint64(recvAt(30) + 1)},
	{"forged RECV payload under a genuine signature", func(l *sigLog) {
		l.recv(30, func(rc *wire.RecvContent) { rc.Payload = []byte("request 31") })
		l.event(injectAt(30), func(ev *wire.EventContent) { ev.Payload = []byte("request 31") })
	}, "RECV entry carries an invalid sender signature", uint64(recvAt(30) + 1)},
	{"bad ACK signature", func(l *sigLog) { l.forgeAck(200) },
		"ACK entry carries an invalid peer signature", uint64(ackAt(200) + 1)},
	{"unknown SrcNode", func(l *sigLog) {
		l.recv(15, func(rc *wire.RecvContent) { rc.SrcNode = "stranger" })
	}, "RECV entry carries an invalid sender signature", uint64(recvAt(15) + 1)},
	{"unknown PeerNode", func(l *sigLog) {
		l.ack(399, func(ac *wire.AckContent) { ac.PeerNode = "stranger" })
	}, "ACK entry carries an invalid peer signature", uint64(ackAt(399) + 1)},
	// Precedence against structural faults, at distances inside one batch,
	// across batches, and across the checker's whole ring.
	{"bad signature, structural fault 3 entries later", func(l *sigLog) { l.forgeAck(50); l.backwardsLandmark(51) },
		"ACK entry carries an invalid peer signature", uint64(ackAt(50) + 1)},
	{"bad signature, structural fault 40 cycles later", func(l *sigLog) { l.forgeRecv(50); l.backwardsLandmark(90) },
		"RECV entry carries an invalid sender signature", uint64(recvAt(50) + 1)},
	{"bad signature, structural fault 300 cycles later", func(l *sigLog) { l.forgeRecv(50); l.backwardsLandmark(350) },
		"RECV entry carries an invalid sender signature", uint64(recvAt(50) + 1)},
	{"structural fault, bad signature later", func(l *sigLog) { l.backwardsLandmark(50); l.forgeRecv(51) },
		"event landmarks are not monotonic", uint64(injectAt(50) + 1)},
	{"structural fault, bad signature much later", func(l *sigLog) { l.backwardsLandmark(50); l.forgeAck(390) },
		"event landmarks are not monotonic", uint64(injectAt(50) + 1)},
	{"malformed entry after a bad signature", func(l *sigLog) {
		l.forgeAck(120)
		l.ents[nondetAt(120)].Content = []byte{0x80}
	}, "ACK entry carries an invalid peer signature", uint64(ackAt(120) + 1)},
	{"two bad signatures", func(l *sigLog) { l.forgeAck(310); l.forgeRecv(20) },
		"RECV entry carries an invalid sender signature", uint64(recvAt(20) + 1)},
	{"two bad signatures in one entry pair", func(l *sigLog) { l.forgeRecv(77); l.forgeAck(77) },
		"RECV entry carries an invalid sender signature", uint64(recvAt(77) + 1)},
	// An ACK for a sequence number still ahead of it is a fault only if the
	// segment gets that far — decided at Finish, from a candidate recorded
	// by the very entry whose signature is bad.
	{"bad ACK signature on a forward reference inside the segment", func(l *sigLog) {
		l.ack(60, func(ac *wire.AckContent) { ac.MsgID = uint64(nondetAt(70) + 1); ac.PeerSig = flipSig(ac.PeerSig) })
	}, "ACK references a non-SEND entry", uint64(ackAt(60) + 1)},
	{"bad ACK signature on a forward reference outside the segment", func(l *sigLog) {
		l.ack(60, func(ac *wire.AckContent) { ac.MsgID = 5*sigCycles + 1000; ac.PeerSig = flipSig(ac.PeerSig) })
	}, "ACK entry carries an invalid peer signature", uint64(ackAt(60) + 1)},
	{"forward reference recorded after a bad signature", func(l *sigLog) {
		l.forgeRecv(60)
		l.ack(61, func(ac *wire.AckContent) { ac.MsgID = uint64(nondetAt(70) + 1) })
	}, "RECV entry carries an invalid sender signature", uint64(recvAt(60) + 1)},
	{"forward reference recorded before a bad signature", func(l *sigLog) {
		l.ack(59, func(ac *wire.AckContent) { ac.MsgID = uint64(nondetAt(70) + 1) })
		l.forgeRecv(60)
	}, "ACK references a non-SEND entry", uint64(ackAt(59) + 1)},
	{"forward injection recorded after a bad signature", func(l *sigLog) {
		l.forgeAck(60)
		l.event(injectAt(61), func(ev *wire.EventContent) { ev.RecvSeq = uint64(nondetAt(61) + 1) })
	}, "ACK entry carries an invalid peer signature", uint64(ackAt(60) + 1)},
	// The chain outranks the syntactic check whatever finished first.
	{"bad chain authenticator and a bad RECV signature", func(l *sigLog) { l.badAuth = 7; l.forgeRecv(13) },
		tevlog.ErrBadSignature.Error(), 0},
	{"bad head authenticator and a bad ACK signature", func(l *sigLog) { l.badAuth = headAuth; l.forgeAck(399) },
		tevlog.ErrBadSignature.Error(), 0},
}

// atProcs runs f with GOMAXPROCS set to n.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

func sigAuditor(w *sigWorld) *Auditor {
	return &Auditor{Keys: w.keys, RefImage: w.img, RNGSeed: 1, TamperEvident: true, VerifySignatures: true}
}

func TestSignatureFaultTable(t *testing.T) {
	w := getSigWorld(t)
	a := sigAuditor(w)
	for _, tc := range sigFaultCases {
		t.Run(tc.name, func(t *testing.T) {
			l := &sigLog{t: t, ents: append([]tevlog.Entry(nil), w.honest...), badAuth: -1}
			tc.edit(l)
			entries, auths := l.build(w)
			compressed := logcomp.CompressEntries(entries)
			// The chunk path audits the log minus its first ten cycles, from
			// the chain hash before them: a segment that does not start at 1.
			const cut = 50
			chunk := ChunkRequest{
				Node: "m", Start: w.start, StartRoot: w.start.Root,
				PrevHash: entries[cut-1].Hash, Entries: entries[cut:], Auths: auths,
			}

			want, faulted := serialVerifyAndCheck(a, "m", 0, tevlog.Hash{}, entries, auths, false)
			wantChunk, _ := serialVerifyAndCheck(a, "m", 0, chunk.PrevHash, chunk.Entries, auths, false)
			if faulted != (tc.want != "") {
				t.Fatalf("the serial pass says %+v; the case expects %q", want.Fault, tc.want)
			}
			if faulted && (!strings.Contains(want.Fault.Detail, tc.want) || (tc.wantSeq != 0 && want.Fault.EntrySeq != tc.wantSeq)) {
				t.Fatalf("the serial pass says %+v; the case expects %q at entry %d", want.Fault, tc.want, tc.wantSeq)
			}
			if faulted && !reflect.DeepEqual(want.Fault, wantChunk.Fault) {
				t.Fatalf("the serial pass disagrees with itself over the chunk: %+v vs %+v", want.Fault, wantChunk.Fault)
			}

			for _, procs := range []int{1, 4} {
				check := func(path string, req AuditRequest, want Result) {
					t.Helper()
					req.Node = "m"
					got, stats, err := a.Audit(req)
					if err != nil {
						t.Fatalf("%s, procs=%d: %v", path, procs, err)
					}
					if faulted {
						if !reflect.DeepEqual(*got, want) {
							t.Fatalf("%s, procs=%d:\n got %+v fault %+v\nwant %+v fault %+v", path, procs, *got, got.Fault, want, want.Fault)
						}
					} else if got.Syntactic != want.Syntactic || (got.Fault != nil && got.Fault.Check != CheckSemantic) {
						// A clean log goes on to replay, which is not this
						// table's subject: the guest here is one halt.
						t.Fatalf("%s, procs=%d: clean log: %+v fault %+v, want stats %+v", path, procs, *got, got.Fault, want.Syntactic)
					}
					// With one P the stage is the serial pass: no goroutine, no
					// waiting, and on a clean log every signature verified by
					// its submitter (a faulted audit stops reading results).
					if sg := stats.Sigs; procs == 1 && (sg.Helpers != 0 || sg.Waits != 0 || sg.WaitNs != 0 || (!faulted && sg.WaiterVerified != sg.Submitted)) {
						t.Fatalf("%s: one P, yet the stage ran as %+v", path, sg)
					}
					if stats.Sigs.Submitted == 0 {
						t.Fatalf("%s, procs=%d: no signature reached the stage", path, procs)
					}
					if req.Engine == EngineStream && stats.Stream.PeakResidentEntries > 128 {
						t.Fatalf("%s: %d entries resident in a window of 128", path, stats.Stream.PeakResidentEntries)
					}
				}
				atProcs(procs, func() {
					check("serial", AuditRequest{Engine: EngineSerial, Entries: entries, Auths: auths}, want)
					check("parallel", AuditRequest{Engine: EngineParallel, Entries: entries, Auths: auths}, want)
					check("stream", AuditRequest{Engine: EngineStream, Compressed: compressed, Auths: auths,
						Options: EngineOptions{Workers: 2, Window: 128}}, want)
					check("chunk", AuditRequest{Chunk: &chunk}, wantChunk)

					// The exported wrappers on their own, as bench/ and the
					// experiments call them.
					if faulted && want.Fault.Check == CheckSyntactic {
						opts := SyntacticOptions{Keys: w.keys, VerifySignatures: true}
						stats, fr := SyntacticCheck("m", entries, opts)
						if stats != want.Syntactic || !reflect.DeepEqual(fr, want.Fault) {
							t.Fatalf("SyntacticCheck, procs=%d: %+v %+v, want %+v %+v", procs, stats, fr, want.Syntactic, want.Fault)
						}
					}
				})
			}
		})
	}
}

// TestSyntacticCheckerPendingStateIsBounded: however long the log, the
// checker holds at most sigRing signatures in flight and its ring never
// grows; and a log with no signatures to verify allocates none.
func TestSyntacticCheckerPendingStateIsBounded(t *testing.T) {
	w := getSigWorld(t)
	for _, procs := range []int{1, 4} {
		atProcs(procs, func() {
			sigs := tevlog.NewSigStage(w.keys)
			c := NewSyntacticChecker("m", SyntacticOptions{Keys: w.keys, VerifySignatures: true}, sigs)
			entries := synthLog(w.honest...)
			if total := 2 * sigCycles; total < 3*sigRing {
				t.Fatalf("log holds %d signatures; the test needs several times sigRing = %d", total, sigRing)
			}
			peak := 0
			for i := range entries {
				c.Add(&entries[i])
				if c.n > peak {
					peak = c.n
				}
				if c.n > sigRing || len(c.ring) > sigRing {
					t.Fatalf("entry %d: %d signatures in flight in a ring of %d; the bound is %d", i, c.n, len(c.ring), sigRing)
				}
			}
			if peak != sigRing {
				t.Fatalf("procs=%d: peak in flight %d; a log this long should have filled the ring of %d", procs, peak, sigRing)
			}
			stats, fr := c.Finish()
			sigs.Close()
			if fr != nil || stats.SigsVerified != 2*sigCycles || c.n != 0 {
				t.Fatalf("procs=%d: %+v %+v, %d left in flight", procs, stats, fr, c.n)
			}
		})
	}
	c := NewSyntacticChecker("m", SyntacticOptions{Keys: w.keys}, nil)
	entries := synthLog(w.honest...)
	for i := range entries {
		c.Add(&entries[i])
	}
	if _, fr := c.Finish(); fr != nil || c.ring != nil {
		t.Fatalf("unsigned pass: fault %+v, ring of %d", fr, len(c.ring))
	}
}
