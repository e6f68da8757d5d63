package audit

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/vm"
	"repro/internal/wire"
)

// FuzzWorkerConn feeds arbitrary frame sequences to the worker-side
// connection handler EpochWorker and the simulated netsim worker share.
// Whatever arrives, the handler answers with a reply or ends the connection
// with an error; it never panics, and it never answers — verdict or
// need-state — for a session that was not registered on the connection. A
// session end is never answered, and once it has run the connection holds
// neither the session nor a replica for it.
// Every input starts on a connection that holds a replica for session 7,
// resting at snapshot 1 (heldBase), so delta jobs chain on it: a delta job
// rolled on that replica passes only if its chain leads from the replica's
// state to the state its StartRoot commits. The replay itself is stubbed:
// the property is about frames, and rolling a delta chain, which is frame
// handling, still runs.
func FuzzWorkerConn(f *testing.F) {
	frames := func(fs ...distFrame) []byte {
		var buf bytes.Buffer
		_ = writeDistFrames(&buf, fs...) // a bytes.Buffer write cannot fail
		return buf.Bytes()
	}
	img := &vm.Image{Name: "fuzz", Code: []byte{0, 0, 0, 0}, TextSize: 4, MemSize: 1 << 12}
	sessionFrame := wire.SessionFromImage("node", img, 1, false, false).Marshal()
	session := distFrame{wire.DistFrameMuxSession, wire.AppendMuxID(7, sessionFrame)}
	boot := jobToWire(&EpochJob{Index: 0, Boot: true}).Marshal()
	full := jobToWire(&EpochJob{Index: 1, StartSnap: 1, Start: &snapshot.Restored{Index: 1, Mem: make([]byte, 1<<12)}}).Marshal()
	delta := (&wire.AuditDeltaJob{Index: 2, StartSnap: 2, BaseSnap: 1}).Marshal()
	f.Add(frames(session,
		distFrame{wire.DistFrameMuxJob, wire.AppendMuxID(7, boot)},
		distFrame{wire.DistFrameMuxJob, wire.AppendMuxID(7, full)},
		distFrame{wire.DistFrameMuxDeltaJob, wire.AppendMuxID(7, delta)},
		distFrame{wire.DistFramePing, []byte{1}}))
	f.Add(frames(distFrame{wire.DistFrameMuxJob, wire.AppendMuxID(7, boot)}))          // no session
	f.Add(frames(session, distFrame{wire.DistFrameMuxJob, wire.AppendMuxID(8, boot)})) // wrong session
	f.Add(frames(distFrame{wire.DistFrameSession, nil}))                               // retired protocol
	end := distFrame{wire.DistFrameMuxSessionEnd, wire.AppendMuxID(7, nil)}
	f.Add(frames(end, distFrame{wire.DistFrameMuxJob, wire.AppendMuxID(7, boot)}))                // a job after the end
	f.Add(frames(end, end))                                                                       // ended twice
	f.Add(frames(end, session, distFrame{wire.DistFrameMuxDeltaJob, wire.AppendMuxID(7, delta)})) // re-registered: no replica
	f.Add(frames(distFrame{wire.DistFrameMuxSessionEnd, wire.AppendMuxID(7, []byte{0})}))         // trailing bytes
	f.Add([]byte{0, 0, 0, 0})
	// Chains on the held replica: honest, empty, and with a doctored page.
	base := newHeldBase()
	deltaJob := func(dj *wire.AuditDeltaJob) []byte {
		return frames(distFrame{wire.DistFrameMuxDeltaJob, wire.AppendMuxID(7, dj.Marshal())})
	}
	f.Add(deltaJob(base.chain(false)))
	f.Add(deltaJob(&wire.AuditDeltaJob{Index: 3, StartSnap: 1, StartRoot: base.root, BaseSnap: 1, BaseRoot: base.root}))
	f.Add(deltaJob(base.chain(true)))
	wrongEnd := base.chain(false)
	wrongEnd.StartRoot[0] ^= 0xFF
	f.Add(deltaJob(wrongEnd))
	f.Add(append(deltaJob(base.chain(false)), deltaJob(base.chain(false))...))

	f.Fuzz(func(t *testing.T, b []byte) {
		wc := newWorkerConn()
		if _, _, err := wc.accept(wire.DistFrameMuxSession, wire.AppendMuxID(7, sessionFrame)); err != nil {
			t.Fatal(err)
		}
		registered := map[uint64]bool{7: true}
		wc.keep(7, wc.sessions[7], base.replica(t, wc.sessions[7]))
		stub := func(func() epochResult) (epochResult, bool) { return epochResult{}, true }
		for r := bytes.NewReader(b); r.Len() > 0; {
			kind, body, err := readDistFrame(r)
			if err != nil {
				return
			}
			reply, work, err := wc.accept(kind, body)
			if err != nil {
				if reply != nil || work != nil {
					t.Fatalf("accept returned both an error (%v) and something to do", err)
				}
				return // the connection ends
			}
			if kind.Retired() {
				t.Fatalf("a frame of the retired protocol (kind %d) was accepted", kind)
			}
			if kind == wire.DistFrameMuxSession {
				id, _, _ := wire.SplitMuxID(body)
				registered[id] = true
			}
			if work != nil && work.end {
				if !registered[work.sessID] {
					t.Fatalf("session end accepted for unregistered session %d", work.sessID)
				}
				delete(registered, work.sessID)
				if _, ok := wc.execute(work, stub); ok {
					t.Fatal("a session end was answered")
				}
				if _, ok := wc.sessions[work.sessID]; ok || slices.ContainsFunc(wc.held, func(h heldReplica) bool { return h.sessID == work.sessID }) {
					t.Fatalf("session %d ended, but the connection still holds it or its replica", work.sessID)
				}
				continue
			}
			if work != nil {
				if !registered[work.sessID] {
					t.Fatalf("job accepted for unregistered session %d", work.sessID)
				}
				onBase := work.deltaJob != nil && slices.ContainsFunc(wc.held, func(h heldReplica) bool {
					return h.sessID == work.sessID && h.img == work.sess.RefImage
				})
				out, ok := wc.execute(work, stub)
				if !ok {
					t.Fatal("execute declined to answer under an always-answering replay")
				}
				if onBase && out.kind == wire.DistFrameMuxVerdict {
					_, v, _ := wire.SplitMuxID(out.body)
					if verdict, err := wire.ParseAuditVerdict(v); err == nil && !verdict.HasFault && !base.leadsTo(work.deltaJob) {
						t.Fatalf("a chain that does not lead from the held state to StartRoot passed: %+v", work.deltaJob)
					}
				}
				reply = &out
			}
			if reply == nil {
				t.Fatalf("frame kind %d accepted with neither reply nor work", kind)
			}
			if reply.kind == wire.DistFrameMuxVerdict || reply.kind == wire.DistFrameMuxNeedState {
				id, _, err := wire.SplitMuxID(reply.body)
				if err != nil || !registered[id] {
					t.Fatalf("reply kind %d for unregistered session %d (err %v)", reply.kind, id, err)
				}
			}
		}
	})
}

// TestWorkerConnSessionEnd: a session end unregisters the session at once,
// but drops its replica only when it runs, behind the jobs accepted before
// it, and leaves other sessions' replicas alone. A job or a second end for
// the id afterwards is a protocol error.
func TestWorkerConnSessionEnd(t *testing.T) {
	img := &vm.Image{Name: "end", Code: []byte{0, 0, 0, 0}, TextSize: 4, MemSize: 1 << 12}
	sessionFrame := wire.SessionFromImage("node", img, 1, false, false).Marshal()
	base := newHeldBase()
	wc := newWorkerConn()
	for _, id := range []uint64{7, 8} {
		if _, _, err := wc.accept(wire.DistFrameMuxSession, wire.AppendMuxID(id, sessionFrame)); err != nil {
			t.Fatal(err)
		}
		wc.keep(id, wc.sessions[id], base.replica(t, wc.sessions[id]))
	}
	accept := func(kind wire.DistFrameKind, body []byte) *muxWork {
		t.Helper()
		reply, work, err := wc.accept(kind, body)
		if err != nil || reply != nil || work == nil {
			t.Fatalf("frame kind %d: reply %v, work %v, err %v", kind, reply, work, err)
		}
		return work
	}
	job := accept(wire.DistFrameMuxDeltaJob, wire.AppendMuxID(7, base.chain(false).Marshal()))
	end := accept(wire.DistFrameMuxSessionEnd, wire.AppendMuxID(7, nil))
	if _, ok := wc.sessions[7]; ok {
		t.Fatal("session 7 is still registered after its end was accepted")
	}
	stub := func(func() epochResult) (epochResult, bool) { return epochResult{}, true }
	if out, _ := wc.execute(job, stub); out.kind != wire.DistFrameMuxVerdict {
		t.Fatalf("the job accepted before the end answered kind %d: its replica was dropped ahead of it", out.kind)
	}
	wc.keep(7, job.sess, base.replica(t, job.sess)) // as if the job had rested
	if _, ok := wc.execute(end, stub); ok {
		t.Fatal("a session end was answered")
	}
	if len(wc.held) != 1 || wc.held[0].sessID != 8 {
		t.Fatalf("after ending session 7 the connection holds %+v, want session 8's replica alone", wc.held)
	}
	for _, kind := range []wire.DistFrameKind{wire.DistFrameMuxJob, wire.DistFrameMuxSessionEnd} {
		body := wire.AppendMuxID(7, nil)
		if kind == wire.DistFrameMuxJob {
			body = wire.AppendMuxID(7, jobToWire(&EpochJob{Index: 0, Boot: true}).Marshal())
		}
		if _, _, err := wc.accept(kind, body); err == nil || !strings.Contains(err.Error(), "unregistered session 7") {
			t.Fatalf("frame kind %d for the ended session: err %v, want the unregistered-session error", kind, err)
		}
	}
}

// heldBase is the state the fuzzed connection's held replica rests at:
// snapshot 1 of a two-page guest.
type heldBase struct {
	st   *snapshot.Restored
	root [32]byte
}

func newHeldBase() *heldBase {
	devs := vm.NewDeviceSet(1)
	st := &snapshot.Restored{
		Index: 1, Mem: bytes.Repeat([]byte{0x5A}, 2*vm.PageSize),
		Machine: (&vm.State{PC: vm.CodeBase, ICount: 100}).MarshalRegisters(),
		Device:  devs.Snapshot(), AuthDevice: devs.AuthSnapshot(),
	}
	return &heldBase{st: st, root: snapshot.RootOfState(st.Mem, st.Machine, st.AuthDevice)}
}

// replica boots a replica at the base for sess and runs it to rest there.
func (b *heldBase) replica(t *testing.T, sess Session) *Replay {
	rp, fault := startEpoch(sess.Node, nil, b.st, b.root, 0, sess.RNGSeed)
	if fault != nil {
		t.Fatal(fault)
	}
	restAt(t, rp, 1, b.root)
	return rp
}

// chain is a two-step delta job from the base — a full page, then a short
// one with new registers — with a page of the first step flipped if doctor.
func (b *heldBase) chain(doctor bool) *wire.AuditDeltaJob {
	dj := &wire.AuditDeltaJob{Index: 2, StartSnap: 3, BaseSnap: 1, BaseRoot: b.root}
	mem := bytes.Clone(b.st.Mem)
	for k, page := range [][]byte{bytes.Repeat([]byte{0xA5}, vm.PageSize), {1, 2, 3}} {
		p := uint32(k)
		copy(mem[int(p)*vm.PageSize:], append(bytes.Clone(page), make([]byte, vm.PageSize-len(page))...))
		machine := (&vm.State{PC: vm.CodeBase, ICount: uint64(200 + k)}).MarshalRegisters()
		step := wire.DeltaStep{
			FromIndex: uint32(1 + k), ToRoot: snapshot.RootOfState(mem, machine, b.st.AuthDevice),
			PageIndices: []uint32{p}, PageData: [][]byte{bytes.Clone(page)}, OldHashes: make([][32]byte, 1),
			Machine: machine, Device: b.st.Device, AuthDevice: b.st.AuthDevice,
		}
		dj.Steps = append(dj.Steps, step)
		dj.StartRoot = step.ToRoot
	}
	if doctor {
		dj.Steps[0].PageData[0][7] ^= 0xFF
	}
	return dj
}

// leadsTo reports whether dj, chained from the base, leads to the state its
// StartRoot commits, computed from scratch: each step's pages written over
// the base state, a short page's tail zeroed, pages past the guest skipped,
// and the last step's blobs.
func (b *heldBase) leadsTo(dj *wire.AuditDeltaJob) bool {
	if dj.BaseSnap != 1 || dj.BaseRoot != b.root {
		return false
	}
	mem := bytes.Clone(b.st.Mem)
	machine, dev := b.st.Machine, b.st.AuthDevice
	for _, step := range dj.Steps {
		if len(step.PageData) != len(step.PageIndices) {
			return false
		}
		for k, p := range step.PageIndices {
			if int(p) >= len(mem)/vm.PageSize {
				continue
			}
			page := mem[int(p)*vm.PageSize : (int(p)+1)*vm.PageSize]
			clear(page)
			copy(page, step.PageData[k])
		}
		machine, dev = step.Machine, step.AuthDevice
	}
	return snapshot.RootOfState(mem, machine, dev) == dj.StartRoot
}

// TestReadDistFrameAllocatesWhatArrives: a frame header is four bytes any
// peer can send, so its length claim alone must not size an allocation — a
// header claiming the maximum frame followed by a hang-up costs kilobytes,
// not a gigabyte. (FuzzWorkerConn found the original up-front allocation.)
func TestReadDistFrameAllocatesWhatArrives(t *testing.T) {
	hdr := []byte{0x3F, 0xFF, 0xFF, 0xFF} // just under wire.MaxDistFrame
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readDistFrame(bytes.NewReader(append(hdr, 1, 2, 3)))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame read without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a 3-byte body behind a %d-byte claim allocated %d bytes", wire.MaxDistFrame-1, grew)
	}
	// And a complete frame still reads back whole.
	var buf bytes.Buffer
	body := bytes.Repeat([]byte{0xAB}, 200<<10)
	_ = writeDistFrames(&buf, distFrame{wire.DistFrameMuxJob, body})
	kind, got, err := readDistFrame(&buf)
	if err != nil || kind != wire.DistFrameMuxJob || !bytes.Equal(got, body) {
		t.Fatalf("round trip of a 200 KiB frame: kind %d, %d bytes, err %v", kind, len(got), err)
	}
}
