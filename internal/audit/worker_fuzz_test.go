package audit

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/vm"
	"repro/internal/wire"
)

// FuzzWorkerConn feeds arbitrary frame sequences to the worker-side
// connection handler EpochWorker and the simulated netsim worker share.
// Whatever arrives, the handler answers with a reply or ends the connection
// with an error; it never panics, and it never answers — verdict or
// need-state — for a session that was not registered on the connection.
// The replay itself is stubbed: the property is about frames, and fold
// verification of delta chains, which is frame handling, still runs.
func FuzzWorkerConn(f *testing.F) {
	frames := func(fs ...distFrame) []byte {
		var buf bytes.Buffer
		_ = writeDistFrames(&buf, fs...) // a bytes.Buffer write cannot fail
		return buf.Bytes()
	}
	img := &vm.Image{Name: "fuzz", Code: []byte{0, 0, 0, 0}, TextSize: 4, MemSize: 1 << 12}
	session := distFrame{wire.DistFrameMuxSession,
		wire.AppendMuxID(7, wire.SessionFromImage("node", img, 1, false, false).Marshal())}
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
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		wc := newWorkerConn()
		registered := make(map[uint64]bool)
		stub := func(Session, *EpochJob) (epochResult, bool) { return epochResult{}, true }
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
			if work != nil {
				if !registered[work.sessID] {
					t.Fatalf("job accepted for unregistered session %d", work.sessID)
				}
				out, ok := wc.execute(work, stub)
				if !ok {
					t.Fatal("execute declined to answer under an always-answering replay")
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
