package audit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vm"
	"repro/internal/wire"
)

// This file is the worker side of the dispatch protocol
// (docs/DISPATCH_PROTOCOL.md): length-prefixed frames between an audit
// coordinator and scenario-agnostic replay workers. One connection carries
// many audit sessions: the coordinator registers a session per audit (the
// reference configuration — image, node, RNG seed), then pipelines epoch
// jobs tagged with their session and reads verdicts tagged the same way,
// so a straggler's late verdict never desynchronizes the stream. What a
// worker does with a frame is written once, in workerConn, and driven by
// EpochWorker over TCP and by NetsimBackend's simulated workers.

// frame i/o -----------------------------------------------------------------

// distFrame is one protocol frame in memory.
type distFrame struct {
	kind wire.DistFrameKind
	body []byte
}

// writeDistFrames writes length-prefixed protocol frames, stopping at the
// first error.
func writeDistFrames(w io.Writer, frames ...distFrame) error {
	for _, f := range frames {
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(f.body)))
		hdr[4] = byte(f.kind)
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(f.body); err != nil {
			return err
		}
	}
	return nil
}

// readDistFrame reads one length-prefixed protocol frame.
func readDistFrame(r io.Reader) (wire.DistFrameKind, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, errors.New("audit: empty protocol frame")
	}
	if n > wire.MaxDistFrame {
		return 0, nil, wire.ErrFrameTooLarge
	}
	// The header is four bytes anyone can send: allocate for the bytes that
	// actually arrive, not for the size it claims.
	var buf bytes.Buffer
	buf.Grow(int(min(n, 64<<10)))
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return 0, nil, err
	}
	body := buf.Bytes()
	return wire.DistFrameKind(body[0]), body[1:], nil
}

// connection state ----------------------------------------------------------

// muxWork is one accepted frame awaiting execution: a job (exactly one of
// job / deltaJob is set; delta jobs are rolled in execute, which owns the
// connection's replicas) or, with end set, a session end, which drops the
// session's replica behind its queued jobs.
type muxWork struct {
	sessID   uint64
	sess     Session
	job      *EpochJob
	deltaJob *wire.AuditDeltaJob
	end      bool
}

// workerConn is the worker side of one coordinator connection, free of
// sockets, goroutines and clocks: the sessions registered on it and the
// replicas it keeps between the jobs of their runs. accept touches only the
// sessions and execute only the replicas, so a driver may run them on two
// goroutines (EpochWorker's read loop and executor) or on one (the
// simulated worker).
type workerConn struct {
	// mu guards sessions and held for a reader on neither of the driver's
	// goroutines, which counts what a long-lived worker holds.
	mu       sync.Mutex
	sessions map[uint64]Session
	// held are the replicas kept for the sessions' next jobs, least
	// recently used first, at most heldReplicas of them.
	held []heldReplica
}

// heldReplica is the replica a session's last job ended on, resting at the
// epoch's closing snapshot as the replay verified it. img is the reference
// image of the registration it was made under: a session id registered
// again does not inherit it.
type heldReplica struct {
	sessID uint64
	img    *vm.Image
	rp     *Replay
}

func newWorkerConn() *workerConn {
	return &workerConn{sessions: make(map[uint64]Session)}
}

// take removes the replica held for session id and returns it, or nil when
// none is held for sess's registration.
func (c *workerConn) take(id uint64, sess Session) *Replay {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, h := range c.held {
		if h.sessID == id {
			c.held = slices.Delete(c.held, i, i+1)
			if h.img == sess.RefImage {
				return h.rp
			}
			return nil
		}
	}
	return nil
}

// keep holds rp for session id's next job, evicting the least recently used
// replica when heldReplicas are already held.
func (c *workerConn) keep(id uint64, sess Session, rp *Replay) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.held) == heldReplicas {
		c.held = slices.Delete(c.held, 0, 1)
	}
	c.held = append(c.held, heldReplica{sessID: id, img: sess.RefImage, rp: rp})
}

// accept handles one frame from the coordinator: a session registration or
// ping is answered directly (reply), a job frame decodes into work for
// execute, and a session end unregisters the session at once and becomes
// work too, so that its replica is dropped behind the session's queued
// jobs. An error is a protocol violation — malformed bodies, a job or end
// for an unregistered session, a kind a worker never receives, or a frame
// of the retired one-shot session protocol — and ends the connection.
func (c *workerConn) accept(kind wire.DistFrameKind, body []byte) (reply *distFrame, work *muxWork, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch kind {
	case wire.DistFrameMuxSession:
		id, rest, err := wire.SplitMuxID(body)
		if err != nil {
			return nil, nil, err
		}
		ws, err := wire.ParseAuditSession(rest)
		if err != nil {
			return nil, nil, err
		}
		sess, err := sessionFromWire(ws)
		if err != nil {
			return nil, nil, err
		}
		c.sessions[id] = sess
		return &distFrame{wire.DistFrameMuxSessionOK, wire.AppendMuxID(id, nil)}, nil, nil
	case wire.DistFrameMuxJob, wire.DistFrameMuxDeltaJob:
		id, rest, err := wire.SplitMuxID(body)
		if err != nil {
			return nil, nil, err
		}
		sess, ok := c.sessions[id]
		if !ok {
			return nil, nil, fmt.Errorf("audit: mux job for unregistered session %d", id)
		}
		wk := &muxWork{sessID: id, sess: sess}
		if kind == wire.DistFrameMuxDeltaJob {
			if wk.deltaJob, err = wire.ParseAuditDeltaJob(rest); err != nil {
				return nil, nil, err
			}
		} else {
			wj, err := wire.ParseAuditJob(rest)
			if err != nil {
				return nil, nil, err
			}
			wk.job = jobFromWire(wj)
		}
		return nil, wk, nil
	case wire.DistFrameMuxSessionEnd:
		id, rest, err := wire.SplitMuxID(body)
		if err != nil {
			return nil, nil, err
		}
		if len(rest) > 0 {
			return nil, nil, fmt.Errorf("audit: session end for %d carries %d trailing bytes", id, len(rest))
		}
		if _, ok := c.sessions[id]; !ok {
			return nil, nil, fmt.Errorf("audit: session end for unregistered session %d", id)
		}
		delete(c.sessions, id)
		return nil, &muxWork{sessID: id, end: true}, nil
	case wire.DistFramePing:
		return &distFrame{wire.DistFramePong, body}, nil, nil
	}
	if kind.Retired() {
		return nil, nil, fmt.Errorf("audit: frame kind %d belongs to the retired one-shot session protocol; this worker speaks the multiplexed protocol only", kind)
	}
	return nil, nil, fmt.Errorf("audit: worker got unexpected frame kind %d", kind)
}

// replayHonestly is the replay hook of a worker no chaos plan perturbs.
func replayHonestly(run func() epochResult) (epochResult, bool) { return run(), true }

// execute replays one accepted job and returns the frame to send back: the
// verdict, or a need-state when a delta job's base is not where the replica
// the connection holds for the session rests (the coordinator re-ships the
// full state). A delta chain that fails its root checks is answered with
// the snapshot-check fault before any replay work (rollDelta): the
// coordinator (or whoever doctored the chain) is caught with the same fault
// a corrupt full state yields. A full job boots a replica of its own. The
// replica the job ends on is kept for the session's next job if it rests at
// a verified snapshot; a faulted or tail epoch leaves none. replay runs the
// epoch, run, and may decline to answer at all (a chaos plan's hang or
// crash). A session end drops the session's replica and is not answered.
func (c *workerConn) execute(wk *muxWork, replay func(run func() epochResult) (epochResult, bool)) (distFrame, bool) {
	if wk.end {
		c.mu.Lock()
		c.held = slices.DeleteFunc(c.held, func(h heldReplica) bool { return h.sessID == wk.sessID })
		c.mu.Unlock()
		return distFrame{}, false
	}
	job, held := wk.job, c.take(wk.sessID, wk.sess)
	if dj := wk.deltaJob; dj != nil {
		if at, ok := held.restingAt(); !ok || at != dj.BaseSnap {
			return distFrame{wire.DistFrameMuxNeedState, wire.AppendMuxID(wk.sessID, wire.MarshalNeedState(dj.Index))}, true
		}
		if fault := rollDelta(wk.sess, held, dj); fault != nil {
			v := verdictToWire(int(dj.Index), epochResult{fault: fault}).Marshal()
			return distFrame{wire.DistFrameMuxVerdict, wire.AppendMuxID(wk.sessID, v)}, true
		}
		job = &EpochJob{
			Index: int(dj.Index), StartSnap: dj.StartSnap, StartSeq: dj.StartSeq,
			StartRoot: dj.StartRoot, Entries: dj.Entries,
		}
	} else {
		held = nil
	}
	var rp *Replay
	r, ok := replay(func() epochResult {
		var res epochResult
		res, rp = runEpochJob(wk.sess, job, held, nil)
		return res
	})
	if !ok {
		return distFrame{}, false
	}
	if _, resting := rp.restingAt(); resting {
		c.keep(wk.sessID, wk.sess, rp)
	}
	return distFrame{wire.DistFrameMuxVerdict, wire.AppendMuxID(wk.sessID, verdictToWire(job.Index, r).Marshal())}, true
}

// TCP worker ----------------------------------------------------------------

// EpochWorker is a scenario-agnostic replay worker. It holds no trust:
// everything a replay needs arrives in session and job frames, and the
// coordinator verifies what comes back (root checks before dispatch, spot
// re-replays after). One connection carries many audit sessions; pipelined
// jobs replay in arrival order on a per-connection executor, and pings are
// answered from the read loop even while a replay runs.
//
// Jobs within a connection replay one at a time, so a deployment's
// parallelism is its worker count; pipelining exists to hide the wire
// round-trip, not to multiply CPU.
type EpochWorker struct {
	// Chaos, when non-nil, perturbs this worker per a deterministic fault
	// plan — the fault-injection harness. Nil means honest.
	Chaos *ChaosPlan
	// IdleTimeout reaps connections with no traffic (a coordinator that
	// died without closing). <= 0 selects 5m; heartbeats keep healthy
	// connections far below it.
	IdleTimeout time.Duration

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]*workerConn
	draining  bool

	inflight sync.WaitGroup // accepted jobs not yet answered
	connSeq  atomic.Int64
	jobSeq   atomic.Int64
}

// Serve accepts coordinator connections until the listener closes. It
// returns nil when the worker was drained, the accept error otherwise.
func (w *EpochWorker) Serve(l net.Listener) error {
	w.mu.Lock()
	if w.listeners == nil {
		w.listeners = make(map[net.Listener]struct{})
		w.conns = make(map[net.Conn]*workerConn)
	}
	draining := w.draining
	w.listeners[l] = struct{}{}
	w.mu.Unlock()
	if draining {
		l.Close()
		return nil
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			w.mu.Lock()
			delete(w.listeners, l)
			draining := w.draining
			w.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		if w.Chaos != nil && !w.Chaos.admitConn(int(w.connSeq.Add(1))) {
			// Partition plan: the link to this worker is down; refuse the
			// connection outright and let the coordinator's redial backoff
			// knock until the partition heals.
			conn.Close()
			continue
		}
		w.mu.Lock()
		if w.draining {
			w.mu.Unlock()
			conn.Close()
			continue
		}
		wc := newWorkerConn()
		w.conns[conn] = wc
		w.mu.Unlock()
		go func() {
			defer func() {
				w.mu.Lock()
				delete(w.conns, conn)
				w.mu.Unlock()
				conn.Close()
			}()
			if err := w.serveConn(conn, wc); err != nil && !errors.Is(err, io.EOF) {
				// Report protocol errors while the connection still works; a
				// broken pipe just ends the session — the coordinator's
				// retry owns recovery.
				_ = writeDistFrames(conn, distFrame{wire.DistFrameError, []byte(err.Error())})
			}
		}()
	}
}

// Drain gracefully winds the worker down: stop accepting connections,
// refuse new jobs (each refusal is answered with DistFrameDrain so the
// coordinator re-dispatches immediately instead of waiting out a timeout),
// and wait up to timeout for in-flight epochs to finish before closing the
// remaining connections.
func (w *EpochWorker) Drain(timeout time.Duration) {
	w.mu.Lock()
	w.draining = true
	for l := range w.listeners {
		l.Close()
	}
	w.mu.Unlock()

	done := make(chan struct{})
	go func() {
		w.inflight.Wait()
		close(done)
	}()
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	select {
	case <-done:
	case <-time.After(timeout):
	}

	w.mu.Lock()
	for c := range w.conns {
		c.Close()
	}
	w.mu.Unlock()
}

// admit counts one more accepted job in, unless the worker is draining.
// Counting under the lock Drain takes orders every Add before Drain's Wait.
func (w *EpochWorker) admit() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.draining {
		w.inflight.Add(1)
	}
	return !w.draining
}

// serveConn runs one coordinator connection, wc: this goroutine is the
// read loop (it answers pings immediately, even mid-replay — liveness
// probes measure the worker, not the current epoch), and a per-connection
// executor goroutine replays accepted jobs and ends sessions in arrival
// order.
func (w *EpochWorker) serveConn(conn net.Conn, wc *workerConn) error {
	var wmu sync.Mutex
	write := func(f distFrame) error {
		wmu.Lock()
		defer wmu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(time.Minute))
		return writeDistFrames(conn, f)
	}

	connDead := make(chan struct{})
	// The coordinator keeps at most its Pipeline jobs outstanding, so the
	// buffer only has to keep the read loop answering pings while the
	// executor replays; 64 is far above any configured pipeline.
	jobs := make(chan *muxWork, 64)
	var execWG sync.WaitGroup
	execWG.Add(1)
	go func() {
		defer execWG.Done()
		replay := func(run func() epochResult) (epochResult, bool) {
			return w.replayMaybeChaotic(run, conn, connDead)
		}
		for wk := range jobs {
			select {
			case <-connDead:
				// The connection died with this job still queued; it will
				// never be answered, so release it instead of replaying.
			default:
				if f, ok := wc.execute(wk, replay); ok {
					_ = write(f)
				}
			}
			if !wk.end {
				w.inflight.Done()
			}
		}
	}()
	defer func() {
		close(connDead)
		close(jobs)
		execWG.Wait()
	}()

	idle := w.IdleTimeout
	if idle <= 0 {
		idle = 5 * time.Minute
	}
	for frameSeq := 0; ; frameSeq++ {
		conn.SetReadDeadline(time.Now().Add(idle))
		kind, body, err := readDistFrame(conn)
		if err != nil {
			return err
		}
		if w.Chaos != nil && frameSeq > 0 && !w.Chaos.admitFrame(frameSeq) {
			// Connection-flap plan: the link drops mid-conversation.
			return nil
		}
		reply, work, err := wc.accept(kind, body)
		if err != nil {
			return err
		}
		switch {
		case work == nil:
		case work.end:
			// Not a job: a draining worker ends sessions too.
			jobs <- work
		case !w.admit():
			reply = &distFrame{kind: wire.DistFrameDrain}
		default:
			jobs <- work
		}
		if reply != nil {
			if err := write(*reply); err != nil {
				return err
			}
		}
	}
}

// replayMaybeChaotic replays one job, run, letting the worker's chaos plan
// decide its fate first. It reports false when no reply must be sent (a
// crashed or hanging worker never answers). connDead is the connection's
// teardown signal.
func (w *EpochWorker) replayMaybeChaotic(run func() epochResult, conn net.Conn, connDead <-chan struct{}) (epochResult, bool) {
	seq := w.jobSeq.Add(1)
	action := ChaosNone
	if w.Chaos != nil {
		action = w.Chaos.jobAction(seq)
	}
	switch action {
	case ChaosCrash:
		// Die mid-epoch: close the connection without a verdict.
		conn.Close()
		return epochResult{}, false
	case ChaosHang:
		// Accept the job and never reply; hold the slot until the
		// connection dies so the goroutine cannot leak past the test.
		<-connDead
		return epochResult{}, false
	}
	start := time.Now()
	r := run()
	if action == ChaosSlow {
		// A 10x-slower worker: the replay took 1x, so sleep out the other
		// 9x (capped) unless the connection dies first.
		delay := 9 * time.Since(start)
		if max := w.Chaos.slowCap(); delay > max {
			delay = max
		}
		select {
		case <-time.After(delay):
		case <-connDead:
			return epochResult{}, false
		}
	}
	if action == ChaosLie {
		r = w.Chaos.corrupt(r)
	}
	return r, true
}
