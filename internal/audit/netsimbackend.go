package audit

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// NetsimBackend replays epochs over the simulated network substrate: the
// coordinator is netsim node 0, workers are nodes 1..Workers, and every
// session, job and verdict rides a netsim datagram through the link's
// configured latency, jitter, loss and partition filter. It is the dispatch
// core of sched.go on netsim's virtual clock: this file makes no
// scheduling decision of its own — it asks the scheduler what to ship,
// turns shipments into datagrams, and feeds arrivals back — and its
// simulated workers run the same workerConn an EpochWorker runs. So the
// production retry, hedge, reaping, stealing and delta-shipping policy is
// exercised under deterministic packet loss, reordering (via jitter) and
// healable partitions (via netsim.Network.Filter) — scenarios a loopback
// TCP test cannot produce on demand.
//
// A datagram carries a connection generation and one or more protocol
// frames, framed exactly as on TCP. Netsim links lose and reorder whole
// datagrams, which TCP never does, so a "connection" here is a generation
// number: the scheduler reaping a connection (or a worker rejecting a frame
// whose session datagram was lost) ends the generation, both sides drop
// stragglers from ended generations, and the next attach starts a new one
// with fresh worker-side state — what a redial does on TCP.
//
// The run is single-threaded virtual time: for a given netsim seed, loss
// rate and filter it dispatches the same frames in the same order, which is
// what lets tests assert byte-identical audit results under adversarial
// links without sleeping.
type NetsimBackend struct {
	// Net is the simulated network. The backend owns its Deliver callback
	// for the duration of Run and advances its virtual clock.
	Net *netsim.Network
	// Workers is the number of simulated worker nodes (netsim nodes
	// 1..Workers; the coordinator is node 0). <= 0 selects 3.
	Workers int
	// TimeoutNs is the scheduler's JobTimeout in virtual time: a dispatched
	// epoch with no verdict after this long is re-dispatched. <= 0 selects
	// 10ms of virtual time.
	TimeoutNs uint64
	// ServiceNs is the simulated per-epoch worker service time. <= 0
	// selects 1ms of virtual time.
	ServiceNs uint64
	// MaxAttempts bounds dispatch attempts per epoch. <= 0 selects
	// Workers+2.
	MaxAttempts int
}

// simWorker is one simulated worker node: the scheduler's entry for it and
// the worker side of its current connection generation (conn is nil once
// the worker rejected a frame and hung up).
type simWorker struct {
	sw      *schedWorker
	connGen uint64
	conn    *workerConn
}

// Run implements EpochBackend on the virtual-time loop.
func (b *NetsimBackend) Run(sess Session, jobs []*EpochJob, skip func(int) bool, emit func(EpochVerdict)) error {
	workers := b.Workers
	if workers <= 0 {
		workers = 3
	}
	timeout := time.Duration(b.TimeoutNs)
	if timeout == 0 {
		timeout = 10 * time.Millisecond
	}
	service := b.ServiceNs
	if service == 0 {
		service = 1_000_000
	}
	maxAttempts := b.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = workers + 2
	}
	cfg := CoordinatorConfig{
		JobTimeout: timeout, MaxAttempts: maxAttempts,
		RetryBackoff: timeout / 8, RetryMaxBackoff: timeout,
		DisableLocalFallback: true,
	}.withDefaults()
	s := newScheduler(cfg)

	net := b.Net
	now := func() time.Time { return time.Unix(0, int64(net.Now())) }
	sims := make([]*simWorker, workers+1)
	for i := 1; i <= workers; i++ {
		sims[i] = &simWorker{sw: s.addWorker(fmt.Sprintf("sim-worker-%d", i))}
	}
	run := &schedRun{sess: sess, skip: skip, emit: emit}
	if _, err := s.addRun(run, jobs, nil, now()); err != nil {
		return err
	}

	// send puts frames of connection generation gen into one datagram;
	// workers answer after their service time.
	send := func(from, to int, gen uint64, frames ...distFrame) {
		buf := bytes.NewBuffer(binary.AppendUvarint(nil, gen))
		_ = writeDistFrames(buf, frames...) // a bytes.Buffer write cannot fail
		at := net.Now()
		if from != 0 {
			at += service
		}
		net.Send(at, from, to, buf.Bytes(), buf.Len()+wire.TCPIPOverhead)
	}

	prevDeliver := net.Deliver
	defer func() { net.Deliver = prevDeliver }()
	net.Deliver = func(f netsim.Frame) {
		gen, n := binary.Uvarint(f.Data)
		r := bytes.NewReader(f.Data[n:])
		if f.To == 0 {
			// A worker's replies arriving at the coordinator — the TCP
			// driver's read loop.
			w := sims[f.From].sw
			if !w.live || gen != w.gen {
				return
			}
			for r.Len() > 0 {
				kind, body, err := readDistFrame(r)
				if err == nil {
					var out outcome
					var ok bool
					if out, ok, err = s.reply(w, kind, body, now()); ok {
						out.deliver()
					}
				}
				if err != nil {
					s.detach(w, now())
					return
				}
			}
			return
		}
		// The coordinator's frames arriving at a simulated worker.
		w := sims[f.To]
		if gen > w.connGen {
			w.connGen, w.conn = gen, newWorkerConn()
		}
		if gen < w.connGen || w.conn == nil {
			return
		}
		for r.Len() > 0 {
			kind, body, err := readDistFrame(r)
			var reply *distFrame
			var work *muxWork
			if err == nil {
				reply, work, err = w.conn.accept(kind, body)
			}
			if err != nil {
				w.conn = nil
				send(f.To, 0, gen, distFrame{wire.DistFrameError, []byte(err.Error())})
				return
			}
			if work != nil {
				// Replays are idempotent, so a re-dispatched job just
				// produces a duplicate verdict the scheduler drops. A
				// session end is not answered.
				vf, ok := w.conn.execute(work, replayHonestly)
				if !ok {
					continue
				}
				reply = &vf
			}
			send(f.To, 0, gen, *reply)
		}
	}

	for !run.finished() {
		// Pump: let every connection ship what the scheduler releases now,
		// re-attaching reaped ones, until a full pass changes nothing. The
		// last pass leaves the earliest deadline any connection waits on.
		var wakeAt time.Time
		for progress := true; progress; {
			progress = false
			wakeAt = time.Time{}
			for i, w := range sims[1:] {
				if !w.sw.live {
					s.attach(w.sw, now())
					progress = true
				}
				for {
					sh, at, failed := s.next(w.sw, now())
					deliverAll(failed)
					if sh == nil {
						if !w.sw.live {
							progress = true // reaped as hung: its epochs are back on the queue
						}
						if !at.IsZero() && (wakeAt.IsZero() || at.Before(wakeAt)) {
							wakeAt = at
						}
						break
					}
					progress = true
					frames, n := sh.frames()
					s.shipped(sh, n)
					send(0, i+1, w.sw.gen, frames...)
				}
			}
		}
		if run.finished() {
			break
		}
		next, ok := net.NextDelivery()
		if at := uint64(wakeAt.UnixNano()); !wakeAt.IsZero() && (!ok || at < next) {
			next, ok = at, true
		}
		if !ok {
			return fmt.Errorf("audit: netsim backend stalled with %d epochs unresolved", int64(run.total)-run.settled.Load())
		}
		net.AdvanceTo(next)
	}
	err := s.removeRun(run)
	// End the run's sessions on the simulated workers, and let everything
	// still in flight land while this run's Deliver is installed.
	for i, w := range sims[1:] {
		if ends := s.sessionEnds(w.sw); ends != nil {
			send(0, i+1, w.sw.gen, ends...)
		}
	}
	for net.Pending() > 0 {
		at, _ := net.NextDelivery()
		net.AdvanceTo(at)
	}
	return err
}
