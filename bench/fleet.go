package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/snapshot"
)

// fleetWorkers is the size of the loopback fleet; fleetClients the number
// of concurrent node audits driven through it (closed loop: a client
// starts its next audit when the previous one has a verdict). Both are
// capped by nproc in spirit: the sandbox has two cores.
const (
	fleetWorkers = 2
	fleetClients = 2
)

// fleetRig is one coordinator over in-process loopback workers.
type fleetRig struct {
	coord     *audit.Coordinator
	journal   *audit.Journal
	workers   []*audit.EpochWorker
	listeners []net.Listener
	served    sync.WaitGroup
}

// startFleet starts the workers and the coordinator and waits until every
// worker connection is live, so that no audit times a dial. journalDir
// "" runs the coordinator without a journal.
func startFleet(journalDir string) (*fleetRig, error) {
	f := &fleetRig{}
	for i := 0; i < fleetWorkers; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("fleet: worker listener: %w", err)
		}
		w := &audit.EpochWorker{}
		f.listeners = append(f.listeners, l)
		f.workers = append(f.workers, w)
		f.served.Add(1)
		go func() {
			defer f.served.Done()
			// Serve returns once the listener is closed, which close
			// does; its accept error says nothing more.
			_ = w.Serve(l)
		}()
	}
	if journalDir != "" {
		j, err := audit.OpenJournal(journalDir)
		if err != nil {
			f.close()
			return nil, err
		}
		f.journal = j
	}
	f.coord = audit.NewCoordinator(audit.CoordinatorConfig{
		Pipeline: 2, JobTimeout: 2 * time.Minute, DisableLocalFallback: true, Journal: f.journal,
	})
	for _, l := range f.listeners {
		f.coord.AddWorker(l.Addr().String())
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.coord.Stats().WorkersLive < fleetWorkers {
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("fleet: %d of %d workers attached after 10s", f.coord.Stats().WorkersLive, fleetWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

// close stops the coordinator, then the workers, and waits for every
// goroutine the rig started.
func (f *fleetRig) close() {
	if f.coord != nil {
		f.coord.Close()
	}
	if f.journal != nil {
		f.journal.Close()
	}
	for _, w := range f.workers {
		w.Drain(time.Second)
	}
	for _, l := range f.listeners {
		l.Close()
	}
	f.served.Wait()
}

// audit is one fleet operation: read the node's log and increments from
// the archive and audit it through the coordinator with delta-shipped
// jobs.
func (f *fleetRig) audit(dir string, p *party) (verdict, audit.DistStats) {
	arc, entries, inc, err := readLog(dir, p)
	if err != nil {
		return verdict{err: err}, audit.DistStats{}
	}
	defer arc.Close()
	res, stats, err := f.coord.Audit(p.a, p.node, p.idx, entries, p.auths, audit.DistOptions{
		EngineOptions: audit.EngineOptions{
			Materialize: materializer(inc),
			DeltaJobs:   true,
			DeltaSource: func(k uint32) (*snapshot.Delta, error) { return snapshot.DeltaFrom(inc, int(k)) },
		},
	})
	return fromResult(res, stats.Epochs, err), stats
}

// nodeAudit is the outcome of one node audit: which party, how long, and
// what the audit and the dispatcher reported.
type nodeAudit struct {
	party   int
	seconds float64
	verdict verdict
	stats   audit.DistStats
}

// fleetBatch is one closed-loop burst of node audits.
type fleetBatch struct {
	ops     []nodeAudit
	seconds float64
	epochs  int64
	busyNs  int64
}

// runBatch audits ps[0], ps[1], ..., round-robin, n times in all, on up
// to clients goroutines, each audit through do. A client takes the next
// audit in that order whose node no other client is auditing: two
// concurrent audits of one node share a journal run key, and the second
// would resume the first instead of auditing.
func runBatch(ps []*party, n, clients int, do func(*party) (verdict, audit.DistStats)) fleetBatch {
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	next, busy := 0, make([]bool, len(ps))
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i % len(ps)
	}
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		for next < len(pending) {
			for i := next; i < len(pending); i++ {
				if p := pending[i]; !busy[p] {
					pending[next], pending[i] = pending[i], pending[next]
					next++
					busy[p] = true
					return p, true
				}
			}
			cond.Wait()
		}
		return 0, false
	}
	var out fleetBatch
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients && c < len(ps); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p, ok := take()
				if !ok {
					return
				}
				opStart := time.Now()
				v, st := do(ps[p])
				d := time.Since(opStart)
				mu.Lock()
				busy[p] = false
				out.ops = append(out.ops, nodeAudit{party: p, seconds: d.Seconds(), verdict: v, stats: st})
				mu.Unlock()
				cond.Broadcast()
			}
		}()
	}
	wg.Wait()
	out.seconds = time.Since(start).Seconds()
	return out
}

// batch is runBatch through the coordinator, with the fleet's own counts
// of the epochs it finished and the time its workers were busy.
func (f *fleetRig) batch(dir string, ps []*party, n, clients int, tr *tracer, parent int) fleetBatch {
	before := f.coord.Stats()
	out := runBatch(ps, n, clients, func(p *party) (v verdict, st audit.DistStats) {
		tr.doUnder(parent, "fleet.audit", func() { v, st = f.audit(dir, p) })
		return v, st
	})
	after := f.coord.Stats()
	out.epochs = after.EpochsDone - before.EpochsDone
	out.busyNs = after.BusyNs - before.BusyNs
	return out
}
