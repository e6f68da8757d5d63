package audit

import (
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/logcomp"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/wire"
)

// This file is the one epoch pipeline, the dist engine's: decode ∥ chain
// hash + syntactic check ∥ signature verification ∥ replay, as
// bounded-channel stages. Each snapshot entry commits a state root, so the
// log between two snapshots is an epoch that can be checked on its own
// (§3.5, §4.4): replay it from the earlier snapshot's state, verified
// against the root committed there, and re-derive the later root.
// routeStream is the one place that cuts the epochs, as entries stream
// past the chain and syntactic checks, from a logcomp.EntrySource: an
// archive reading epoch segments from disk, a compressed log container, or
// a slice in memory. The request's input picks how it hands each epoch
// over (epochHandoff): a Source's epochs stream to in-process replay
// workers as they open, a slice's go to them whole as they close, and with
// a remote backend the jobs are collected whole for runJobs to ship once
// the front checks have passed. Decoded entries resident across the
// pipeline are capped by a window, not the log length; within it, a
// streamed epoch's entries are routed ahead of its replay, up to
// streamRunAhead of them, so the router is not paced by the replica.
//
// An in-process replay worker keeps the replica its last epoch ended on
// while that replica rests at the verified snapshot the epoch closed with.
// The next epoch it is handed still fetches its start state, once, as a
// worker that holds nothing does; when the epoch starts at that snapshot
// and the fetched memory is the replica's, the epoch opens on the replica
// (openEpoch): one compare of the memory and one root check over its live
// tree and the fetched blobs, where a boot makes a new machine, copies the
// state in, rehashes every page and predecodes the code again. With one
// worker over a passing log every epoch after the boot epoch opens so
// (StreamStats.Rolled).
//
// The router goroutine hashes the chain and parses entries but verifies no
// signature. The chain verifier and the syntactic checker share one
// tevlog.SigStage: each submits an authenticator — a collected one as the
// stream passes its sequence number, a RECV's or an ACK's as the entry is
// parsed — and moves on, the stage's helpers verify in batches beside
// decode, checking and replay, and each submitter reads its own results
// back in the order it submitted them. The checker holds a constant number
// of results in flight and the verifier one per authenticator, so memory
// stays bounded by the window and the authenticator set.
//
// The verdict is identical to the serial auditor's over the decoded slice.
// Stage faults are merged with the serial pipeline's precedence — decode,
// then chain (over the whole log), then syntactic, then the earliest
// faulting epoch's replay fault (epochMerge) — and each stage runs to
// completion before a lower-precedence fault is allowed to win, exactly as
// if the stages had run one after another over a materialized slice.
// Within a stage the first bad signature in entry order wins, as if each
// had been verified before the next entry was looked at (see ChainVerifier
// and SyntacticChecker). If every epoch passes, the serial replay would
// have; if the execution diverged anywhere, the earliest affected epoch
// faults with the check, entry and landmark the serial replay reports.

// DefaultStreamWindow bounds resident decoded entries when EngineOptions
// leaves Window zero.
const DefaultStreamWindow = 4096

// streamBatch is how many entries a replay worker feeds per Run call when
// its epoch channel has a backlog.
const streamBatch = 64

// streamRunAhead caps how many entries a streamed epoch's channel holds,
// so how far the router runs ahead of the epoch's replay; the window caps
// it too. Measured on the minisql benchmark's stream audit (one worker,
// default window, two cores, three interleaved pairs each): 256 and 4096
// read within 2 % of 1024, and 64, the size of a replay batch, which tied
// chain and syntactic checking to replay, was 7 % slower. A channel's
// buffer is allocated whole as its epoch opens, which is why the cap is
// not simply the window.
const streamRunAhead = 1024

// StreamStats reports how the pipeline ran.
type StreamStats struct {
	// Entries is the number of entries read from the source.
	Entries int
	// Epochs is the number of replay epochs the router cut the log into.
	Epochs int
	// Rolled is the number of epochs that opened on the replica their
	// worker's previous epoch ended on instead of a new one (openEpoch):
	// with one worker, every epoch but the boot epoch of a log that passes.
	Rolled int
	// Window is the resident-entry cap the run used.
	Window int
	// PeakResidentEntries is the high-water mark of decoded entries alive
	// across the pipeline; always <= Window. Entries routed ahead of their
	// epoch's replay count until the replay consumes them. Entries handed
	// off to a budget-stalled replica (a pathological log whose async-free
	// stretch exceeds the replay budget) leave the window early and are
	// accounted to the replica instead, bounded by one epoch.
	PeakResidentEntries int
}

// entryWindow is a counting semaphore over decoded entries with a
// high-water mark, the mechanism that bounds pipeline memory.
type entryWindow struct {
	mu    sync.Mutex
	cond  *sync.Cond
	used  int
	limit int
	peak  int
}

func newEntryWindow(limit int) *entryWindow {
	w := &entryWindow{limit: limit}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// acquire blocks until a slot is free.
func (w *entryWindow) acquire() {
	w.mu.Lock()
	for w.used >= w.limit {
		w.cond.Wait()
	}
	w.used++
	if w.used > w.peak {
		w.peak = w.used
	}
	w.mu.Unlock()
}

func (w *entryWindow) release(n int) {
	if n == 0 {
		return
	}
	w.mu.Lock()
	w.used -= n
	w.mu.Unlock()
	w.cond.Broadcast()
}

// epochHandoff is how the router hands over the epochs it cuts.
type epochHandoff int

const (
	// streamed hands each epoch to an in-process worker as it opens; its
	// entries follow over a channel, so memory stays within the window.
	streamed epochHandoff = iota
	// whole hands each epoch to an in-process worker once it closes, its
	// entries collected into the job: for a log already in memory, where a
	// channel would only pace routing to the replay of the open epoch.
	whole
	// collected returns the jobs, entries collected, for a remote backend.
	collected
)

// streamEpoch is one in-process epoch in flight: the epoch's job, whose
// entries arrive on ch instead of in job.Entries when it is streamed.
type streamEpoch struct {
	job EpochJob
	ch  chan tevlog.Entry
}

// streamVerdict accumulates per-stage outcomes for the merge step.
type streamVerdict struct {
	decodeErr error
	chainErr  error
	synStats  SyntacticStats
	synFault  *FaultReport
	sigStats  tevlog.SigStats
	merge     *epochMerge
}

// sliceSource is the EntrySource over a log already in memory.
type sliceSource struct{ entries []tevlog.Entry }

func (s *sliceSource) Next() (tevlog.Entry, error) {
	if len(s.entries) == 0 {
		return tevlog.Entry{}, io.EOF
	}
	e := s.entries[0]
	s.entries = s.entries[1:]
	return e, nil
}

func (s *sliceSource) Close() error { return nil }

// auditEpochs checks an entire execution from boot, like auditSerial, on
// the epoch pipeline; it backs EngineDist and fills stats as AuditStats
// documents. The request's input picks the handoff: a Backend collects the
// jobs for it, a Source streams them within req.Options.Window, and
// otherwise req.Entries, a log in memory, is handed over in whole epochs.
// A source error is a CheckLog fault carrying it, so a tampered archive or
// container is treated exactly like a tampered log. A non-nil error means
// a remote backend could not complete the audit (runJobs).
func (a *Auditor) auditEpochs(req AuditRequest, stats *AuditStats) (*Result, error) {
	source, window, handoff := req.Source, req.Options.Window, streamed
	if source == nil {
		// The log is in memory already: a window below its length would
		// only throttle fan-out.
		source, window, handoff = &sliceSource{entries: req.Entries}, max(len(req.Entries), 1), whole
	}
	if window <= 0 {
		window = DefaultStreamWindow
	}
	if req.Backend != nil {
		handoff = collected
	}
	jobs, verdict, stream := a.runPipeline(req.Node, req.NodeIdx, source, req.Auths, req.Options, window, handoff)
	stats.Sigs, stats.Stream = verdict.sigStats, stream
	// The serial pipeline's precedence: a decode, a chain, then a syntactic
	// fault is the verdict; with none, replay decides.
	res := &Result{Node: req.Node}
	switch {
	case verdict.decodeErr != nil:
		res.Fault = &FaultReport{Node: req.Node, Check: CheckLog,
			Detail: "decoding log container: " + verdict.decodeErr.Error()}
	case a.TamperEvident && verdict.chainErr != nil:
		res.Fault = &FaultReport{Node: req.Node, Check: CheckLog, Detail: verdict.chainErr.Error()}
	default:
		res.Syntactic, res.Fault = verdict.synStats, verdict.synFault
	}
	if res.Fault != nil {
		return res, nil
	}
	if handoff != collected {
		// Every epoch at or below the cutoff ran (only epochs above it are
		// skipped), so none is missing.
		res.Replay, res.Fault, _, _ = verdict.merge.verdict(len(jobs))
		stats.Dist = DistStats{Epochs: len(jobs)}
	} else {
		var err error
		if res.Replay, res.Fault, stats.Dist, err = a.runJobs(req.Node, jobs, req.Backend, req.Options); err != nil {
			return nil, err
		}
	}
	res.Passed = res.Fault == nil
	return res, nil
}

// runPipeline runs the decode and route stages over source within a
// window of resident entries and, unless the jobs are collected for a
// remote backend, the in-process replay workers the router hands epochs
// to. It returns the jobs the router cut, with their entries unless they
// were streamed, the stage outcomes, and how the pipeline ran.
func (a *Auditor) runPipeline(node sig.NodeID, nodeIdx uint32, source logcomp.EntrySource, auths []tevlog.Authenticator, opts EngineOptions, window int, handoff epochHandoff) ([]*EpochJob, *streamVerdict, StreamStats) {
	win := newEntryWindow(window)
	chanCap := min(max(window/4, 1), 128)
	verdict := &streamVerdict{merge: newEpochMerge()}

	// Over a log in memory the router cuts jobs as subslices of it, before
	// the decode stage advances the source.
	var backing []tevlog.Entry
	if s, ok := source.(*sliceSource); ok {
		backing = s.entries
	}

	// Stage 1: decode. Entries acquire a window slot before they exist.
	decoded := make(chan tevlog.Entry, chanCap)
	var entryCount atomic.Int64
	go func() {
		defer close(decoded)
		defer source.Close()
		for {
			win.acquire()
			e, err := source.Next()
			if err != nil {
				win.release(1)
				if err != io.EOF {
					verdict.decodeErr = err
				}
				return
			}
			entryCount.Add(1)
			decoded <- e
		}
	}()

	// Stage 3: in-process replay workers, pulling epochs as the router
	// emits them.
	var epochQueue chan *streamEpoch
	var wg sync.WaitGroup
	var rolled atomic.Int64
	if handoff != collected {
		workers := workersOrDefault(opts.Workers)
		epochQueue = make(chan *streamEpoch, workers)
		sess := a.session(node)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// held is the replica this worker's last epoch ended on,
				// while it rests at a verified snapshot.
				var held *Replay
				for ep := range epochQueue {
					if verdict.merge.skip(ep.job.Index) {
						// A lower epoch already faulted; this epoch cannot
						// affect the verdict.
						drainEpoch(ep, win)
						continue
					}
					var r epochResult
					var rp *Replay
					if ep.ch == nil {
						r, rp = runEpochJob(sess, &ep.job, held, opts.Materialize)
					} else {
						r, rp = runStreamEpoch(sess, ep, held, opts.Materialize, win)
					}
					verdict.merge.record(ep.job.Index, r)
					if rp != nil && rp == held {
						rolled.Add(1)
					}
					// Keep the replica for an epoch that starts where this
					// one ended.
					held = nil
					if _, ok := rp.restingAt(); ok {
						held = rp
					}
				}
			}()
		}
	}

	// Stage 2: chain verification, syntactic checking and epoch routing.
	jobs := a.routeStream(node, nodeIdx, decoded, backing, auths, opts, win, handoff, epochQueue, verdict)
	if epochQueue != nil {
		close(epochQueue)
		wg.Wait()
	}

	stream := StreamStats{Entries: int(entryCount.Load()), Epochs: len(jobs), Window: window, Rolled: int(rolled.Load())}
	win.mu.Lock()
	stream.PeakResidentEntries = win.peak
	win.mu.Unlock()
	return jobs, verdict, stream
}

// routeStream consumes decoded entries, feeds the chain verifier and the
// syntactic checker, and cuts the stream into epoch jobs. It returns the
// jobs in index order. An epoch ends at each snapshot entry when start
// states can be materialized (opts.Materialize), so the epoch that derives
// a snapshot's root verifies it, and the next epoch starts from that
// snapshot's state. A job's Cost is its landmark instruction span: the
// difference between the instruction counts the snapshots that bound it
// commit, or for a tail no snapshot closes, its entry count at the log's
// instructions-per-entry rate up to the last snapshot. A streamed epoch is
// queued for the in-process workers as it opens and its entries follow
// over its channel; otherwise they are collected into the job, freeing
// their window slots — as a subslice of backing, the log in memory the
// entries are decoded from, when it is set — and a whole epoch is queued as
// it closes. Both checks submit their signatures to one stage (see the file
// comment). A chain fault ends chain verification, syntactic checking and
// routing, and drops the epoch it cuts short — in the batch pipeline
// neither the syntactic check nor replay would have run at all — but the
// stream is still drained to the end, because a decode error anywhere
// outranks the chain fault (the batch pipeline fails in DecompressEntries
// before verifying anything).
func (a *Auditor) routeStream(node sig.NodeID, nodeIdx uint32, decoded <-chan tevlog.Entry, backing []tevlog.Entry, auths []tevlog.Authenticator, opts EngineOptions, win *entryWindow, handoff epochHandoff, epochQueue chan<- *streamEpoch, verdict *streamVerdict) []*EpochJob {
	sigs := tevlog.NewSigStage(a.Keys)
	defer sigs.Close()
	var chain *tevlog.ChainVerifier
	if a.TamperEvident {
		chain = tevlog.NewChainVerifier(tevlog.Hash{}, auths, sigs)
	}
	syn := NewSyntacticChecker(node, SyntacticOptions{
		NodeIdx: nodeIdx, Keys: a.Keys,
		VerifySignatures: a.TamperEvident && a.VerifySignatures,
		StrictAcks:       a.StrictAcks,
	}, sigs)

	var jobs []*EpochJob
	// current is the epoch being routed and ch its channel when streamed.
	// Epochs open lazily, so a log ending exactly at a snapshot has no empty
	// trailing epoch; next is the one the next routed entry opens.
	var current *EpochJob
	var ch chan tevlog.Entry
	next := EpochJob{Boot: true}
	// routed counts the entries routed so far, cutICount and cutEntries
	// are the landmark instruction count and routed count at the last cut.
	var routed, cutEntries int
	var cutICount uint64
	open := func(capacity int) {
		job := next
		job.Index = len(jobs)
		current = &job
		jobs = append(jobs, current)
		if handoff == streamed {
			ch = make(chan tevlog.Entry, capacity)
			epochQueue <- &streamEpoch{job: *current, ch: ch}
		}
	}
	// end closes the current epoch: a streamed one's channel closes, a
	// whole one is queued unless it is dropped (cut short by a chain fault).
	end := func(drop bool) {
		if ch != nil {
			close(ch)
			ch = nil
		} else if current != nil && !drop {
			if backing != nil {
				current.Entries = backing[cutEntries:routed]
			}
			if handoff == whole {
				epochQueue <- &streamEpoch{job: *current}
			}
		}
		current = nil
	}

	for e := range decoded {
		if chain != nil && verdict.chainErr == nil {
			if err := chain.Add(&e); err != nil {
				verdict.chainErr = err
			} else {
				e.Hash = chain.Last()
			}
		}
		if verdict.chainErr != nil {
			// The chain fault owns the verdict unless decoding fails later;
			// syntactic checking and replay are moot. Consume and drop.
			end(true)
			win.release(1)
			continue
		}
		syn.Add(&e)
		if current == nil {
			open(min(win.limit, streamRunAhead))
		}
		routed++
		switch {
		case ch != nil:
			ch <- e
		case backing != nil:
			win.release(1)
		default:
			current.Entries = append(current.Entries, e)
			win.release(1)
		}
		if e.Type == tevlog.TypeSnapshot && opts.Materialize != nil {
			// An unparseable snapshot entry cuts nothing: the syntactic check
			// faults on it, and replay inside the current epoch would too.
			if ev, err := wire.ParseEvent(e.Content); err == nil {
				current.Cost = ev.Landmark.ICount - cutICount
				end(false)
				cutICount, cutEntries = ev.Landmark.ICount, routed
				next = EpochJob{StartSnap: ev.SnapIdx, StartRoot: ev.Root, StartSeq: e.Seq}
			}
		}
	}
	if current != nil && cutEntries > 0 {
		// No snapshot closes the tail, so its landmark span is unknown;
		// estimate it from the log's instructions-per-entry rate so far.
		current.Cost = cutICount / uint64(cutEntries) * uint64(routed-cutEntries)
	}

	// A decode or chain fault owns the verdict: reading back the signatures
	// still in flight could not change it.
	if verdict.decodeErr == nil && verdict.chainErr == nil && chain != nil {
		verdict.chainErr = chain.Finish()
	}
	if verdict.decodeErr == nil && verdict.chainErr == nil {
		verdict.synStats, verdict.synFault = syn.Finish()
	}
	verdict.sigStats = sigs.Stats()

	if len(jobs) == 0 && verdict.decodeErr == nil && verdict.chainErr == nil {
		// Empty log: still run the boot replay, as the batch auditor does.
		open(0)
	}
	end(false)
	return jobs
}

// drainEpoch discards a streamed epoch's entries, returning their window
// slots.
func drainEpoch(ep *streamEpoch, win *entryWindow) {
	if ep.ch == nil {
		return
	}
	for range ep.ch {
		win.release(1)
	}
}

// runStreamEpoch is runEpochJob's streaming twin: it opens the epoch
// (openEpoch, on held when the epoch starts where held rests), then feeds
// the replica from the epoch channel in batches, returning window slots as
// entries are consumed. It returns the outcome and the replica the epoch
// ran on (nil when it could not start). Faults and stats are identical to a
// one-shot replay of the same slice — the replay stops at deterministic
// points regardless of batching.
func runStreamEpoch(sess Session, ep *streamEpoch, held *Replay, materialize func(snapIdx uint32) (*snapshot.Restored, error), win *entryWindow) (epochResult, *Replay) {
	rp, fault := openEpoch(sess, &ep.job, held, materialize)
	if fault != nil {
		drainEpoch(ep, win)
		return epochResult{fault: fault}, nil
	}

	batch := make([]tevlog.Entry, 0, streamBatch)
	fed, released := 0, 0
	flush := func() {
		if len(batch) == 0 {
			return
		}
		fed += len(batch)
		rp.Feed(batch)
		batch = batch[:0]
		rp.Run()
		// A slot frees when its entry is consumed — or handed off to the
		// replica wholesale when the replay is budget-stalled (it paused
		// with entries pending, waiting for a later landmark or Close to
		// raise the budget). Without the handoff, a pathological log with a
		// >budget async-free stretch would pin the window and wedge the
		// pipeline; with it, such entries are accounted to the replica (at
		// worst one epoch's worth) instead of the window.
		target := rp.Consumed()
		if rp.Fault() == nil && rp.Pending() > 0 {
			target = fed
		}
		if target > released {
			win.release(target - released)
			released = target
		}
	}
	for e := range ep.ch {
		if rp.Fault() != nil {
			win.release(1)
			continue
		}
		batch = append(batch, e)
		// Opportunistically batch whatever is already queued, then run. The
		// fill never blocks: a starved channel degrades to entry-at-a-time
		// feeding, so windows smaller than the batch stay deadlock-free.
	fill:
		for len(batch) < streamBatch {
			select {
			case e2, ok := <-ep.ch:
				if !ok {
					break fill
				}
				if rp.Fault() != nil {
					win.release(1)
					continue
				}
				batch = append(batch, e2)
			default:
				break fill
			}
		}
		flush()
	}
	if rp.Fault() == nil {
		flush()
		rp.Close()
		rp.Run()
	}
	win.release(len(batch)) // post-fault leftovers never fed
	if fed > released {
		win.release(fed - released)
	}
	return epochResult{stats: rp.Stats, fault: rp.Fault()}, rp
}
