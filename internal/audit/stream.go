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

// This file implements the streaming audit pipeline: decode ∥ chain hash +
// syntactic check ∥ signature verification ∥ replay. The materializing
// auditor (the serial and parallel engines over a decompressed slice) pays
// the whole decode as dead time before the first instruction replays, and
// holds every entry of the log in memory at once. The stream engine instead
// wires logcomp.EntryReader → tevlog.ChainVerifier + SyntacticChecker →
// epoch replay workers as bounded-channel stages: epochs are emitted at
// snapshot entries and handed to workers while later segments of the
// container are still decoding, and the number of decoded entries resident
// across the whole pipeline is capped by a configurable window rather than
// the log length.
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
// The verdict is identical to the materializing auditor's. Stage faults
// are merged with the serial pipeline's precedence — decode, then chain
// (over the whole log), then syntactic, then the earliest faulting epoch's
// replay fault — and each stage runs to completion before a lower-
// precedence fault is allowed to win, exactly as if the stages had run one
// after another over a materialized slice. Within a stage the first bad
// signature in entry order wins, as if each had been verified before the
// next entry was looked at (see ChainVerifier and SyntacticChecker).

// DefaultStreamWindow bounds resident decoded entries when EngineOptions
// leaves Window zero.
const DefaultStreamWindow = 4096

// streamBatch is how many entries a replay worker feeds per Run call when
// its epoch channel has a backlog.
const streamBatch = 64

// StreamStats reports how the pipeline ran.
type StreamStats struct {
	// Entries is the number of entries decoded from the container.
	Entries int
	// Epochs is the number of replay epochs the log was partitioned into.
	Epochs int
	// Window is the resident-entry cap the run used.
	Window int
	// PeakResidentEntries is the high-water mark of decoded entries alive
	// across the pipeline; always <= Window. Entries handed off to a
	// budget-stalled replica (a pathological log whose async-free stretch
	// exceeds the replay budget) leave the window early and are accounted
	// to the replica instead, bounded by one epoch.
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

// streamEpoch is one independently replayable log slice in flight: the
// epoch's job, whose entries arrive on ch instead of in job.Entries.
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

// auditStreamFrom checks an entire execution from boot, like auditSerial,
// but straight from the compressed log container: entries are decoded,
// chain-verified and replayed concurrently in bounded memory. The verdict —
// pass/fail, fault, and stats — is identical to the serial engine's (and
// therefore the parallel engine's) over the decompressed slice; a container
// that fails to decode reports a CheckLog fault carrying the decoder's
// error. The returned StreamStats describe the pipeline run itself. A
// non-nil source feeds the decode stage instead of the in-memory container
// — the archive-backed path, where epoch segments are read, hash-verified
// and decoded from disk one at a time. Source errors land in the same
// decode-fault slot a corrupt container's do, so the merged verdict treats
// a tampered archive exactly like a tampered log. The SigStats say how the
// signature stage ran.
func (a *Auditor) auditStreamFrom(node sig.NodeID, nodeIdx uint32, compressed []byte, source logcomp.EntrySource, auths []tevlog.Authenticator, opts EngineOptions) (*Result, StreamStats, tevlog.SigStats) {
	workers := workersOrDefault(opts.Workers)
	window := opts.Window
	if window <= 0 {
		window = DefaultStreamWindow
	}
	win := newEntryWindow(window)
	chanCap := window / 4
	if chanCap < 1 {
		chanCap = 1
	}
	if chanCap > 128 {
		chanCap = 128
	}

	verdict := &streamVerdict{merge: newEpochMerge()}

	// Stage 1: decode. Entries acquire a window slot before they exist.
	decoded := make(chan tevlog.Entry, chanCap)
	var entryCount atomic.Int64
	go func() {
		defer close(decoded)
		r := source
		if r == nil {
			er, err := logcomp.NewEntryReader(compressed)
			if err != nil {
				verdict.decodeErr = err
				return
			}
			r = er
		}
		defer r.Close()
		for {
			win.acquire()
			e, err := r.Next()
			if err == io.EOF {
				win.release(1)
				return
			}
			if err != nil {
				win.release(1)
				verdict.decodeErr = err
				return
			}
			entryCount.Add(1)
			decoded <- e
		}
	}()

	// Stage 3: replay workers, pulling epochs as the router emits them.
	epochQueue := make(chan *streamEpoch, workers)
	sess := a.session(node)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ep := range epochQueue {
				if verdict.merge.skip(ep.job.Index) {
					// A lower epoch already faulted; this epoch cannot
					// affect the verdict.
					drainEpoch(ep, win)
					continue
				}
				verdict.merge.record(ep.job.Index, runStreamEpoch(sess, ep, opts.Materialize, win))
			}
		}()
	}

	// Stage 2: chain verification, syntactic checking and epoch routing.
	epochs := a.routeStream(node, nodeIdx, decoded, auths, opts, win, epochQueue, verdict)
	close(epochQueue)
	wg.Wait()

	stream := StreamStats{
		Entries: int(entryCount.Load()),
		Epochs:  epochs,
		Window:  window,
	}
	win.mu.Lock()
	stream.PeakResidentEntries = win.peak
	win.mu.Unlock()

	return a.mergeStream(node, verdict, epochs), stream, verdict.sigStats
}

// routeStream consumes decoded entries, feeds the chain verifier and the
// syntactic checker, and slices the stream into epochs at snapshot entries
// (mirroring the epoch-parallel engine's partition rules). It returns the
// number of epochs emitted. Both submit their signatures to one stage (see
// the file comment). A chain fault ends chain verification, syntactic
// checking and routing — in the batch pipeline neither the syntactic check
// nor replay would have run at all — but the stream is still drained to the
// end, because a decode error anywhere outranks the chain fault (the batch
// pipeline fails in DecompressEntries before verifying anything).
func (a *Auditor) routeStream(node sig.NodeID, nodeIdx uint32, decoded <-chan tevlog.Entry, auths []tevlog.Authenticator, opts EngineOptions, win *entryWindow, epochQueue chan<- *streamEpoch, verdict *streamVerdict) int {
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

	var current *streamEpoch
	// next describes the epoch the next routed entry belongs to; epochs are
	// created lazily so a log ending exactly at a snapshot emits no empty
	// trailing epoch (the parallel engine's partition does the same).
	next := EpochJob{Boot: true}
	epochs := 0
	newEpoch := func(capacity int) {
		current = &streamEpoch{job: next, ch: make(chan tevlog.Entry, capacity)}
		current.job.Index = epochs
		epochs++
		epochQueue <- current
	}

	emit := func(e tevlog.Entry) {
		if current == nil {
			newEpoch(streamBatch)
		}
		current.ch <- e
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
			if current != nil {
				close(current.ch)
				current = nil
			}
			win.release(1)
			continue
		}
		syn.Add(&e)
		emit(e)
		if e.Type == tevlog.TypeSnapshot && opts.Materialize != nil {
			if ev, err := wire.ParseEvent(e.Content); err == nil {
				// Epoch boundary: the snapshot entry closes the epoch that
				// derives its root; the next epoch starts from its state.
				close(current.ch)
				current = nil
				next = EpochJob{StartSnap: ev.SnapIdx, StartRoot: ev.Root, StartSeq: e.Seq}
			}
			// An unparseable snapshot entry splits nothing: replay will
			// fault on it inside the current epoch, matching the parallel
			// engine's fallback for malformed snapshot scans.
		}
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

	if epochs == 0 && verdict.decodeErr == nil && verdict.chainErr == nil {
		// Empty log: still run the boot replay, as the batch auditor does.
		newEpoch(0)
	}
	if current != nil {
		close(current.ch)
	}
	return epochs
}

// drainEpoch discards an epoch's entries, returning their window slots.
func drainEpoch(ep *streamEpoch, win *entryWindow) {
	for range ep.ch {
		win.release(1)
	}
}

// runStreamEpoch is runEpochJob's streaming twin: it opens the epoch
// (openEpoch), then feeds the replica from the epoch channel in batches,
// returning window slots as entries are consumed. Faults and stats are
// identical to a one-shot replay of the same slice — the replay stops at
// deterministic points regardless of batching.
func runStreamEpoch(sess Session, ep *streamEpoch, materialize func(snapIdx uint32) (*snapshot.Restored, error), win *entryWindow) epochResult {
	rp, fault := openEpoch(sess, &ep.job, nil, materialize)
	if fault != nil {
		drainEpoch(ep, win)
		return epochResult{fault: fault}
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
	return epochResult{stats: rp.Stats, fault: rp.Fault()}
}

// mergeStream folds the stage outcomes into the batch pipeline's verdict,
// applying its precedence: decode, chain, syntactic, then the earliest
// faulting epoch's replay fault.
func (a *Auditor) mergeStream(node sig.NodeID, verdict *streamVerdict, epochs int) *Result {
	res := &Result{Node: node}
	if verdict.decodeErr != nil {
		res.Fault = &FaultReport{Node: node, Check: CheckLog,
			Detail: "decoding log container: " + verdict.decodeErr.Error()}
		return res
	}
	if a.TamperEvident && verdict.chainErr != nil {
		res.Fault = &FaultReport{Node: node, Check: CheckLog, Detail: verdict.chainErr.Error()}
		return res
	}
	res.Syntactic = verdict.synStats
	if verdict.synFault != nil {
		res.Fault = verdict.synFault
		return res
	}
	// Every epoch at or below the cutoff ran (only epochs above it are
	// skipped), so none is missing.
	res.Replay, res.Fault, _, _ = verdict.merge.verdict(epochs)
	res.Passed = res.Fault == nil
	return res
}
