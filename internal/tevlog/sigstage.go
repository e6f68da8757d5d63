package tevlog

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sig"
)

// sigBatchSize is how many signatures travel together. An RSA-1024
// verification under an e = 3 key is about 1–2 µs on a 2-vCPU Xeon VM, so
// a batch is 40–60 µs of work: about what an idle P takes to pick a
// goroutine up there (≈ 70 µs), and small enough that the last batch of a
// segment is not a tail worth noticing. Batches of 128 were no faster: ten
// interleaved minisql pairs read audit_s_per_vs 0.00228 at 32 against
// 0.00237 at 128 (medians; 128 won 3 of 10).
const sigBatchSize = 32

// sigHelpers counts the helper goroutines of every SigStage in the process.
// Audits nest — spot-check chunks, epoch workers and dist prep all run
// several at once, each with a stage of its own — and the cap has to hold
// for their sum, not per stage.
var sigHelpers atomic.Int32

// acquireSigHelper takes one of the process's GOMAXPROCS helper slots. With
// one P there is none: a helper could only take turns with its caller.
func acquireSigHelper() bool {
	limit := runtime.GOMAXPROCS(0)
	if limit == 1 {
		return false
	}
	for {
		n := sigHelpers.Load()
		if int(n) >= limit {
			return false
		}
		if sigHelpers.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// sigBatch is the unit of handoff: up to sigBatchSize authenticators and,
// once done is closed, whether each one's signature verified. Whoever wins
// claimed verifies the whole batch.
type sigBatch struct {
	auths   [sigBatchSize]Authenticator
	ok      [sigBatchSize]bool
	n       int
	claimed atomic.Bool
	done    chan struct{}
}

// SigTicket names one signature submitted to a SigStage. The zero ticket
// names none.
type SigTicket struct {
	b *sigBatch
	i int
}

// SigStats reports how a SigStage ran.
type SigStats struct {
	// Submitted is the number of signatures handed to the stage.
	Submitted int
	// WaiterVerified is how many of them the submitting goroutine verified
	// itself, because nobody had started on them when it needed the result.
	// With one P that is all of them.
	WaiterVerified int
	// Helpers is the number of helper goroutines the stage started.
	Helpers int
	// Waits counts results the submitting goroutine had to block for — a
	// helper had started on them and was not done — and WaitNs the time it
	// spent blocked.
	Waits  int
	WaitNs int64
}

// SigStage is the signature-verification stage of one audit. Whoever walks
// the log — a ChainVerifier for the authenticators collected from the
// machine, the syntactic checker for the signatures inside RECV and ACK
// entries — submits each authenticator as it comes by and carries on; the
// signatures are verified in batches by helper goroutines, at most
// GOMAXPROCS of them across every stage of the process, and Valid reads a
// result when the submitter is ready to act on it. Reading results in the
// order of submission therefore finds the first bad signature in entry
// order, whatever order the batches finished in.
//
// A result nobody has started on is computed by the goroutine that asks for
// it: a waiter has nothing better to do, and that is also all that happens
// with one P or when other stages hold every helper slot — no goroutine is
// started and every signature is verified by its submitter, in order.
//
// Submit, Valid, Close and Stats belong to one goroutine, like the verifier
// and the checker the stage serves; only the helpers run beside it. Helpers
// exit when they run out of batches, so an abandoned stage leaves nothing
// behind; Close, the last call on a stage, additionally drops what is
// queued and waits for them.
type SigStage struct {
	ks    *sig.KeyStore
	open  *sigBatch // still filling; the helpers have not seen it
	stats SigStats

	mu      sync.Mutex
	queue   []*sigBatch // sealed batches, oldest first, for the helpers
	helpers int         // helper goroutines running
	wg      sync.WaitGroup
}

// NewSigStage returns a stage verifying against ks.
func NewSigStage(ks *sig.KeyStore) *SigStage { return &SigStage{ks: ks} }

// Submit hands a's signature to the stage and returns the ticket its result
// is read with.
func (s *SigStage) Submit(a Authenticator) SigTicket {
	b := s.open
	if b == nil {
		b = &sigBatch{done: make(chan struct{})}
		s.open = b
	}
	t := SigTicket{b: b, i: b.n}
	b.auths[b.n] = a
	b.n++
	s.stats.Submitted++
	if b.n == sigBatchSize {
		s.seal()
	}
	return t
}

// seal ends the open batch and offers it to the helpers, starting one if
// the process has a slot free. With no helper running and none to be had
// the batch is not queued at all — its submitter will verify it — so the
// queue never holds more than the helpers are about to take.
func (s *SigStage) seal() {
	b := s.open
	s.open = nil
	s.mu.Lock()
	defer s.mu.Unlock()
	spawn := acquireSigHelper()
	if !spawn && s.helpers == 0 {
		return
	}
	s.queue = append(s.queue, b)
	if spawn {
		s.helpers++
		s.stats.Helpers++
		s.wg.Add(1)
		go s.help()
	}
}

// help verifies queued batches, oldest first, until there is none left.
func (s *SigStage) help() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var b *sigBatch
		for len(s.queue) > 0 && b == nil {
			b, s.queue[0] = s.queue[0], nil
			s.queue = s.queue[1:]
			if !b.claimed.CompareAndSwap(false, true) {
				b = nil // its submitter got there first
			}
		}
		if b == nil {
			s.helpers--
			s.mu.Unlock()
			sigHelpers.Add(-1)
			return
		}
		s.mu.Unlock()
		s.verify(b)
	}
}

// verify fills in a claimed batch's results and publishes them.
func (s *SigStage) verify(b *sigBatch) {
	for i := 0; i < b.n; i++ {
		b.ok[i] = b.auths[i].Verify(s.ks)
	}
	close(b.done)
}

// Valid reports whether the signature behind t verified, computing the
// result if nobody has started on it and waiting for it otherwise.
func (s *SigStage) Valid(t SigTicket) bool {
	b := t.b
	if b == s.open {
		// Never offered to the helpers: the claim below cannot fail.
		s.open = nil
	}
	select {
	case <-b.done:
	default:
		if b.claimed.CompareAndSwap(false, true) {
			s.verify(b)
			s.stats.WaiterVerified += b.n
		} else {
			start := time.Now()
			<-b.done
			s.stats.Waits++
			s.stats.WaitNs += time.Since(start).Nanoseconds()
		}
	}
	return b.ok[t.i]
}

// Close ends the stage: batches no helper has started on are dropped and
// the helpers have exited when it returns. Results already submitted can
// still be read (Valid computes what was dropped).
func (s *SigStage) Close() {
	s.mu.Lock()
	s.queue = nil
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats returns the stage's counters so far.
func (s *SigStage) Stats() SigStats { return s.stats }
