package tevlog

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sig"
)

// stubVerifier stands in for a public key: a signature is valid iff its
// first byte is 1. It records what the stage did around it: the order of
// calls, how many ran at once, and the most helper goroutines the process
// had while one ran.
type stubVerifier struct {
	id    sig.NodeID
	delay time.Duration

	mu         sync.Mutex
	order      []uint64 // authenticator sequence numbers, in call order
	running    atomic.Int32
	maxRunning atomic.Int32
	maxHelpers atomic.Int32
}

func (v *stubVerifier) ID() sig.NodeID  { return v.id }
func (v *stubVerifier) Marshal() []byte { return nil }
func (v *stubVerifier) Verify(msg, signature []byte) bool {
	atomicMax(&v.maxRunning, v.running.Add(1))
	atomicMax(&v.maxHelpers, sigHelpers.Load())
	defer v.running.Add(-1)
	v.mu.Lock()
	v.order = append(v.order, binary.BigEndian.Uint64(msg))
	v.mu.Unlock()
	if v.delay > 0 {
		time.Sleep(v.delay)
	}
	return len(signature) > 0 && signature[0] == 1
}

func atomicMax(m *atomic.Int32, v int32) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

func stubStage(v *stubVerifier) *SigStage {
	ks := sig.NewKeyStore()
	ks.Add(v)
	return NewSigStage(ks)
}

// stubAuth is authenticator number seq of the stub's node, valid or not.
func stubAuth(v *stubVerifier, seq uint64, valid bool) Authenticator {
	a := Authenticator{Node: v.id, Seq: seq, Sig: []byte{0}}
	if valid {
		a.Sig[0] = 1
	}
	return a
}

// withProcs runs f with GOMAXPROCS set to n.
func withProcs(t *testing.T, n int, f func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// requireNoHelpers fails unless every helper slot of the process is back.
func requireNoHelpers(t *testing.T) {
	t.Helper()
	if n := sigHelpers.Load(); n != 0 {
		t.Fatalf("%d helper slots still taken after every stage closed", n)
	}
}

// requireGoroutines waits for the process to be back at n goroutines: a
// helper that Close has waited for is past its last statement, but the
// runtime counts it until it has finished exiting.
func requireGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), n)
		}
		runtime.Gosched()
	}
}

// TestSigStageResultsAreThoseOfTheSubmission: whatever goroutine verified
// which batch, a ticket reads the result of the authenticator it was issued
// for — so reading tickets in submission order finds the first bad
// signature in that order.
func TestSigStageResultsAreThoseOfTheSubmission(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func() {
			v := &stubVerifier{id: "n"}
			s := stubStage(v)
			const n = 50*sigBatchSize + 7
			valid := func(i int) bool { return i%11 != 3 && i%97 != 0 }
			tickets := make([]SigTicket, n)
			for i := range tickets {
				tickets[i] = s.Submit(stubAuth(v, uint64(i), valid(i)))
				// Reading a result in the middle of a batch must not disturb
				// the ones submitted around it.
				if i%301 == 300 && s.Valid(tickets[i-5]) != valid(i-5) {
					t.Fatalf("procs=%d: early read of %d is wrong", procs, i-5)
				}
			}
			for i, tk := range tickets {
				if s.Valid(tk) != valid(i) {
					t.Fatalf("procs=%d: ticket %d reads %v", procs, i, !valid(i))
				}
			}
			s.Close()
			st := s.Stats()
			if st.Submitted != n || len(v.order) != n {
				t.Fatalf("procs=%d: submitted %d, verified %d, want %d of each", procs, st.Submitted, len(v.order), n)
			}
			if procs > 1 && st.Helpers == 0 {
				t.Fatalf("procs=%d: no helper started for %d batches", procs, n/sigBatchSize)
			}
			requireNoHelpers(t)
		})
	}
}

// TestSigStageOnePVerifiesInline: with one P the stage starts no goroutine,
// never blocks, and its submitter verifies every signature itself in the
// order of submission.
func TestSigStageOnePVerifiesInline(t *testing.T) {
	withProcs(t, 1, func() {
		before := runtime.NumGoroutine()
		v := &stubVerifier{id: "n"}
		s := stubStage(v)
		const n = 10*sigBatchSize + 3
		var tickets []SigTicket
		for i := 0; i < n; i++ {
			tickets = append(tickets, s.Submit(stubAuth(v, uint64(i), true)))
			if during := runtime.NumGoroutine(); during != before {
				t.Fatalf("%d goroutines while submitting, %d before", during, before)
			}
		}
		for _, tk := range tickets {
			if !s.Valid(tk) {
				t.Fatal("valid signature read back bad")
			}
		}
		s.Close()
		want := SigStats{Submitted: n, WaiterVerified: n}
		if got := s.Stats(); got != want {
			t.Fatalf("stats %+v, want %+v", got, want)
		}
		for i, seq := range v.order {
			if seq != uint64(i) {
				t.Fatalf("verification %d was of submission %d", i, seq)
			}
		}
		if len(s.queue) != 0 {
			t.Fatalf("%d batches queued for helpers that cannot exist", len(s.queue))
		}
	})
}

// TestSigStageWaiterComputesWhatNobodyStarted: when the process has no
// helper slot left (other stages hold them all), a stage behaves as with
// one P, and keeps no queue that would grow with the log.
func TestSigStageWaiterComputesWhatNobodyStarted(t *testing.T) {
	withProcs(t, 4, func() {
		sigHelpers.Add(4) // every slot taken by somebody else
		defer sigHelpers.Add(-4)
		v := &stubVerifier{id: "n"}
		s := stubStage(v)
		const n = 20 * sigBatchSize
		var tickets []SigTicket
		for i := 0; i < n; i++ {
			tickets = append(tickets, s.Submit(stubAuth(v, uint64(i), i != 77)))
			if i%sigBatchSize == sigBatchSize-1 && len(s.queue) != 0 {
				t.Fatalf("batch %d queued with no helper to take it", i/sigBatchSize)
			}
		}
		for i, tk := range tickets {
			if s.Valid(tk) != (i != 77) {
				t.Fatalf("ticket %d wrong", i)
			}
		}
		s.Close()
		if st := s.Stats(); st.Helpers != 0 || st.Waits != 0 || st.WaiterVerified != n {
			t.Fatalf("stats %+v: want every signature verified by the waiter", st)
		}
	})
}

// TestSigStagesShareTheProcessCap: stages of nested audits running side by
// side have GOMAXPROCS helpers between them, not each.
func TestSigStagesShareTheProcessCap(t *testing.T) {
	const procs, stages = 2, 6
	withProcs(t, procs, func() {
		v := &stubVerifier{id: "n", delay: 20 * time.Microsecond}
		ks := sig.NewKeyStore()
		ks.Add(v)
		var wg sync.WaitGroup
		helpers := make([]int, stages)
		for g := 0; g < stages; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s := NewSigStage(ks)
				defer s.Close()
				var tickets []SigTicket
				for i := 0; i < 12*sigBatchSize; i++ {
					tickets = append(tickets, s.Submit(stubAuth(v, uint64(i), true)))
				}
				for _, tk := range tickets {
					if !s.Valid(tk) {
						t.Error("valid signature read back bad")
						return
					}
				}
				helpers[g] = s.Stats().Helpers
			}(g)
		}
		wg.Wait()
		if got := v.maxHelpers.Load(); got > procs {
			t.Fatalf("%d helper goroutines at once across %d stages; the cap is GOMAXPROCS = %d", got, stages, procs)
		}
		// Helpers plus the stages' own goroutines computing what they wait
		// for: never a pool per stage.
		if got := v.maxRunning.Load(); got > procs+stages {
			t.Fatalf("%d verifications at once", got)
		}
		total := 0
		for _, h := range helpers {
			total += h
		}
		if total == 0 {
			t.Fatal("no stage ever got a helper")
		}
		requireNoHelpers(t)
	})
}

// TestSigStageCloseWaitsForHelpers: Close returns with the helpers gone and
// the queue dropped; results submitted before it can still be read.
func TestSigStageCloseWaitsForHelpers(t *testing.T) {
	withProcs(t, 4, func() {
		before := runtime.NumGoroutine()
		v := &stubVerifier{id: "n", delay: 50 * time.Microsecond}
		s := stubStage(v)
		var tickets []SigTicket
		for i := 0; i < 40*sigBatchSize; i++ {
			tickets = append(tickets, s.Submit(stubAuth(v, uint64(i), i%2 == 0)))
		}
		s.Close()
		requireNoHelpers(t)
		requireGoroutines(t, before)
		if len(v.order) == len(tickets) {
			t.Log("helpers finished everything before Close; nothing was dropped this time")
		}
		for i, tk := range tickets {
			if s.Valid(tk) != (i%2 == 0) {
				t.Fatalf("ticket %d wrong after Close", i)
			}
		}
		if len(v.order) != len(tickets) {
			t.Fatalf("%d of %d verified once everything was read", len(v.order), len(tickets))
		}
	})
}

// verifySegmentSerial is the reference VerifySegment: rechain a copy, then
// walk the authenticators in the order supplied, verifying each in-range
// signature on the spot. What the stage-backed verifier returns must be
// the same kind of error.
func verifySegmentSerial(prev Hash, entries []Entry, auths []Authenticator, ks *sig.KeyStore) error {
	if len(entries) == 0 {
		return errors.New("tevlog: empty segment")
	}
	seg := append([]Entry(nil), entries...)
	if err := Rechain(prev, seg); err != nil {
		return err
	}
	lo, hi := seg[0].Seq, seg[len(seg)-1].Seq
	covered := false
	for _, a := range auths {
		if a.Seq < lo || a.Seq > hi {
			continue
		}
		if !a.Verify(ks) {
			return ErrBadSignature
		}
		if seg[a.Seq-lo].Hash != a.Hash {
			return ErrAuthenticatorMismatch
		}
		if a.Seq == hi {
			covered = true
		}
	}
	if !covered {
		return ErrAuthenticatorMismatch
	}
	return nil
}

// TestVerifySegmentSignatureFaults: a bad signature is ErrBadSignature by
// name; among several faulty authenticators the first in the supplied order
// decides, whichever the stage verified first; authenticators outside the
// segment are never verified.
func TestVerifySegmentSignatureFaults(t *testing.T) {
	s := testSigner(t, "a")
	ks := testKeys(s)
	l := buildLog(s, 200)
	entries := l.All()
	var honest []Authenticator
	for seq := uint64(1); seq <= 200; seq++ {
		if seq%2 == 0 || seq == 200 {
			a, err := l.Authenticator(seq)
			if err != nil {
				t.Fatal(err)
			}
			honest = append(honest, a)
		}
	}
	badSig := func(a Authenticator) Authenticator {
		a.Sig = append([]byte(nil), a.Sig...)
		a.Sig[5] ^= 0x40
		return a
	}
	wrongHash := func(a Authenticator) Authenticator {
		// Signed by the node, but not for this chain: a fork.
		a.Hash[0] ^= 1
		fork := New(s)
		fork.entries = []Entry{{Seq: a.Seq, Hash: a.Hash}}
		signed, _ := fork.Authenticator(1)
		a.Sig = signed.Sig
		return a
	}
	mutate := func(f func([]Authenticator)) []Authenticator {
		out := append([]Authenticator(nil), honest...)
		f(out)
		return out
	}
	cases := []struct {
		name  string
		auths []Authenticator
		seg   []Entry
		want  error
	}{
		{"honest", honest, entries, nil},
		{"one bad signature", mutate(func(a []Authenticator) { a[60] = badSig(a[60]) }), entries, ErrBadSignature},
		{"unknown node", mutate(func(a []Authenticator) { a[3].Node = "stranger" }), entries, ErrBadSignature},
		{"bad signature before a fork", mutate(func(a []Authenticator) { a[10] = badSig(a[10]); a[70] = wrongHash(a[70]) }), entries, ErrBadSignature},
		{"fork before a bad signature", mutate(func(a []Authenticator) { a[10] = wrongHash(a[10]); a[70] = badSig(a[70]) }), entries, ErrAuthenticatorMismatch},
		{"bad signature outside the segment", mutate(func(a []Authenticator) { a[90] = badSig(a[90]) }), entries[:99], ErrAuthenticatorMismatch},
		{"bad signature outside a covered segment", mutate(func(a []Authenticator) { a[90] = badSig(a[90]) }), entries[:120], nil},
	}
	for _, tc := range cases {
		for _, procs := range []int{1, 4} {
			withProcs(t, procs, func() {
				oracle := verifySegmentSerial(Hash{}, tc.seg, tc.auths, ks)
				got := VerifySegment(Hash{}, tc.seg, tc.auths, ks)
				if (tc.want == nil) != (got == nil) || !errors.Is(got, tc.want) {
					t.Fatalf("%s, procs=%d: got %v, want %v", tc.name, procs, got, tc.want)
				}
				for _, kind := range []error{ErrChainBroken, ErrBadSignature, ErrAuthenticatorMismatch} {
					if (oracle == nil) != (got == nil) || errors.Is(oracle, kind) != errors.Is(got, kind) {
						t.Fatalf("%s, procs=%d: got %v, the serial pass says %v", tc.name, procs, got, oracle)
					}
				}
			})
		}
	}

	// Only what lies inside the segment reaches the stage.
	st := NewSigStage(ks)
	v := NewChainVerifier(Hash{}, honest, st)
	for i := range entries[:120] {
		if err := v.Add(&entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Finish(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if got := st.Stats().Submitted; got != 60 {
		t.Fatalf("%d signatures verified for a segment holding 60 authenticators", got)
	}
	requireNoHelpers(t)
}
