package sig

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Pending is the handle on a signature that has been requested but may not
// have been computed yet. The requester fixed where the signature goes — a
// slot of SigLen bytes, typically inside an already marshaled frame — and
// keeps working; whoever is about to read those bytes calls Wait first. The
// signature is computed once, by whoever gets to it first: a goroutine the
// requester handed Run to, or the first Wait that finds it not started. A
// nil *Pending is a signature that was complete when it was requested.
type Pending struct {
	signer    Signer
	msg, slot []byte
	claimed   atomic.Bool
	done      chan struct{}
	blocked   func(time.Duration)
}

// Defer returns the handle on s's signature over msg, to be written into
// slot (exactly s.SigLen() bytes) by Run. blocked, when not nil, is called
// by every Wait that found the signature missing, with how long it took to
// get it: the requester's way to account for time lost to signatures.
func Defer(s Signer, msg, slot []byte, blocked func(time.Duration)) *Pending {
	return &Pending{signer: s, msg: msg, slot: slot, done: make(chan struct{}), blocked: blocked}
}

// Run computes the signature into its slot, unless another caller already
// has or is about to. Everything it wrote happens before any Wait returns.
func (p *Pending) Run() {
	if p.claimed.CompareAndSwap(false, true) {
		SignInto(p.signer, p.msg, p.slot)
		close(p.done)
	}
}

// Wait returns once the signature is in its slot. If nobody has started on
// it the waiter computes it itself: it has nothing better to do, and on a
// strictly serial exchange that saves both handoffs.
func (p *Pending) Wait() {
	if p == nil {
		return
	}
	select {
	case <-p.done:
		return
	default:
	}
	start := time.Now()
	p.Run()
	<-p.done
	if p.blocked != nil {
		p.blocked(time.Since(start))
	}
}

// SignInto writes s's signature over msg into slot, which must be exactly
// s.SigLen() bytes. A signer whose Sign disagrees with its own SigLen is a
// bug in that signer, not an input: it panics.
func SignInto(s Signer, msg, slot []byte) {
	signature := s.Sign(msg)
	if len(signature) != len(slot) {
		panic(fmt.Sprintf("sig: %T for %q signed %d bytes into a %d-byte slot", s, s.ID(), len(signature), len(slot)))
	}
	copy(slot, signature)
}

// Offloads reports whether s.Sign is real public-key cryptography: costly
// enough that running it on another goroutine pays for the handoff, and
// known to be safe to call from several goroutines at once. That is
// RSASigner. An RSA-1024 signature on the package's three-prime CRT kernel
// with its MULX/ADX product costs about 95–135 µs of CPU on a 2-vCPU Xeon
// VM (the Go products: 155–220 µs), where crypto/rsa takes 480–620 µs for
// a two-prime key: three exponentiations of about 27–40 µs, one after the
// other, and an 11–12 µs verification on the package's own verify. The
// digest stand-ins (NullSigner, SizedSigner) cost less than a handoff, and
// an implementation this package does not know is not assumed to be
// concurrency-safe.
func Offloads(s Signer) bool {
	_, ok := s.(*RSASigner)
	return ok
}
