package avmm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sig"
)

// DaemonStats says how a recording used its logging daemon, in host terms:
// what the virtual-time DaemonBusyNs model cannot show. Waits over
// Signatures is the share of signatures the simulation had caught up with
// before they were done; because frames are delivered in order, one slow
// signature holds every later delivery, which bounds what more workers can
// win.
type DaemonStats struct {
	// Signatures is the number of authenticator signatures requested: the
	// frames' and the snapshot entries'.
	Signatures int
	// Waits is the number of times a frame was due — for delivery, or for
	// the link filter — or snapshot authenticators were asked for before
	// their signature was in place.
	Waits int
	// WaitNs is the host time the simulation thread spent getting those
	// signatures: blocked on a worker, or computing one no worker had
	// started on.
	WaitNs int64
	// MaxInFlight is the largest number of signatures that were being
	// computed or queued at once when another was requested.
	MaxInFlight int
}

// daemon is the AVMM's logging daemon as a host-side stage (§6.1: hashing
// and signing run on their own hyperthread, so a signature delays a packet
// but never the guest). The simulation thread hands it the bytes to sign and
// the slot the signature goes to, gets a handle back and carries on; at most
// workers signatures are computed at a time, oldest first. All of a world's
// monitors share one daemon. Its fields other than inFlight belong to the
// simulation thread.
type daemon struct {
	// workers is a counting semaphore with one token per P. It is nil when
	// there is one P: nothing could overlap, so every signature is computed
	// when it is requested.
	workers  chan struct{}
	jobs     sync.WaitGroup
	inFlight atomic.Int64
	stats    DaemonStats
}

func newDaemon() *daemon {
	d := &daemon{}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		d.workers = make(chan struct{}, n)
	}
	return d
}

// sign requests signer's signature over body into slot. With a worker to
// give it to and a signer whose Sign is worth giving away (sig.Offloads),
// the signature is left to another goroutine — or to the simulation thread
// itself, if it comes to wait for the signature before a worker has started
// on it — and the returned handle completes when it is in the slot;
// otherwise it is there on return, and the handle is nil. Either way the
// same bytes end up in the same place.
func (d *daemon) sign(signer sig.Signer, body, slot []byte) *sig.Pending {
	d.stats.Signatures++
	if d.workers == nil || !sig.Offloads(signer) {
		sig.SignInto(signer, body, slot)
		return nil
	}
	if n := int(d.inFlight.Add(1)); n > d.stats.MaxInFlight {
		d.stats.MaxInFlight = n
	}
	p := sig.Defer(signer, body, slot, d.waited)
	d.jobs.Add(1)
	go func() {
		defer d.jobs.Done()
		d.workers <- struct{}{} // blocked senders are served first come, first served
		p.Run()
		<-d.workers
		d.inFlight.Add(-1)
	}()
	return p
}

// waited records a Wait that found its signature missing; handles call it
// on the simulation thread, the only one that waits.
func (d *daemon) waited(t time.Duration) {
	d.stats.Waits++
	d.stats.WaitNs += t.Nanoseconds()
}

// drain returns once every requested signature is in its slot and the
// goroutine that put it there has exited.
func (d *daemon) drain() { d.jobs.Wait() }
