// Package netsim provides the simulated network substrate: virtual-time
// message delivery with configurable latency, jitter and loss, and per-byte
// traffic accounting. It stands in for the paper's testbed LAN (three
// machines on a 1 Gbps switch, §6.2); only ordering, latency and byte
// counts matter to the protocol above it.
package netsim

import (
	"container/heap"
	"fmt"
)

// Frame is an opaque datagram between nodes. WireBytes is the IP-level size
// used for traffic accounting (payload plus whatever headers the sender's
// protocol layer charges), so measurements like §6.7 count what the paper
// counted.
type Frame struct {
	From, To  int
	Data      []byte
	WireBytes int
}

// Waiter is the completion handle of a frame sent before all of its bytes
// were final (SendPending): Wait returns once they are.
type Waiter interface {
	Wait()
}

type event struct {
	at    uint64 // delivery time, virtual ns
	seq   uint64 // tiebreaker for determinism
	frame Frame
	ready Waiter // nil: the frame was complete when it was sent
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Config sets the link characteristics.
type Config struct {
	// BaseLatencyNs is the one-way propagation delay. The paper's testbed
	// measures 192 µs bare-hardware RTT, i.e. roughly 96 µs each way.
	BaseLatencyNs uint64
	// JitterNs bounds the deterministic pseudo-random extra delay.
	JitterNs uint64
	// LossRate is the packet drop probability in 1/65536 units (0 = no
	// loss). Losses are deterministic given the seed.
	LossRate uint32
	// Seed drives the jitter/loss PRNG.
	Seed uint64
}

// Stats accumulates traffic accounting per node.
type Stats struct {
	FramesSent int
	BytesSent  int // IP-level bytes including protocol overhead
	FramesLost int
}

// Network is a deterministic virtual-time network connecting numbered
// nodes.
type Network struct {
	cfg   Config
	now   uint64
	queue eventQueue
	seq   uint64
	rng   uint64
	stats map[int]*Stats
	// Deliver is invoked for each frame when it arrives. Set by the world
	// before advancing time.
	Deliver func(f Frame)
	// Filter, when set, is consulted at delivery time; returning false
	// drops the frame (counted against the sender as lost). It models
	// deterministic partitions and adversarial links on top of the
	// probabilistic LossRate — a filter that consults Now() can cut a node
	// off for a virtual-time span and then heal.
	Filter func(f Frame) bool
}

// New returns an empty network.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x853c49e6748fea9b
	}
	return &Network{cfg: cfg, rng: seed, stats: make(map[int]*Stats)}
}

// Now returns the network's virtual clock.
func (n *Network) Now() uint64 { return n.now }

func (n *Network) rand() uint32 {
	n.rng ^= n.rng << 13
	n.rng ^= n.rng >> 7
	n.rng ^= n.rng << 17
	return uint32(n.rng)
}

// NodeStats returns (allocating if needed) the accounting record for node.
func (n *Network) NodeStats(node int) *Stats {
	s := n.stats[node]
	if s == nil {
		s = &Stats{}
		n.stats[node] = s
	}
	return s
}

// Send enqueues a frame from the sender at virtual time sentAt. wireBytes
// is the IP-level frame size for accounting; if 0, len(data) is used.
func (n *Network) Send(sentAt uint64, from, to int, data []byte, wireBytes int) {
	n.SendPending(sentAt, from, to, data, wireBytes, nil)
}

// SendPending is Send for a frame whose length is final but some of whose
// bytes another goroutine is still writing (a signature being computed off
// the simulation thread). Everything that depends on the send — accounting,
// loss, latency, ordering — is decided now, from the length alone; the
// bytes are first looked at when the frame is due, and AdvanceTo calls
// ready.Wait before it hands them to Filter or Deliver. A frame that is
// lost is never waited for.
func (n *Network) SendPending(sentAt uint64, from, to int, data []byte, wireBytes int, ready Waiter) {
	if wireBytes == 0 {
		wireBytes = len(data)
	}
	st := n.NodeStats(from)
	st.FramesSent++
	st.BytesSent += wireBytes
	if n.cfg.LossRate > 0 && n.rand()&0xFFFF < n.cfg.LossRate {
		st.FramesLost++
		return
	}
	delay := n.cfg.BaseLatencyNs
	if n.cfg.JitterNs > 0 {
		delay += uint64(n.rand()) % n.cfg.JitterNs
	}
	if sentAt < n.now {
		sentAt = n.now
	}
	n.seq++
	heap.Push(&n.queue, event{at: sentAt + delay, seq: n.seq, frame: Frame{
		From: from, To: to, Data: data, WireBytes: wireBytes,
	}, ready: ready})
}

// AdvanceTo moves the virtual clock to t, delivering every frame due at or
// before t in deterministic order. A frame sent with SendPending is waited
// for when its turn comes, so neither Filter nor Deliver ever sees bytes
// that are still being written, and what they see does not depend on how
// long the writer took.
func (n *Network) AdvanceTo(t uint64) {
	for len(n.queue) > 0 && n.queue[0].at <= t {
		e := heap.Pop(&n.queue).(event)
		n.now = e.at
		if e.ready != nil {
			e.ready.Wait()
		}
		if n.Filter != nil && !n.Filter(e.frame) {
			n.NodeStats(e.frame.From).FramesLost++
			continue
		}
		if n.Deliver == nil {
			panic("netsim: AdvanceTo with no Deliver callback")
		}
		n.Deliver(e.frame)
	}
	if t > n.now {
		n.now = t
	}
}

// Pending returns the number of in-flight frames.
func (n *Network) Pending() int { return len(n.queue) }

// NextDelivery returns the virtual time of the earliest in-flight frame,
// or false if none.
func (n *Network) NextDelivery() (uint64, bool) {
	if len(n.queue) == 0 {
		return 0, false
	}
	return n.queue[0].at, true
}

// String summarizes traffic for debugging.
func (n *Network) String() string {
	return fmt.Sprintf("netsim{now=%dns inflight=%d}", n.now, len(n.queue))
}
