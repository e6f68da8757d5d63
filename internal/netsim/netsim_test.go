package netsim

import (
	"testing"
	"testing/quick"
)

func collect(n *Network) *[]Frame {
	var got []Frame
	n.Deliver = func(f Frame) { got = append(got, f) }
	return &got
}

func TestDeliveryAfterLatency(t *testing.T) {
	n := New(Config{BaseLatencyNs: 1000})
	got := collect(n)
	n.Send(0, 0, 1, []byte("a"), 0)
	n.AdvanceTo(999)
	if len(*got) != 0 {
		t.Fatal("delivered before latency elapsed")
	}
	n.AdvanceTo(1000)
	if len(*got) != 1 || (*got)[0].From != 0 || (*got)[0].To != 1 {
		t.Fatalf("got %v", *got)
	}
}

func TestFIFOOrderingSameLink(t *testing.T) {
	n := New(Config{BaseLatencyNs: 100})
	got := collect(n)
	for i := 0; i < 10; i++ {
		n.Send(uint64(i), 0, 1, []byte{byte(i)}, 0)
	}
	n.AdvanceTo(10_000)
	if len(*got) != 10 {
		t.Fatalf("delivered %d frames", len(*got))
	}
	for i, f := range *got {
		if f.Data[0] != byte(i) {
			t.Fatalf("frame %d out of order", i)
		}
	}
}

func TestSimultaneousDeliveriesAreDeterministic(t *testing.T) {
	run := func() []byte {
		n := New(Config{BaseLatencyNs: 100, Seed: 5})
		got := collect(n)
		n.Send(0, 2, 1, []byte{'x'}, 0)
		n.Send(0, 3, 1, []byte{'y'}, 0)
		n.Send(0, 4, 1, []byte{'z'}, 0)
		n.AdvanceTo(200)
		var order []byte
		for _, f := range *got {
			order = append(order, f.Data[0])
		}
		return order
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("nondeterministic delivery order: %q vs %q", a, b)
	}
	if len(a) != 3 {
		t.Fatalf("delivered %d", len(a))
	}
}

func TestByteAccounting(t *testing.T) {
	n := New(Config{})
	got := collect(n)
	n.Send(0, 0, 1, []byte("abc"), 0)  // defaults to len(data)
	n.Send(0, 0, 1, []byte("abc"), 43) // explicit wire size
	n.AdvanceTo(1)
	st := n.NodeStats(0)
	if st.FramesSent != 2 || st.BytesSent != 3+43 {
		t.Fatalf("stats = %+v", st)
	}
	if len(*got) != 2 {
		t.Fatal("frames lost without loss configured")
	}
}

func TestLossIsDeterministicAndCounted(t *testing.T) {
	run := func() (int, int) {
		n := New(Config{BaseLatencyNs: 10, LossRate: 0x4000, Seed: 9}) // 25%
		got := collect(n)
		for i := 0; i < 400; i++ {
			n.Send(uint64(i), 0, 1, []byte{1}, 0)
		}
		n.AdvanceTo(100_000)
		return len(*got), n.NodeStats(0).FramesLost
	}
	d1, l1 := run()
	d2, l2 := run()
	if d1 != d2 || l1 != l2 {
		t.Fatal("loss pattern not deterministic")
	}
	if l1 == 0 || d1 == 0 {
		t.Fatalf("delivered=%d lost=%d; expected a mix", d1, l1)
	}
	if d1+l1 != 400 {
		t.Fatalf("delivered+lost = %d, want 400", d1+l1)
	}
	if l1 < 50 || l1 > 150 {
		t.Fatalf("lost %d of 400 at 25%% rate", l1)
	}
}

func TestJitterBounded(t *testing.T) {
	n := New(Config{BaseLatencyNs: 1000, JitterNs: 500, Seed: 3})
	var times []uint64
	n.Deliver = func(f Frame) { times = append(times, n.Now()) }
	for i := 0; i < 100; i++ {
		n.Send(0, 0, 1, []byte{1}, 0)
	}
	n.AdvanceTo(10_000)
	if len(times) != 100 {
		t.Fatalf("delivered %d", len(times))
	}
	spread := false
	for _, at := range times {
		if at < 1000 || at >= 1500 {
			t.Fatalf("delivery at %d outside [1000,1500)", at)
		}
		if at != 1000 {
			spread = true
		}
	}
	if !spread {
		t.Fatal("no jitter observed")
	}
}

func TestNextDeliveryAndPending(t *testing.T) {
	n := New(Config{BaseLatencyNs: 50})
	n.Deliver = func(Frame) {}
	if _, ok := n.NextDelivery(); ok {
		t.Fatal("empty network has a next delivery")
	}
	n.Send(10, 0, 1, []byte{1}, 0)
	at, ok := n.NextDelivery()
	if !ok || at != 60 {
		t.Fatalf("next delivery = %d, %v", at, ok)
	}
	if n.Pending() != 1 {
		t.Fatal("pending != 1")
	}
	n.AdvanceTo(100)
	if n.Pending() != 0 {
		t.Fatal("pending after delivery")
	}
}

func TestClockNeverGoesBackwards(t *testing.T) {
	n := New(Config{BaseLatencyNs: 100})
	n.Deliver = func(Frame) {}
	n.AdvanceTo(1000)
	n.Send(0, 0, 1, []byte{1}, 0) // sentAt before now is clamped
	n.AdvanceTo(2000)
	if n.Now() != 2000 {
		t.Fatalf("now = %d", n.Now())
	}
}

// TestPropertyAllFramesDeliveredInTimeOrder: with no loss, every frame is
// delivered exactly once and delivery times never decrease.
func TestPropertyAllFramesDeliveredInTimeOrder(t *testing.T) {
	f := func(sends []uint16) bool {
		if len(sends) > 200 {
			sends = sends[:200]
		}
		n := New(Config{BaseLatencyNs: 100, JitterNs: 50, Seed: 7})
		count := 0
		last := uint64(0)
		n.Deliver = func(Frame) {
			if n.Now() < last {
				t.Fatal("time went backwards")
			}
			last = n.Now()
			count++
		}
		for _, s := range sends {
			n.Send(uint64(s), 0, 1, []byte{1}, 0)
		}
		n.AdvanceTo(1 << 30)
		return count == len(sends)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// finishOnWait stands for a frame whose last bytes arrive while the network
// waits for it: Wait writes them.
type finishOnWait struct {
	data  []byte
	waits int
}

func (f *finishOnWait) Wait() {
	f.waits++
	copy(f.data, "done")
}

func TestSendPendingIsWaitedForBeforeFilterAndDeliver(t *testing.T) {
	n := New(Config{BaseLatencyNs: 100})
	got := collect(n)
	n.Filter = func(f Frame) bool {
		if string(f.Data) != "done" {
			t.Errorf("filter saw %q", f.Data)
		}
		return true
	}
	w := &finishOnWait{data: []byte("....")}
	n.SendPending(0, 0, 1, w.data, 0, w)
	if w.waits != 0 {
		t.Fatal("sending waited for the frame")
	}
	n.AdvanceTo(99)
	if w.waits != 0 {
		t.Fatal("waited before the frame was due")
	}
	n.AdvanceTo(100)
	if w.waits != 1 || len(*got) != 1 || string((*got)[0].Data) != "done" {
		t.Fatalf("waits %d, delivered %v", w.waits, *got)
	}
	if st := n.NodeStats(0); st.FramesSent != 1 || st.BytesSent != 4 {
		t.Fatalf("accounting %+v: a pending frame is counted when it is sent, by its length", *st)
	}
}

func TestLostPendingFrameIsNeverWaitedFor(t *testing.T) {
	n := New(Config{BaseLatencyNs: 100, LossRate: 0x10000})
	got := collect(n)
	w := &finishOnWait{data: []byte("....")}
	n.SendPending(0, 0, 1, w.data, 0, w)
	n.AdvanceTo(1000)
	if w.waits != 0 || len(*got) != 0 || n.NodeStats(0).FramesLost != 1 {
		t.Fatalf("waits %d, delivered %d, stats %+v", w.waits, len(*got), *n.NodeStats(0))
	}
}
