package avmm

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sig"
)

// Driver feeds external stimuli (bot keystrokes, benchmark commands) into
// monitors as the world advances. Drivers are the source of local inputs
// that §4.8 notes cannot be verified during an audit — they are recorded,
// and replay reproduces whatever was recorded.
type Driver interface {
	// Tick is called once per scheduling slice with the world time.
	Tick(w *World, nowNs uint64)
}

// DriverFunc adapts a function to the Driver interface.
type DriverFunc func(w *World, nowNs uint64)

// Tick implements Driver.
func (f DriverFunc) Tick(w *World, nowNs uint64) { f(w, nowNs) }

// World co-schedules a set of monitored machines and the network in
// deterministic virtual-time slices, standing in for the paper's testbed of
// physical machines on a switch.
//
// One goroutine — whichever calls Run — simulates every machine and the
// network. The only work that leaves it is the signing of authenticators,
// which the world's logging daemon does on up to GOMAXPROCS other
// goroutines while the simulation carries on; a frame's signature is
// waited for when the frame is due at its destination, so what is recorded
// does not depend on whether, or how fast, that happened.
type World struct {
	Net      *netsim.Network
	Keys     *sig.KeyStore
	Monitors []*Monitor
	Drivers  []Driver
	// SliceNs is the co-scheduling quantum (default 1 ms).
	SliceNs uint64
	nowNs   uint64
	daemon  *daemon
}

// NewWorld creates a world over the given network.
func NewWorld(net *netsim.Network, keys *sig.KeyStore) *World {
	w := &World{Net: net, Keys: keys, SliceNs: 1_000_000, daemon: newDaemon()}
	net.Deliver = w.route
	return w
}

// Now returns the world's virtual time.
func (w *World) Now() uint64 { return w.nowNs }

// Add registers a monitor; its Index must equal its position.
func (w *World) Add(mon *Monitor) error {
	if mon.Index() != len(w.Monitors) {
		return fmt.Errorf("avmm: monitor %q has index %d, expected %d", mon.Node(), mon.Index(), len(w.Monitors))
	}
	w.Monitors = append(w.Monitors, mon)
	mon.daemon = w.daemon
	if v := mon.cfg.Signer.Public(); w.Keys != nil {
		w.Keys.Add(v)
	}
	return nil
}

// Monitor returns the monitor at the given network index.
func (w *World) Monitor(i int) *Monitor { return w.Monitors[i] }

func (w *World) route(f netsim.Frame) {
	if f.To < 0 || f.To >= len(w.Monitors) {
		return // destination unknown: dropped on the floor like a bad MAC
	}
	w.Monitors[f.To].HandleIncoming(f)
}

// DaemonStats reports how the recording so far used the logging daemon.
func (w *World) DaemonStats() DaemonStats { return w.daemon.stats }

// Run advances the world until virtual time untilNs, scheduling every
// machine, delivering frames, and running housekeeping each slice. Before
// it waits for the signatures still being computed for frames in flight
// and for snapshot authenticators, so once Run is back no goroutine of the
// daemon exists and everything the monitors hold is final.
func (w *World) Run(untilNs uint64) {
	defer w.daemon.drain()
	for w.nowNs < untilNs {
		end := w.nowNs + w.SliceNs
		if end > untilNs {
			end = untilNs
		}
		for _, d := range w.Drivers {
			d.Tick(w, w.nowNs)
		}
		for _, mon := range w.Monitors {
			mon.RunSlice(end)
		}
		w.Net.AdvanceTo(end)
		for _, mon := range w.Monitors {
			mon.Tick(end)
		}
		w.nowNs = end
	}
}

// RunUntil advances slice by slice until cond returns true or the deadline
// passes; it reports whether cond was met.
func (w *World) RunUntil(cond func() bool, deadlineNs uint64) bool {
	for w.nowNs < deadlineNs {
		if cond() {
			return true
		}
		w.Run(w.nowNs + w.SliceNs)
	}
	return cond()
}

// AllHalted reports whether every machine has halted.
func (w *World) AllHalted() bool {
	for _, mon := range w.Monitors {
		if !mon.Machine.Halted {
			return false
		}
	}
	return true
}
