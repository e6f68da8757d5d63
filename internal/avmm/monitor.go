package avmm

import (
	"fmt"
	"sort"

	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
	"repro/internal/wire"
)

// EntryClass buckets log entries for the composition analysis of Fig. 4.
type EntryClass int

// Log entry classes.
const (
	// ClassTimeTracker: clock reads and interrupt landmarks — the replay
	// timing information that dominates the log (~59% in the paper).
	ClassTimeTracker EntryClass = iota
	// ClassMAC: network packet payloads as seen by the virtual NIC (~14%).
	ClassMAC
	// ClassOther: everything else replay needs (input events, snapshots).
	ClassOther
	// ClassTamper: entries that exist only for tamper evidence (SEND, RECV,
	// ACK records with signatures) — the delta between the AVMM log and an
	// equivalent VMware log (Fig. 3).
	ClassTamper
	numClasses
)

var classNames = [...]string{"TimeTracker", "MAC", "Other", "TamperEvident"}

// String returns the class name used in Fig. 4.
func (c EntryClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// Config assembles a monitor.
type Config struct {
	// Node is the machine's principal identity.
	Node sig.NodeID
	// Index is the machine's network address.
	Index int
	// Mode selects the evaluation configuration.
	Mode Mode
	// Cost is the virtual-time cost model; zero value disables charging.
	Cost CostModel
	// Signer signs authenticators and acknowledgments.
	Signer sig.Signer
	// Keys verifies peers' signatures.
	Keys *sig.KeyStore
	// Image is the guest to boot.
	Image *vm.Image
	// Net is the network to attach to.
	Net *netsim.Network
	// RNGSeed seeds the guest-visible RNG device. It is part of the
	// reference configuration an auditor must know.
	RNGSeed uint64
	// NsPerInstr overrides the machine's virtual CPU speed (0 = default).
	NsPerInstr uint64
	// SnapshotEveryNs takes periodic snapshots when > 0.
	SnapshotEveryNs uint64
	// SnapshotMaxDirtyBytes, when > 0 (and SnapshotEveryNs > 0), takes a
	// snapshot early once the guest has dirtied at least this many bytes of
	// memory since the last one. A write-heavy phase then snapshots more
	// often, bounding the size of any one snapshot's dirty-page increment —
	// and with it the delta-shipped audit job built from it — by
	// construction.
	SnapshotMaxDirtyBytes uint64
	// SnapshotMaxInstr, when > 0 (and SnapshotEveryNs > 0), takes a
	// snapshot early once the guest has retired at least this many
	// instructions since the last one, bounding the replay work of any one
	// audit epoch.
	SnapshotMaxInstr uint64
	// ClockDelayOpt enables the §6.5 consecutive-clock-read delay
	// optimization.
	ClockDelayOpt bool
	// RetransmitNs is the ack timeout before retransmission (default 250ms).
	RetransmitNs uint64
	// SlowdownPerInstrNs artificially slows the guest (the §6.11 trick that
	// lets online auditors keep up).
	SlowdownPerInstrNs uint64
}

// sentFrame is a marshaled frame the monitor may send again, with the handle
// on its signature: every send passes both to the network, which waits for
// the signature before anyone reads the bytes.
type sentFrame struct {
	raw   []byte
	ready *sig.Pending
}

type pendingMsg struct {
	msgID      uint64
	dest       int
	frame      sentFrame
	lastSentNs uint64
	attempts   int
}

// Monitor is the accountable virtual machine monitor for one machine.
type Monitor struct {
	cfg     Config
	Machine *vm.Machine
	Devs    *vm.DeviceSet
	Log     *tevlog.Log
	Snaps   *snapshot.Store

	// daemon signs this machine's authenticators off the simulation thread;
	// a world's monitors share the world's.
	daemon *daemon

	outbox    map[uint64]*pendingMsg
	seenAcks  map[string]sentFrame // node/msgID → our ack, for duplicate data frames
	recvSeen  map[string]bool      // node/msgID → already received
	PeerAuths map[sig.NodeID][]tevlog.Authenticator
	snapAuths []tevlog.Authenticator
	snapSigs  []*sig.Pending // the daemon's handles on snapAuths' signatures not yet waited for

	classBytes        [numClasses]int
	lastClockNs       uint64
	clockStreak       int
	lastSnapshotNs    uint64
	lastSnapshotInstr uint64
	perInstrNs        uint64

	// pendingInj holds packets whose daemon-side processing delay has not
	// yet elapsed; they are injected into the AVM when it does.
	pendingInj []delayedInjection

	// suspended marks peers this node refuses traffic with until they
	// answer an outstanding challenge (§4.6); unresponsive is a test hook
	// modelling a machine that will not answer.
	suspended    map[int]bool
	unresponsive bool

	// Counters for the evaluation.
	Retransmits   int
	BadFrames     int
	DroppedFrames int
	// AdaptiveSnapshots counts snapshots triggered by the dirty-volume or
	// instruction-budget thresholds rather than the periodic cadence.
	AdaptiveSnapshots int
	// GuestOverheadNs is monitor work on the guest's execution path
	// (interposition, recording): it slows the AVM.
	GuestOverheadNs uint64
	// DaemonBusyNs is work done by the logging daemon on its own
	// hyperthread (§6.1: hashing, signing, verification, pipes): it does
	// not slow the AVM, but it delays packets and occupies HT0 (Fig. 6).
	// It is the virtual-time model of the daemon, charged the same whether
	// or not the host had a core to run the real signature on; what the
	// host did is in World.DaemonStats.
	DaemonBusyNs uint64
}

type delayedInjection struct {
	dueNs   uint64
	srcIdx  uint32
	payload []byte
	recvSeq uint64
}

// NewMonitor boots the image under the configured mode.
func NewMonitor(cfg Config) (*Monitor, error) {
	if cfg.Image == nil {
		return nil, fmt.Errorf("avmm: config for %q has no image", cfg.Node)
	}
	if cfg.RetransmitNs == 0 {
		cfg.RetransmitNs = 250_000_000
	}
	mon := &Monitor{
		cfg:       cfg,
		daemon:    newDaemon(),
		outbox:    make(map[uint64]*pendingMsg),
		seenAcks:  make(map[string]sentFrame),
		recvSeen:  make(map[string]bool),
		PeerAuths: make(map[sig.NodeID][]tevlog.Authenticator),
	}
	mon.Devs = vm.NewDeviceSet(cfg.RNGSeed)
	m, err := cfg.Image.Boot(mon.Devs)
	if err != nil {
		return nil, fmt.Errorf("avmm: booting %q: %w", cfg.Node, err)
	}
	mon.Machine = m
	if cfg.NsPerInstr != 0 {
		m.NsPerInstr = cfg.NsPerInstr
	}
	if cfg.Mode.Virtualized() {
		m.Bus = mon // interpose on the device bus
	}
	mon.Devs.SendFunc = mon.guestSend
	if cfg.Signer == nil {
		mon.cfg.Signer = sig.NullSigner{Node: cfg.Node}
	}
	mon.Log = tevlog.New(mon.cfg.Signer)
	mon.Snaps = snapshot.NewStore(len(m.Mem))
	mon.perInstrNs = 0
	if cfg.Mode.Virtualized() {
		mon.perInstrNs += cfg.Cost.VirtPerInstrNs
	}
	if cfg.Mode.Records() {
		mon.perInstrNs += cfg.Cost.RecordPerInstrNs
	}
	mon.perInstrNs += cfg.SlowdownPerInstrNs
	return mon, nil
}

// Node returns the monitor's principal.
func (mon *Monitor) Node() sig.NodeID { return mon.cfg.Node }

// Index returns the monitor's network address.
func (mon *Monitor) Index() int { return mon.cfg.Index }

// Mode returns the evaluation configuration.
func (mon *Monitor) Mode() Mode { return mon.cfg.Mode }

// ClassBytes returns the logged bytes in the given class.
func (mon *Monitor) ClassBytes(c EntryClass) int { return mon.classBytes[c] }

// TotalLogBytes returns the AVMM log size.
func (mon *Monitor) TotalLogBytes() int { return mon.Log.WireBytes() }

// VMwareEquivalentBytes returns the size of an equivalent plain replay log:
// everything except the tamper-evidence entries (Fig. 3's second curve).
func (mon *Monitor) VMwareEquivalentBytes() int {
	return mon.classBytes[ClassTimeTracker] + mon.classBytes[ClassMAC] + mon.classBytes[ClassOther]
}

// charge adds guest-path monitor overhead to the machine's virtual clock.
func (mon *Monitor) charge(ns uint64) {
	if ns == 0 {
		return
	}
	mon.Machine.ChargeNs(ns)
	mon.GuestOverheadNs += ns
}

// daemonCharge accounts work performed on the logging daemon's hyperthread;
// the guest keeps running (§6.1).
func (mon *Monitor) daemonCharge(ns uint64) { mon.DaemonBusyNs += ns }

// append logs an entry, attributes its bytes to a class, and accounts chain
// hashing on the daemon when the log is tamper-evident.
func (mon *Monitor) append(typ tevlog.EntryType, content []byte, class EntryClass) tevlog.Entry {
	e := mon.Log.Append(typ, content)
	mon.classBytes[class] += e.WireSize()
	if mon.cfg.Mode.TamperEvident() {
		mon.daemonCharge(uint64(e.WireSize()) * mon.cfg.Cost.HashPerByteNs)
	}
	return e
}

// --- device bus interposition ---

// In implements vm.IOBus: forward to the devices, logging nondeterministic
// values. With packet and input arrivals logged as injection events, the
// only synchronous nondeterministic inputs left are clock reads — the
// TimeTracker-dominant pattern of §6.4.
func (mon *Monitor) In(m *vm.Machine, port uint32) uint32 {
	if port == vm.PortClockLo && mon.cfg.ClockDelayOpt {
		mon.applyClockDelay(m)
	}
	v := mon.Devs.In(m, port)
	if mon.cfg.Mode.Records() && (port == vm.PortClockLo || port == vm.PortClockHi) {
		content := (&wire.NondetContent{Port: port, Value: uint64(v)}).Marshal()
		mon.append(tevlog.TypeNondet, content, ClassTimeTracker)
		mon.charge(mon.cfg.Cost.NondetLogNs)
	}
	return v
}

// Out implements vm.IOBus.
func (mon *Monitor) Out(m *vm.Machine, port uint32, val uint32) {
	mon.Devs.Out(m, port, val)
}

// applyClockDelay implements the §6.5 optimization: the n-th consecutive
// clock read within a small window of the previous one is delayed by
// 2^(n-2) × baseWait, capped at 5 ms, throttling busy-wait loops that would
// otherwise flood the log with TimeTracker entries. The paper uses a 5 µs
// window and 50 µs base delay on real hardware; both scale with the virtual
// CPU's instruction time here so that "consecutive" means the same thing —
// a handful of loop iterations — at any simulated clock rate.
func (mon *Monitor) applyClockDelay(m *vm.Machine) {
	window := 30 * m.NsPerInstr
	if window < 5_000 {
		window = 5_000
	}
	baseWait := 2 * window
	// Cap the delay at 1 ms rather than the paper's 5 ms: our virtual
	// frame budgets are a few ms, and a 5 ms sleep at the end of a busy-
	// wait would overshoot the frame deadline and cost more fps than the
	// paper observed (≈3%%).
	const maxWait = 1_000_000
	now := m.VTimeNs()
	if now-mon.lastClockNs <= window {
		mon.clockStreak++
		if mon.clockStreak >= 2 {
			shift := mon.clockStreak - 2
			if shift > 10 {
				shift = 10
			}
			d := baseWait << uint(shift)
			if d > maxWait {
				d = maxWait
			}
			m.ChargeNs(d) // the guest waits; this is not monitor overhead
		}
	} else {
		mon.clockStreak = 1
	}
	mon.lastClockNs = m.VTimeNs()
}

// raiseIRQ asserts an interrupt line, logging the raise landmark when
// recording. Interrupt *delivery* is a deterministic function of the raise
// point, the pending mask and the guest's interrupt flag, so recording the
// raise is sufficient for exact replay — the same role the paper's
// instruction-pointer/branch-counter landmarks play for asynchronous
// events (§4.4).
func (mon *Monitor) raiseIRQ(irq int) {
	if mon.cfg.Mode.Records() {
		content := (&wire.EventContent{
			Kind: wire.EventIRQ, Landmark: mon.Machine.Landmark(), IRQ: uint32(irq),
		}).Marshal()
		mon.append(tevlog.TypeIRQ, content, ClassTimeTracker)
		mon.charge(mon.cfg.Cost.EventLogNs)
	}
	mon.Machine.RaiseIRQ(irq)
}

// tickTimer fires the periodic timer when its virtual deadline passes.
func (mon *Monitor) tickTimer() {
	d := mon.Devs
	if d.TimerPeriodUs == 0 {
		return
	}
	if mon.Machine.VTimeNs() >= d.NextTimerNs {
		d.NextTimerNs += uint64(d.TimerPeriodUs) * 1000
		mon.raiseIRQ(vm.IRQTimer)
	}
}

// --- sending ---

// guestSend handles a NET_TX_COMMIT from the guest.
func (mon *Monitor) guestSend(dest uint32, payload []byte) {
	mode := mon.cfg.Mode
	if mode.Virtualized() {
		mon.charge(mon.cfg.Cost.VMMPacketNs)
	}
	switch {
	case !mode.Records():
		// Bare hardware / plain virtualization: raw UDP-style datagram.
		mon.cfg.Net.Send(mon.Machine.VTimeNs(), mon.cfg.Index, int(dest),
			payload, len(payload)+wire.UDPIPOverhead)
	case !mode.TamperEvident():
		// Recording only: log the outgoing packet (MAC-layer entry), then
		// send it raw.
		content := (&wire.SendContent{MsgID: mon.Log.NextSeq(), Dest: dest, Payload: payload}).Marshal()
		mon.append(tevlog.TypeSend, content, ClassMAC)
		mon.charge(mon.cfg.Cost.EventLogNs)
		mon.cfg.Net.Send(mon.Machine.VTimeNs(), mon.cfg.Index, int(dest),
			payload, len(payload)+wire.UDPIPOverhead)
	default:
		mon.sendAccountable(dest, payload)
	}
}

// commitFrame makes f carry this machine's commitment to log entry seq and
// marshals it. The (seq, hash) pair is fixed here, synchronously; the
// signature over it is the daemon's job, requested now and written into the
// marshaled frame's AuthSig slot whenever it is done. The frame's bytes
// other than the slot are final on return.
func (mon *Monitor) commitFrame(f *wire.Frame, seq uint64) sentFrame {
	auth, body, err := mon.Log.Commitment(seq)
	if err != nil {
		panic(fmt.Sprintf("avmm: commitment to a logged entry: %v", err)) // cannot happen
	}
	f.AuthSeq, f.AuthHash = auth.Seq, auth.Hash
	raw, slot := f.MarshalSigSlot(mon.cfg.Signer.SigLen())
	return sentFrame{raw: raw, ready: mon.daemon.sign(mon.cfg.Signer, body, slot)}
}

// send puts a frame on the network, together with the handle the network
// waits on before the frame's bytes are read.
func (mon *Monitor) send(atNs uint64, dest int, f sentFrame) {
	mon.cfg.Net.SendPending(atNs, mon.cfg.Index, dest, f.raw, len(f.raw)+wire.TCPIPOverhead, f.ready)
}

// sendAccountable logs SEND(m), attaches an authenticator, and transmits
// the signed frame, retaining it for retransmission until acknowledged
// (§4.3).
func (mon *Monitor) sendAccountable(dest uint32, payload []byte) {
	prev := mon.Log.LastHash()
	content := (&wire.SendContent{MsgID: mon.Log.NextSeq(), Dest: dest, Payload: payload}).Marshal()
	e := mon.append(tevlog.TypeSend, content, ClassTamper)
	// Signing and the pipe to the daemon happen off the guest's core — in
	// the model, which charges the daemon and delays the packet, not the
	// AVM, and on the host, where the simulation carries on while a daemon
	// worker signs.
	procNs := mon.cfg.Cost.DaemonNs
	if mon.cfg.Mode.Signs() {
		procNs += mon.cfg.Cost.SignNs
	}
	mon.daemonCharge(procNs)

	frame := mon.commitFrame(&wire.Frame{
		Kind: wire.FrameData, FromNode: string(mon.cfg.Node), MsgID: e.Seq,
		Payload: payload, PrevHash: prev,
	}, e.Seq)
	sentAt := mon.Machine.VTimeNs() + procNs
	mon.outbox[e.Seq] = &pendingMsg{
		msgID: e.Seq, dest: int(dest), frame: frame, lastSentNs: sentAt, attempts: 1,
	}
	if mon.suspended[int(dest)] {
		// Held in the outbox; the retransmission path delivers it once the
		// peer answers its challenge.
		return
	}
	mon.send(sentAt, int(dest), frame)
}

// --- receiving ---

// HandleIncoming processes a frame from the network. The world invokes it
// between execution slices, so injections land at clean instruction
// boundaries.
func (mon *Monitor) HandleIncoming(f netsim.Frame) {
	mode := mon.cfg.Mode
	if mode.Virtualized() {
		mon.charge(mon.cfg.Cost.VMMPacketNs)
	}
	switch {
	case !mode.Records():
		mon.Devs.PushPacket(vm.Packet{From: uint32(f.From), Data: f.Data})
		mon.Machine.RaiseIRQ(vm.IRQNet)
	case !mode.TamperEvident():
		content := (&wire.RecvContent{SrcIdx: uint32(f.From), Payload: f.Data}).Marshal()
		mon.append(tevlog.TypeRecv, content, ClassMAC)
		mon.injectPacket(uint32(f.From), f.Data, mon.Log.NextSeq()-1)
	default:
		mon.handleAccountable(f)
	}
}

func (mon *Monitor) handleAccountable(nf netsim.Frame) {
	f, err := wire.ParseFrame(nf.Data)
	if err != nil {
		mon.BadFrames++
		return
	}
	switch f.Kind {
	case wire.FrameChallenge:
		mon.handleChallenge(nf.From, f)
		return
	case wire.FrameChallengeResp:
		mon.handleChallengeResp(nf.From, f)
		return
	}
	if mon.suspended[nf.From] {
		// The peer has an unanswered challenge outstanding; no traffic
		// until it responds (§4.6).
		mon.DroppedFrames++
		return
	}
	switch f.Kind {
	case wire.FrameData:
		mon.handleData(nf, f)
	case wire.FrameAck:
		mon.handleAck(nf.From, f)
	default:
		mon.BadFrames++
	}
}

func (mon *Monitor) handleData(nf netsim.Frame, f *wire.Frame) {
	// Verify that the sender's authenticator really commits to SEND(m):
	// recompute h_i = H(h_{i-1} || s_i || SEND || H(m)) (§4.3) and check
	// the signature.
	sendContent := (&wire.SendContent{MsgID: f.MsgID, Dest: uint32(mon.cfg.Index), Payload: f.Payload}).Marshal()
	expect := tevlog.ChainHash(f.PrevHash, f.AuthSeq, tevlog.TypeSend, tevlog.HashContent(sendContent))
	if expect != f.AuthHash {
		mon.BadFrames++
		return
	}
	auth := f.Authenticator()
	procNs := mon.cfg.Cost.DaemonNs
	if mon.cfg.Mode.Signs() {
		procNs += mon.cfg.Cost.VerifyNs
		if !auth.Verify(mon.cfg.Keys) {
			mon.BadFrames++
			return
		}
	}
	mon.daemonCharge(procNs)
	key := f.FromNode + "/" + fmt.Sprint(f.MsgID)
	if mon.recvSeen[key] {
		// Duplicate (our ack was lost): resend the saved ack, do not re-log.
		if ack, ok := mon.seenAcks[key]; ok {
			mon.send(mon.Machine.VTimeNs(), nf.From, ack)
		}
		return
	}
	mon.recvSeen[key] = true
	mon.PeerAuths[sig.NodeID(f.FromNode)] = append(mon.PeerAuths[sig.NodeID(f.FromNode)], auth)

	prev := mon.Log.LastHash()
	recvContent := (&wire.RecvContent{
		MsgID: f.MsgID, SrcNode: f.FromNode, SrcIdx: uint32(nf.From),
		Payload: f.Payload, SenderSeq: f.AuthSeq, SenderPrev: f.PrevHash,
		SenderSig: f.AuthSig,
	}).Marshal()
	e := mon.append(tevlog.TypeRecv, recvContent, ClassTamper)

	// Acknowledge: our authenticator for the RECV entry proves we logged it.
	ackSignNs := uint64(0)
	if mon.cfg.Mode.Signs() {
		ackSignNs = mon.cfg.Cost.SignNs
	}
	mon.daemonCharge(ackSignNs)
	ack := mon.commitFrame(&wire.Frame{
		Kind: wire.FrameAck, FromNode: string(mon.cfg.Node), MsgID: f.MsgID, PrevHash: prev,
	}, e.Seq)
	mon.seenAcks[key] = ack
	now := mon.cfg.Net.Now()
	mon.send(now+procNs+ackSignNs, nf.From, ack)

	// Finally, inject the payload into the AVM once the daemon-side
	// processing delay has elapsed, cross-referenced to the RECV entry so
	// dropping or altering it between receipt and injection is detectable
	// (§4.4).
	mon.pendingInj = append(mon.pendingInj, delayedInjection{
		dueNs: now + procNs, srcIdx: uint32(nf.From), payload: f.Payload, recvSeq: e.Seq,
	})
}

// injectPacket records the injection landmark and places the payload in the
// NIC queue.
func (mon *Monitor) injectPacket(srcIdx uint32, payload []byte, recvSeq uint64) {
	content := (&wire.EventContent{
		Kind: wire.EventInjectPacket, Landmark: mon.Machine.Landmark(),
		RecvSeq: recvSeq, SrcIdx: srcIdx, Payload: payload,
	}).Marshal()
	mon.append(tevlog.TypeIRQ, content, ClassMAC)
	mon.charge(mon.cfg.Cost.EventLogNs)
	mon.Devs.PushPacket(vm.Packet{From: srcIdx, Data: payload})
	mon.Machine.RaiseIRQ(vm.IRQNet)
}

// handleAck retires the message an acknowledgment is for. Only the node the
// message went to can acknowledge it: from is the network's word on where
// the frame came from, so no other node — however validly it signs its own
// authenticators — can stop the retransmission of a message it never
// received.
func (mon *Monitor) handleAck(from int, f *wire.Frame) {
	p := mon.outbox[f.MsgID]
	if p == nil {
		return // duplicate or stale ack
	}
	if from != p.dest {
		mon.BadFrames++
		return
	}
	if mon.cfg.Mode.Signs() {
		mon.daemonCharge(mon.cfg.Cost.VerifyNs)
		if !f.Authenticator().Verify(mon.cfg.Keys) {
			mon.BadFrames++
			return
		}
	}
	delete(mon.outbox, f.MsgID)
	mon.PeerAuths[sig.NodeID(f.FromNode)] = append(mon.PeerAuths[sig.NodeID(f.FromNode)], f.Authenticator())
	content := (&wire.AckContent{
		MsgID: f.MsgID, PeerNode: f.FromNode, PeerSeq: f.AuthSeq,
		PeerHash: f.AuthHash, PeerSig: f.AuthSig,
	}).Marshal()
	mon.append(tevlog.TypeAck, content, ClassTamper)
}

// InjectInput queues a local input event (keyboard/mouse word) for the
// guest, logging it with a landmark. Input drivers (bots, §6.2) call this.
func (mon *Monitor) InjectInput(event uint32) {
	if mon.cfg.Mode.Records() {
		content := (&wire.EventContent{
			Kind: wire.EventInjectInput, Landmark: mon.Machine.Landmark(), Input: event,
		}).Marshal()
		mon.append(tevlog.TypeIRQ, content, ClassOther)
		mon.charge(mon.cfg.Cost.EventLogNs)
	}
	mon.Devs.PushInput(event)
	mon.Machine.RaiseIRQ(vm.IRQInput)
}

// --- execution ---

// RunSlice advances the machine until its virtual clock reaches endNs (or
// it halts). Monitor overhead is charged against the same clock, so an
// overloaded machine retires fewer instructions per slice — overhead
// manifests exactly as reduced guest throughput.
//
// Between device interactions the guest executes on the interpreter's
// predecoded sprint loop (vm.Machine.RunUntil); the 64-instruction stride
// is kept as the accounting cadence because charging recording overhead
// and checking the timer deadline at that granularity is part of the
// recorded timing model — landmarks, clock reads and timer IRQs all
// depend on it, so coarsening the stride would change every recorded log.
func (mon *Monitor) RunSlice(endNs uint64) {
	const chunk = 64
	m := mon.Machine
	for !m.Halted && m.VTimeNs() < endNs {
		if m.Waiting {
			// Idle: jump the clock forward to the next relevant event.
			target := endNs
			if mon.Devs.TimerPeriodUs != 0 && mon.Devs.NextTimerNs < target {
				target = mon.Devs.NextTimerNs
			}
			if now := m.VTimeNs(); target > now {
				m.ChargeNs(target - now)
			}
			mon.tickTimer()
			if m.Waiting {
				return // nothing woke it before the slice ended
			}
			continue
		}
		ran := m.RunUntil(m.ICount + chunk)
		if ran > 0 && mon.perInstrNs > 0 {
			mon.charge(ran * mon.perInstrNs)
		}
		mon.tickTimer()
		if ran == 0 && !m.Waiting {
			return // halted or faulted without retiring instructions
		}
	}
}

// Tick performs housekeeping between slices: due injections,
// retransmissions and periodic snapshots.
func (mon *Monitor) Tick(nowNs uint64) {
	for len(mon.pendingInj) > 0 && mon.pendingInj[0].dueNs <= nowNs {
		inj := mon.pendingInj[0]
		mon.pendingInj = mon.pendingInj[1:]
		mon.injectPacket(inj.srcIdx, inj.payload, inj.recvSeq)
	}
	if len(mon.outbox) > 0 {
		ids := make([]uint64, 0, len(mon.outbox))
		for id := range mon.outbox {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			p := mon.outbox[id]
			if mon.suspended[p.dest] {
				continue
			}
			// lastSentNs may lie in the near future (guest send time plus
			// daemon processing); only retransmit once the timeout has
			// actually elapsed.
			if nowNs >= p.lastSentNs && nowNs-p.lastSentNs >= mon.cfg.RetransmitNs {
				p.lastSentNs = nowNs
				p.attempts++
				mon.Retransmits++
				mon.send(nowNs, p.dest, p.frame)
			}
		}
	}
	if mon.cfg.SnapshotEveryNs > 0 && mon.cfg.Mode.Records() {
		switch {
		case mon.Machine.VTimeNs()-mon.lastSnapshotNs >= mon.cfg.SnapshotEveryNs:
			mon.TakeSnapshot()
		case mon.cfg.SnapshotMaxDirtyBytes > 0 &&
			uint64(len(mon.Machine.DirtyPages()))*vm.PageSize >= mon.cfg.SnapshotMaxDirtyBytes:
			mon.AdaptiveSnapshots++
			mon.TakeSnapshot()
		case mon.cfg.SnapshotMaxInstr > 0 &&
			mon.Machine.ICount-mon.lastSnapshotInstr >= mon.cfg.SnapshotMaxInstr:
			mon.AdaptiveSnapshots++
			mon.TakeSnapshot()
		}
	}
}

// TakeSnapshot captures an incremental snapshot and commits its root to the
// log (§4.4).
func (mon *Monitor) TakeSnapshot() (*snapshot.Snapshot, error) {
	s, err := mon.Snaps.Take(mon.Machine, mon.Devs.Snapshot(), mon.Devs.AuthSnapshot())
	if err != nil {
		return nil, fmt.Errorf("avmm: snapshot on %q: %w", mon.cfg.Node, err)
	}
	content := (&wire.EventContent{
		Kind: wire.EventSnapshot, Landmark: s.Landmark,
		SnapIdx: uint32(s.Index), Root: s.Root,
	}).Marshal()
	e := mon.append(tevlog.TypeSnapshot, content, ClassOther)
	// Sign an authenticator for the snapshot entry itself, so auditors can
	// spot-check chunks that end at a snapshot without depending on a peer
	// authenticator landing on exactly that entry (§4.5: the auditor
	// challenges M to produce the segment connecting two authenticators).
	// The signature is the logging daemon's, like every other; nothing
	// reads it before SnapshotAuths.
	auth, body, err := mon.Log.Commitment(e.Seq)
	if err != nil {
		return nil, fmt.Errorf("avmm: snapshot authenticator: %w", err)
	}
	auth.Sig = make([]byte, mon.cfg.Signer.SigLen())
	mon.snapSigs = append(mon.snapSigs, mon.daemon.sign(mon.cfg.Signer, body, auth.Sig))
	if mon.cfg.Mode.Signs() {
		mon.daemonCharge(mon.cfg.Cost.SignNs)
	}
	mon.snapAuths = append(mon.snapAuths, auth)
	mon.charge(mon.cfg.Cost.SnapshotBaseNs + uint64(len(s.MemPages))*mon.cfg.Cost.SnapshotPerPageNs)
	mon.lastSnapshotNs = mon.Machine.VTimeNs()
	mon.lastSnapshotInstr = mon.Machine.ICount
	return s, nil
}

// SnapshotAuths returns the machine's self-signed authenticators for its
// snapshot entries, in snapshot order, once their signatures are done. Like
// every wait on the logging daemon, it belongs to the simulation thread.
func (mon *Monitor) SnapshotAuths() []tevlog.Authenticator {
	for _, p := range mon.snapSigs {
		p.Wait()
	}
	mon.snapSigs = nil
	out := make([]tevlog.Authenticator, len(mon.snapAuths))
	copy(out, mon.snapAuths)
	return out
}

// AuthenticatorsFor returns the authenticators this monitor has collected
// from node, for forwarding to auditors in multi-party scenarios (§4.6).
func (mon *Monitor) AuthenticatorsFor(node sig.NodeID) []tevlog.Authenticator {
	out := make([]tevlog.Authenticator, len(mon.PeerAuths[node]))
	copy(out, mon.PeerAuths[node])
	return out
}
