package audit

import (
	"bytes"
	"fmt"

	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Replay is the semantic checker: it drives a reference machine through the
// recorded log, feeding logged nondeterministic inputs back, re-injecting
// asynchronous events at their exact landmarks, and comparing every output
// and snapshot root against the log. It supports incremental feeding, which
// is what online auditing (§6.11) uses.
type Replay struct {
	node sig.NodeID
	mach *vm.Machine
	devs *vm.DeviceSet

	entries []tevlog.Entry
	pos     int
	// dropped counts consumed entries compacted away by Feed, so Consumed
	// stays cumulative while the resident slice holds only the unconsumed
	// suffix (what bounds auditor memory during streaming audits).
	dropped int

	// outQueue buffers outputs the replica produced that have not yet been
	// matched against SEND entries. Matching happens at safe points (never
	// mid-instruction), which lets an online audit pause at log exhaustion
	// and resume cleanly when more entries arrive.
	outQueue []pendingOut
	// paused is set when the replay ran out of fed entries mid-execution;
	// Feed clears it.
	paused bool
	// complete is set by Close: the fed log is the whole segment, so once
	// it is consumed the replica may run its tail past the final entry.
	// While unset (incremental feeding), Run never executes past the last
	// fed entry — it must not, or it could overshoot the landmark of an
	// async event that has not been fed yet.
	complete bool
	// syncTail records whether the most recently consumed replayable entry
	// was synchronous (NONDET/SEND), i.e. the replica was mid-execution at
	// consumption. Only then does a complete log run a tail; after an async
	// entry the replica rests exactly at the landmark, which keeps epoch
	// slices ending at snapshots from coasting into the next epoch's
	// instructions.
	syncTail bool

	fault *FaultReport
	done  bool

	// Stats accumulates replay effort.
	Stats ReplayStats

	// live is the incremental state tree behind snapshot-root verification:
	// seeded once from the replica's starting state, then folded forward by
	// only the pages dirtied between snapshot entries (§4.4's
	// O(dirty · log n) commitment, applied by the auditor). A replica made
	// at a snapshot is handed it seeded, by the pass that verified the
	// starting state (bootReplay, AdoptStateHasher); otherwise it is seeded
	// lazily at the first snapshot entry, which for a boot replay costs
	// exactly the full rehash the first verification always paid.
	live *snapshot.LiveStateHasher
	// verifyFloor is the dirty-generation floor of the live tree: pages the
	// replica wrote after it must be folded before the next root compare.
	verifyFloor uint64

	// endSnap/endRoot/endSeq record the most recent snapshot entry whose
	// root verified against the replica: where it rests (restingAt), and with
	// which root, when it rests at one.
	endSnap      uint32
	endRoot      [32]byte
	endSeq       uint64
	endRootValid bool

	// MaxInstructions bounds replay effort past the last consumed entry; a
	// divergent execution that never consumes the next logged entry is
	// reported as a fault instead of spinning forever.
	MaxInstructions uint64

	// boundPos/bound cache the next async event's position and landmark.
	boundPos int
	bound    uint64

	// next is the increment the last Advance over increments moved the
	// memory to (for a replica bootReplay made, the snapshot it booted at),
	// whose registers and device state Restart restores; nil when none did
	// since the last Restart and the replica's own are the snapshot's.
	next *snapshot.Snapshot
}

// NewReplayFromImage starts a replay of a full execution from boot.
func NewReplayFromImage(node sig.NodeID, img *vm.Image, rngSeed uint64) (*Replay, error) {
	r := &Replay{node: node}
	r.devs = vm.NewDeviceSet(rngSeed)
	m, err := img.Boot(r.devs)
	if err != nil {
		return nil, fmt.Errorf("audit: booting reference image: %w", err)
	}
	r.attach(m)
	return r, nil
}

// NewReplayFromSnapshot starts a replay from a verified snapshot state.
func NewReplayFromSnapshot(node sig.NodeID, restored *snapshot.Restored, rngSeed uint64) (*Replay, error) {
	r := &Replay{node: node}
	r.devs = vm.NewDeviceSet(rngSeed)
	if err := r.devs.RestoreSnapshot(restored.Device); err != nil {
		return nil, fmt.Errorf("audit: restoring device state: %w", err)
	}
	m := vm.NewMachine(len(restored.Mem), nil)
	if err := m.WriteBytes(0, restored.Mem); err != nil {
		return nil, fmt.Errorf("audit: restoring memory: %w", err)
	}
	if err := m.RestoreRegisters(restored.Machine); err != nil {
		return nil, fmt.Errorf("audit: restoring registers: %w", err)
	}
	r.attach(m)
	return r, nil
}

// ReplicaStart is the state a replica is booted at: the increments it is
// the fold of — the state at snapshot Index of Incs, as a spot check boots
// it — or the full State an epoch or a chunk request carries.
type ReplicaStart struct {
	Incs  snapshot.IncrementSource
	Index int
	State *snapshot.Restored
}

// sourceError is a boot's report that the source could not hand over the
// state (an increment could not be read), as opposed to a verdict on the
// state it handed over; the spot check returns it like every source error.
type sourceError struct{ error }

// bootReplay makes a replica at a snapshot in one pass over the snapshot's
// state and verifies it against wantRoot, the root the log committed there.
// The state goes straight into the new machine's memory — folded from
// start.Incs newest increment first (LiveStateHasher.SeedFold) or copied
// from start.State (SeedCopy) — and each page's leaf is hashed as soon as
// the page is final, or taken from the increment that wrote the page when
// that increment carries it (one the archive read, which hashed the page to
// check it); the tree's interior is folded once and the digest compared
// with wantRoot. Every page is copied once and hashed once, where
// MaterializeFrom, SeedVerify and NewReplayFromSnapshot copy it twice. A
// mismatch is SeedVerify's error; a source that cannot hand over the state
// is a sourceError.
//
// The replica is left as Advance leaves one, memory and tree verified and
// the registers and device state still the snapshot's to restore: Restart
// restores them, with NewReplayFromSnapshot's errors, and arms the replay,
// which is then the one NewReplayFromSnapshot and AdoptStateHasher make.
func bootReplay(node sig.NodeID, start ReplicaStart, wantRoot [32]byte, rngSeed uint64) (*Replay, error) {
	lh := &snapshot.LiveStateHasher{}
	var m *vm.Machine
	var next *snapshot.Snapshot
	switch st := start.State; {
	case st != nil:
		m = vm.NewMachine(len(st.Mem), nil)
		lh.SeedCopy(st, m.Mem)
		next = &snapshot.Snapshot{Machine: st.Machine, Device: st.Device, AuthDevice: st.AuthDevice}
	case start.Incs != nil:
		size := start.Incs.MemSize()
		m = vm.NewMachine(size, nil)
		inc, err := lh.SeedFold(start.Incs, start.Index, m.Mem[:size])
		if err != nil {
			return nil, sourceError{err}
		}
		next = inc
	default:
		return nil, fmt.Errorf("audit: no start state")
	}
	if err := lh.Verify(next.Machine, next.AuthDevice, wantRoot); err != nil {
		return nil, err
	}
	m.MarkAllDirty() // as NewReplayFromSnapshot's host write of the memory does
	r := &Replay{node: node, devs: vm.NewDeviceSet(rngSeed), next: next}
	r.attach(m)
	r.AdoptStateHasher(lh)
	return r, nil
}

// startReplica is how every engine comes by the replica a chunk or an epoch
// starts from, checked against wantRoot, the root the log committed at its
// opening snapshot. held, a replica that rests at a verified snapshot at or
// before that one, is rolled there by incs, the increments in between
// (Replay.Advance); with none held, a new replica is booted from start
// (bootReplay). The replica is left for Restart. A failed check is the
// error, and the replica is spent; a source that could not hand over the
// boot's state is a sourceError.
func startReplica(node sig.NodeID, held *Replay, incs []*snapshot.Snapshot, start ReplicaStart, wantRoot [32]byte, rngSeed uint64) (*Replay, error) {
	if held != nil {
		return held, held.Advance(incs, wantRoot)
	}
	return bootReplay(node, start, wantRoot, rngSeed)
}

func (r *Replay) attach(m *vm.Machine) {
	r.mach = m
	m.Bus = r
	r.devs.SendFunc = r.onGuestSend
	r.MaxInstructions = 1 << 62 // refined by Feed
	r.boundPos = -1
}

type pendingOut struct {
	dest    uint32
	payload []byte
}

// AdoptStateHasher hands the replay a live state hasher already seeded from
// the replica's starting state — the epoch engines seed one while verifying
// the materialized snapshot against the committed root, so the replay's
// first in-log snapshot entry folds dirty pages instead of rehashing the
// whole state. Must be called before the first Run, while the replica's
// memory still equals the seeded state.
func (r *Replay) AdoptStateHasher(lh *snapshot.LiveStateHasher) {
	r.live = lh
	r.verifyFloor = r.mach.DirtyEpoch()
}

// stateRoot returns the replica's current authenticated state digest,
// maintained incrementally: the live tree is seeded on first use (covering
// the whole state) and thereafter folds only the pages written since the
// previous snapshot entry. The digest is bit-identical to a full
// snapshot.RootOfState over the same state.
func (r *Replay) stateRoot() ([32]byte, error) {
	m := r.mach
	regs := m.CaptureStateRegisters()
	dev := r.devs.AuthSnapshot()
	if r.live == nil || !r.live.Seeded() {
		if r.live == nil {
			r.live = &snapshot.LiveStateHasher{}
		}
		root := r.live.Seed(m.Mem, regs, dev)
		r.verifyFloor = m.DirtyEpoch()
		return root, nil
	}
	dirty := m.DirtyPagesSince(r.verifyFloor)
	root, err := r.live.Fold(m.Mem, dirty, regs, dev)
	if err != nil {
		return [32]byte{}, err
	}
	r.verifyFloor = m.DirtyEpoch()
	return root, nil
}

// restingAt reports the snapshot the replica rests at: the replay finished
// fault-free and its final entry was a snapshot whose root verified against
// the replica, so memory, registers, device state and the live tree are
// exactly that snapshot's and no instruction has run since. Every interior
// epoch job and every passed spot-check chunk ends this way. A nil replica
// rests nowhere.
func (r *Replay) restingAt() (uint32, bool) {
	if r == nil || !r.endRootValid || r.fault != nil || len(r.entries) == 0 {
		return 0, false
	}
	if last := &r.entries[len(r.entries)-1]; last.Type != tevlog.TypeSnapshot || last.Seq != r.endSeq {
		return 0, false
	}
	return r.endSnap, true
}

// zeroPage is what the tail of a short increment page reads as.
var zeroPage [vm.PageSize]byte

// Advance rolls a replica that rests at a verified snapshot a forward to a
// later snapshot b, instead of a new replica being made from b's full state:
// incs are the increments (a, b], oldest first (snapshot.IncrementRange).
// Their pages are written over the replica's own memory through
// Machine.WriteBytes, so the dirty generations and the predecode stamps move
// as for any host write, exactly the written pages are folded into the live
// tree the replica already holds, and the resulting digest — over that tree
// and increment b's register and device blobs — is compared with wantRoot,
// the root the log committed at b. A written page whose newest capture in
// incs carries its Merkle leaf (an increment the archive read, which hashed
// the page to check it) enters the tree as that leaf; every other page is
// hashed from the replica's memory (LiveStateHasher.FoldVerify). A mismatch
// is SeedVerify's error, and the replica is spent. With no increments
// (a == b) nothing is written and the state the replay itself verified at a
// is compared with wantRoot. An increment with a page longer than a page is
// snapshot.CheckIncrement's error, before anything is written.
//
// Soundness is that comparison: the digest covers every page, so a replica
// that passes holds bit for bit the state MaterializeFrom(b) would have
// folded and SeedVerify passed, whatever was read to get there. What differs
// is which bytes were looked at: an increment at or below a is not read, so
// damage to one that a fold from scratch would have reported goes unseen by
// this pick — as it does by every audit that does not start below it.
//
// Advance leaves the registers, the devices and the fed log alone; Restart
// completes the move once the caller has checked what it checks between
// verifying a start state and booting from it. Until then the replica still
// rests where it did, so Advances compose: a second one continues from the
// snapshot the first moved to, and one over no increments compares the
// state the first verified, its blobs included, with wantRoot.
func (r *Replay) Advance(incs []*snapshot.Snapshot, wantRoot [32]byte) error {
	if _, ok := r.restingAt(); !ok || !r.done {
		return fmt.Errorf("audit: replica does not rest at a verified snapshot")
	}
	for _, inc := range incs {
		if err := snapshot.CheckIncrement(inc.Index, inc); err != nil {
			return err
		}
	}
	m := r.mach
	for _, inc := range incs {
		for p, page := range inc.MemPages {
			if p < 0 || p >= m.NumPages() {
				continue // as a fold: not a page of this machine
			}
			// A short page stands for its bytes and a zero tail, which is
			// what a fold into fresh memory makes of it.
			addr := uint32(p * vm.PageSize)
			if err := m.WriteBytes(addr, page); err != nil {
				return err
			}
			if err := m.WriteBytes(addr+uint32(len(page)), zeroPage[len(page):]); err != nil {
				return err
			}
		}
	}
	if len(incs) > 0 {
		r.next = incs[len(incs)-1]
	}
	machine, dev := m.CaptureStateRegisters(), r.devs.AuthSnapshot()
	if r.next != nil {
		machine, dev = r.next.Machine, r.next.AuthDevice
	}
	err := r.live.FoldVerify(m.Mem, m.DirtyPagesSince(r.verifyFloor), incs, machine, dev, wantRoot)
	r.verifyFloor = m.DirtyEpoch()
	return err
}

// Restart completes an Advance or a bootReplay: it restores the registers
// and the device state of the snapshot moved to and arms the replay as a
// replica made by NewReplayFromSnapshot from that snapshot is armed — no
// entries, cursor at zero, empty out-queue, an open feed, fresh statistics
// and instruction budget — keeping the machine, its predecode cache and the
// live tree. Its errors are NewReplayFromSnapshot's.
func (r *Replay) Restart() error {
	m, devs := r.mach, r.devs
	if r.next != nil {
		if err := devs.RestoreSnapshot(r.next.Device); err != nil {
			return fmt.Errorf("audit: restoring device state: %w", err)
		}
		if err := m.RestoreRegisters(r.next.Machine); err != nil {
			return fmt.Errorf("audit: restoring registers: %w", err)
		}
	}
	// Host-side leftovers of the previous run, none of them machine state.
	m.StopReq = false
	devs.Console.Reset()
	devs.Debug = nil
	*r = Replay{node: r.node, devs: devs, live: r.live, verifyFloor: r.verifyFloor}
	r.attach(m)
	return nil
}

// Feed appends log entries to be replayed and refreshes the instruction
// budget. It resumes a replay paused at log exhaustion. Entries already
// consumed are compacted away, so a replay fed incrementally (online or
// streaming audits) holds only the unconsumed suffix of the log.
func (r *Replay) Feed(entries []tevlog.Entry) {
	if r.pos > 0 {
		n := copy(r.entries, r.entries[r.pos:])
		r.entries = r.entries[:n]
		r.dropped += r.pos
		r.pos = 0
	}
	r.entries = append(r.entries, entries...)
	r.done = false
	r.boundPos = -1
	if r.paused {
		r.paused = false
		if r.fault == nil {
			// The pause halted the machine mid-instruction; clearing the
			// flag re-executes that instruction, now with entries to serve.
			r.mach.Halted = false
		}
	}
	// Budget: the last async landmark plus a generous margin for trailing
	// synchronous activity.
	var maxLm uint64
	for i := range r.entries {
		e := &r.entries[i]
		if e.Type == tevlog.TypeIRQ || e.Type == tevlog.TypeSnapshot {
			if ev, err := wire.ParseEvent(e.Content); err == nil && ev.Landmark.ICount > maxLm {
				maxLm = ev.Landmark.ICount
			}
		}
	}
	budget := maxLm + 50_000_000
	if budget > r.MaxInstructions || r.MaxInstructions == 1<<62 {
		r.MaxInstructions = budget
	}
}

// Close marks the fed log as complete: no further Feed will follow. The
// next Run may then let the replica run past the final entry to its natural
// stopping point (halt, idle, the next input request, or the instruction
// budget) — a deterministic position, unlike the legacy behavior of
// coasting to the end of whatever execution chunk was in flight. Budget
// exhaustion, which pauses while the feed is incomplete (more entries can
// only raise the budget), becomes a final verdict; Close resumes a replay
// paused that way.
func (r *Replay) Close() {
	r.complete = true
	if r.paused {
		r.paused = false
		if r.fault == nil {
			r.mach.Halted = false
		}
	}
}

// Fault returns the divergence report, if any.
func (r *Replay) Fault() *FaultReport { return r.fault }

// Done reports whether every fed entry has been consumed without fault.
func (r *Replay) Done() bool { return r.done && r.fault == nil }

// Consumed returns the number of log entries consumed so far (including
// skipped protocol entries and entries compacted away by Feed).
func (r *Replay) Consumed() int { return r.dropped + r.pos }

// Pending returns the number of fed entries not yet consumed.
func (r *Replay) Pending() int { return len(r.entries) - r.pos }

// Machine exposes the replica for final-state inspection by tests.
func (r *Replay) Machine() *vm.Machine { return r.mach }

// Devices exposes the replica's devices for inspection by tests.
func (r *Replay) Devices() *vm.DeviceSet { return r.devs }

func (r *Replay) diverge(check Check, seq uint64, format string, args ...interface{}) {
	if r.fault != nil {
		return
	}
	r.fault = &FaultReport{
		Node: r.node, Check: check, Detail: fmt.Sprintf(format, args...),
		EntrySeq: seq, Landmark: r.mach.Landmark(),
	}
	r.mach.Halted = true // stop the replica; it is discarded after the audit
}

// nextReplayable returns the next entry relevant to execution, skipping
// protocol-stream entries (RECV/ACK/annotations are checked syntactically,
// not replayed — their payloads re-enter execution via injection events).
func (r *Replay) nextReplayable() *tevlog.Entry {
	for r.pos < len(r.entries) {
		e := &r.entries[r.pos]
		switch e.Type {
		case tevlog.TypeRecv, tevlog.TypeAck, tevlog.TypeAnnotation:
			r.pos++
			r.Stats.EntriesConsumed++
			continue
		}
		return e
	}
	return nil
}

func (r *Replay) consume() {
	r.pos++
	r.Stats.EntriesConsumed++
}

// pause stops the machine because the fed log is exhausted mid-execution.
// The in-flight instruction is NOT retired (Step aborts before advancing
// PC), so clearing Halted in Feed re-executes it cleanly.
func (r *Replay) pause() {
	r.paused = true
	r.mach.Halted = true
}

// drainOutputs matches queued replica outputs against SEND entries at the
// cursor. It returns false if replay cannot proceed (divergence, or paused
// awaiting more entries).
func (r *Replay) drainOutputs() bool {
	for len(r.outQueue) > 0 {
		e := r.nextReplayable()
		if e == nil {
			return false // starving for the SEND entry; caller decides pause/end
		}
		if e.Type != tevlog.TypeSend {
			r.diverge(CheckSemantic, e.Seq,
				"execution produced an output but log has %v entry", e.Type)
			return false
		}
		sc, err := wire.ParseSend(e.Content)
		if err != nil {
			r.diverge(CheckSyntactic, e.Seq, "unparseable SEND entry: %v", err)
			return false
		}
		out := r.outQueue[0]
		if sc.Dest != out.dest || !bytes.Equal(sc.Payload, out.payload) {
			r.diverge(CheckSemantic, e.Seq,
				"output mismatch: execution sent %d bytes to %d, log has %d bytes to %d",
				len(out.payload), out.dest, len(sc.Payload), sc.Dest)
			return false
		}
		r.outQueue = r.outQueue[1:]
		r.consume()
		r.syncTail = true
		r.Stats.SendsMatched++
	}
	return true
}

// In implements vm.IOBus for the replica: clock reads come from the log
// (they are the recorded synchronous nondeterministic inputs); everything
// else is deterministic device state. A clock read with no matching NONDET
// entry — or any mismatch in order — is a divergence: "if it requests the
// synchronous inputs in a different order, replay terminates and reports a
// fault" (§4.5).
func (r *Replay) In(m *vm.Machine, port uint32) uint32 {
	if port != vm.PortClockLo && port != vm.PortClockHi {
		return r.devs.In(m, port)
	}
	if !r.drainOutputs() {
		if r.fault == nil {
			r.pause()
		}
		return 0
	}
	e := r.nextReplayable()
	if e == nil {
		// The log segment ended mid-execution; pause at the boundary.
		r.pause()
		return 0
	}
	if e.Type != tevlog.TypeNondet {
		r.diverge(CheckSemantic, e.Seq,
			"execution read nondeterministic port 0x%x but log has %v entry", port, e.Type)
		return 0
	}
	nd, err := wire.ParseNondet(e.Content)
	if err != nil {
		r.diverge(CheckSyntactic, e.Seq, "unparseable NONDET entry: %v", err)
		return 0
	}
	if nd.Port != port {
		r.diverge(CheckSemantic, e.Seq,
			"execution read port 0x%x but log recorded a read of port 0x%x", port, nd.Port)
		return 0
	}
	r.consume()
	r.syncTail = true
	r.Stats.NondetsConsumed++
	// Skip protocol entries at the cursor now (the Run loop would skip them
	// anyway), then stop the replica at this exact instruction if the fed
	// log is exhausted. Running further would be execution past the last
	// entry, whose extent depends on chunk alignment — and under incremental
	// feeding it could sail past the landmark of an async event that has not
	// been fed yet. Stopping at the consumption point makes the replay's
	// position and stats a pure function of the log, independent of how it
	// was fed.
	if r.nextReplayable() == nil {
		m.StopReq = true
	}
	return uint32(nd.Value)
}

// Out implements vm.IOBus.
func (r *Replay) Out(m *vm.Machine, port uint32, val uint32) {
	r.devs.Out(m, port, val)
}

// onGuestSend queues each output of the replica for matching against the
// log's SEND entries — "checking the outputs against the outputs in L_ij"
// (§4.5). Matching is deferred to safe points so an instruction is never
// interrupted with device state half-updated; the stop request makes the
// producing instruction itself the safe point, so outputs are matched at a
// deterministic position regardless of chunk alignment or feed granularity.
func (r *Replay) onGuestSend(dest uint32, payload []byte) {
	r.outQueue = append(r.outQueue, pendingOut{dest: dest, payload: payload})
	r.mach.StopReq = true
}

// perform applies an asynchronous event at its landmark.
func (r *Replay) perform(ev *wire.EventContent, seq uint64) {
	switch ev.Kind {
	case wire.EventIRQ:
		r.mach.RaiseIRQ(int(ev.IRQ))
		r.Stats.EventsInjected++
	case wire.EventInjectPacket:
		r.devs.PushPacket(vm.Packet{From: ev.SrcIdx, Data: ev.Payload})
		r.mach.RaiseIRQ(vm.IRQNet)
		r.Stats.EventsInjected++
	case wire.EventInjectInput:
		r.devs.PushInput(ev.Input)
		r.mach.RaiseIRQ(vm.IRQInput)
		r.Stats.EventsInjected++
	case wire.EventSnapshot:
		got, err := r.stateRoot()
		if err != nil {
			r.diverge(CheckSemantic, seq, "folding dirty pages into live state tree: %v", err)
			return
		}
		if got != ev.Root {
			r.diverge(CheckSnapshot, seq,
				"replayed state root %x does not match committed snapshot root %x",
				got[:8], ev.Root[:8])
			return
		}
		r.Stats.SnapshotsVerified++
		r.endSnap, r.endRoot, r.endSeq, r.endRootValid = ev.SnapIdx, got, seq, true
	default:
		r.diverge(CheckSyntactic, seq, "unknown event kind %d", ev.Kind)
	}
}

func isAsync(t tevlog.EntryType) bool {
	return t == tevlog.TypeIRQ || t == tevlog.TypeSnapshot
}

// nextAsyncBound returns the landmark instruction count of the next
// asynchronous event at or after the cursor, caching the scan.
func (r *Replay) nextAsyncBound() (uint64, bool) {
	if r.boundPos >= r.pos && r.boundPos <= len(r.entries) {
		if r.boundPos == len(r.entries) {
			return 0, false
		}
		return r.bound, true
	}
	for i := r.pos; i < len(r.entries); i++ {
		if !isAsync(r.entries[i].Type) {
			continue
		}
		ev, err := wire.ParseEvent(r.entries[i].Content)
		if err != nil {
			// Malformed event: no usable bound; Run will fault on it when
			// the cursor reaches it.
			r.boundPos = i
			r.bound = 0
			return 0, false
		}
		r.boundPos = i
		r.bound = ev.Landmark.ICount
		return r.bound, true
	}
	r.boundPos = len(r.entries)
	return 0, false
}

// Run replays until all fed entries are consumed, a fault is found, or the
// instruction budget is exhausted. It may be called repeatedly after Feed
// (online auditing).
func (r *Replay) Run() {
	m := r.mach
	for r.fault == nil && !r.paused {
		if !r.drainOutputs() {
			if r.fault == nil {
				// Outputs await SEND entries that have not been fed yet
				// (online audit) or fall beyond the audited segment
				// (offline): stop at the boundary without a verdict on
				// them.
				r.paused = true
			}
			return
		}
		e := r.nextReplayable()
		if e == nil {
			if r.complete && r.syncTail {
				r.runTail()
			}
			r.done = true
			return
		}
		if isAsync(e.Type) {
			ev, err := wire.ParseEvent(e.Content)
			if err != nil {
				r.diverge(CheckSyntactic, e.Seq, "unparseable event entry: %v", err)
				return
			}
			lm := ev.Landmark
			switch {
			case lm.ICount < m.ICount:
				r.diverge(CheckSemantic, e.Seq,
					"execution passed event landmark (%v) without it firing; now at icount=%d",
					lm, m.ICount)
				return
			case lm.ICount == m.ICount:
				if m.Branches != lm.Branches || m.PC != lm.PC {
					r.diverge(CheckSemantic, e.Seq,
						"landmark mismatch at icount=%d: log has branches=%d pc=0x%x, replica has branches=%d pc=0x%x",
						lm.ICount, lm.Branches, lm.PC, m.Branches, m.PC)
					return
				}
				// Note: no explicit wake. RaiseIRQ inside perform clears
				// Waiting for exactly the events that woke the machine
				// during recording; snapshots leave a waiting machine
				// waiting, and the Waiting flag is part of the
				// authenticated state.
				r.perform(ev, e.Seq)
				if r.fault == nil {
					r.consume()
					r.syncTail = false
				}
				continue
			default: // landmark ahead: run toward it
				if m.Halted {
					r.diverge(CheckSemantic, e.Seq, "log continues past machine halt")
					return
				}
				if m.Waiting {
					r.diverge(CheckSemantic, e.Seq,
						"event landmark icount=%d unreachable: machine idle at icount=%d", lm.ICount, m.ICount)
					return
				}
				r.runTo(lm.ICount)
				continue
			}
		}
		// Next entry is NONDET or SEND: the machine itself must produce it.
		if m.Halted {
			r.diverge(CheckSemantic, e.Seq, "log continues past machine halt")
			return
		}
		if m.Waiting {
			r.diverge(CheckSemantic, e.Seq,
				"log expects %v activity but machine is idle at icount=%d", e.Type, m.ICount)
			return
		}
		if r.Stats.Instructions >= r.MaxInstructions {
			if !r.complete {
				// The budget so far reflects only the fed prefix of the
				// log; entries still to come can only raise it. Pause and
				// let Feed (or Close) resolve — faulting here would make
				// the verdict depend on feeding granularity.
				r.paused = true
				return
			}
			r.diverge(CheckSemantic, e.Seq,
				"instruction budget exhausted (%d) without reproducing log entry", r.MaxInstructions)
			return
		}
		// Sprint the gap: run in one stretch to the next async landmark (or
		// the remaining instruction budget, whichever is nearer), so the
		// interpreter stays on its predecoded fast path instead of paying
		// per-chunk turnarounds. RunUntil lands exactly on the bound, so a
		// single sprint cannot sail past an event that must fire mid-gap;
		// the synchronous entries inside the gap self-pace, because the bus
		// handler stops the machine at the instruction that consumes the
		// last fed entry.
		bound := m.ICount + (r.MaxInstructions - r.Stats.Instructions)
		if b, ok := r.nextAsyncBound(); ok && b > m.ICount && b < bound {
			bound = b
		}
		before := m.ICount
		m.RunUntil(bound)
		r.Stats.Instructions += m.ICount - before
		if m.ICount == before && !m.Halted && !m.Waiting {
			// No progress and not idle: faulted replica.
			if m.FaultInfo != nil {
				r.diverge(CheckSemantic, e.Seq, "replica faulted: %v", m.FaultInfo)
			} else {
				r.diverge(CheckSemantic, e.Seq, "replica made no progress")
			}
			return
		}
	}
}

// runTail lets the replica of a complete, fully consumed log coast past
// the final entry to its natural stopping point: a halt, an idle wait, the
// next input request (which pauses at log exhaustion), or the instruction
// budget. The stopping point is a deterministic function of the log and
// image, so final state and stats do not depend on feeding granularity.
func (r *Replay) runTail() {
	m := r.mach
	for r.fault == nil && !m.Halted && !m.Waiting && !r.paused {
		if r.Stats.Instructions >= r.MaxInstructions {
			return
		}
		before := m.ICount
		m.RunUntil(m.ICount + (r.MaxInstructions - r.Stats.Instructions))
		r.Stats.Instructions += m.ICount - before
		if m.ICount == before {
			return
		}
	}
}

// runTo advances the replica to exactly the target instruction count,
// accounting instructions and honoring the budget.
func (r *Replay) runTo(target uint64) {
	m := r.mach
	for r.fault == nil && m.ICount < target && !m.Halted && !m.Waiting {
		if r.Stats.Instructions >= r.MaxInstructions {
			if !r.complete {
				r.paused = true // as in Run: an incomplete feed cannot render a budget verdict
				return
			}
			r.diverge(CheckSemantic, 0,
				"instruction budget exhausted (%d) before reaching landmark icount=%d", r.MaxInstructions, target)
			return
		}
		// Sprint straight to the landmark, budget permitting; RunUntil stops
		// on the exact instruction count, so no careful tail is needed to
		// avoid overshooting the event's recorded position.
		bound := m.ICount + (r.MaxInstructions - r.Stats.Instructions)
		if target < bound {
			bound = target
		}
		before := m.ICount
		m.RunUntil(bound)
		r.Stats.Instructions += m.ICount - before
		if m.ICount == before {
			return
		}
	}
}
