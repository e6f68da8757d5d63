package vm

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the granularity of dirty tracking and of the Merkle tree over
// machine state. 4 KiB, like the pages the paper's incremental snapshots
// operate on.
const PageSize = 4096

// Memory layout constants.
const (
	// VectorBase is the base address of the interrupt vector table: 16
	// 32-bit handler addresses.
	VectorBase = 0x0080
	// NumIRQs is the number of interrupt lines.
	NumIRQs = 16
	// CodeBase is the address at which images are loaded.
	CodeBase = 0x1000
)

// FaultCode classifies machine faults. Faults are deterministic: a given
// image with given inputs always faults at the same instruction, so replay
// reproduces them exactly.
type FaultCode uint8

// Machine fault codes.
const (
	FaultNone FaultCode = iota
	FaultBadOpcode
	FaultMemOutOfRange
	FaultDivByZero
	FaultBadPort
)

var faultNames = [...]string{
	FaultNone: "none", FaultBadOpcode: "bad opcode",
	FaultMemOutOfRange: "memory access out of range",
	FaultDivByZero:     "division by zero", FaultBadPort: "bad I/O port",
}

// String returns the fault's name, or FaultCode(n) for a code without one.
func (c FaultCode) String() string {
	if int(c) < len(faultNames) {
		return faultNames[c]
	}
	return fmt.Sprintf("FaultCode(%d)", uint8(c))
}

// Fault describes a machine fault.
type Fault struct {
	Code   FaultCode
	PC     uint32
	ICount uint64
	Detail string
}

// Error describes the fault with its code, program counter and instruction
// count.
func (f *Fault) Error() string {
	return fmt.Sprintf("vm: fault %v at pc=0x%x icount=%d: %s", f.Code, f.PC, f.ICount, f.Detail)
}

// Landmark identifies a precise point in an execution: the retired
// instruction count, the branch count, and the instruction pointer. Wall
// clock time cannot pinpoint instruction timing (§4.4); this triple can,
// and is what the AVMM records for every asynchronous event so it can be
// re-injected at the exact same point during replay.
type Landmark struct {
	ICount   uint64
	Branches uint64
	PC       uint32
}

// String formats the landmark as its instruction count, branch count and
// program counter.
func (l Landmark) String() string {
	return fmt.Sprintf("icount=%d branches=%d pc=0x%x", l.ICount, l.Branches, l.PC)
}

// IOBus is the machine's connection to its devices. The AVMM interposes on
// this interface: in record mode it forwards to real devices and logs
// nondeterministic values; in replay mode it feeds logged values back.
type IOBus interface {
	// In handles an IN instruction and returns the port's value.
	In(m *Machine, port uint32) uint32
	// Out handles an OUT instruction.
	Out(m *Machine, port uint32, val uint32)
}

// Machine is the deterministic virtual machine.
type Machine struct {
	Regs [NumRegs]uint32
	PC   uint32
	Mem  []byte

	// ICount is the number of retired instructions; Branches counts taken
	// control transfers. Together with PC they form landmarks.
	ICount   uint64
	Branches uint64

	// IntEnabled gates interrupt delivery; interrupts are disabled on
	// delivery and re-enabled by IRET (or STI).
	IntEnabled bool
	// Waiting is set while the machine executes WFI and no IRQ is pending.
	Waiting bool
	// Halted is set by HLT or by a fault.
	Halted bool
	// StopReq asks Run to return at the next instruction boundary. Bus
	// handlers set it when the host must regain control at an exact
	// execution point (e.g. a replaying auditor stopping at the instruction
	// that consumed the last available log entry, so the replica never runs
	// ahead of the log). The in-flight instruction retires normally; Run
	// clears the flag when it honors it. Not part of the machine state:
	// snapshots neither save nor restore it.
	StopReq bool
	// FaultInfo is non-nil after a fault.
	FaultInfo *Fault

	// Bus connects the machine to its devices.
	Bus IOBus

	// NsPerInstr converts instruction counts to virtual nanoseconds. The
	// default models a 100k instructions-per-second machine, scaling the
	// paper's multi-hour workloads to laptop-runnable instruction budgets.
	NsPerInstr uint64
	// ExtraNs is additional virtual time charged by the host (monitor
	// overhead from the cost model, idle-time advancement during WFI).
	ExtraNs uint64

	// pending is the bitmask of raised-but-undelivered IRQs.
	pending uint32

	// OnIRQDelivered, if set, is invoked at the moment an interrupt is
	// delivered, with the landmark at which delivery happened. The recording
	// monitor uses it to log the event.
	OnIRQDelivered func(irq int, lm Landmark)

	// InjectGate, if set, takes over interrupt scheduling: devices' raised
	// IRQs are ignored and the gate is consulted before each instruction.
	// The replaying auditor uses it to re-inject logged interrupts at their
	// recorded landmarks.
	InjectGate func(m *Machine) (irq int, ok bool)

	// pageGen records, per page, the write generation of the page's most
	// recent store. Generations split dirty tracking between independent
	// consumers: the recording monitor (DirtyPages/ClearDirty, which drive
	// incremental snapshots) and a replaying auditor's live state tree
	// (DirtyEpoch/DirtyPagesSince, folded at each snapshot entry) each hold
	// their own generation floor, so one clearing its view never perturbs
	// the other.
	pageGen []uint64
	// gen is the current write generation; every store stamps its page with
	// it. It advances only when a consumer takes a floor (DirtyEpoch), so
	// the invariant is: pageGen[p] > floor iff page p was written after that
	// floor was taken.
	gen uint64
	// recFloor is the recorder-facing floor behind DirtyPages/ClearDirty.
	recFloor uint64
	numPages int

	// accessed tracks pages touched (fetch, load or store) when
	// trackAccess is enabled — the basis of partial-state audits (§4.4:
	// "incrementally request the parts of the state that are accessed
	// during replay") and evidence minimization (§7.3).
	accessed    []bool
	trackAccess bool

	// DisablePredecode forces Step-by-Step execution in Run/RunUntil,
	// bypassing the predecoded sprint loop. The interpreter benchmarks and
	// the audit predecode ablation flip it; retired machine state is
	// bit-identical either way.
	DisablePredecode bool
	// DisableFusion keeps the predecoded sprint loop but skips the
	// superinstruction fusion pass, so every cached slot retires exactly
	// one instruction per dispatch. The fusion ablation benchmarks and the
	// fused-vs-unfused differential tests flip it; retired machine state
	// is bit-identical either way. The sprint revalidates a cached page
	// whose fusion state disagrees with the flag, so toggling it mid-run
	// is safe.
	DisableFusion bool
	// FusedPairs counts retired superinstruction pairs (a quad counts as
	// two). It is a host-side dispatch counter, not machine state:
	// snapshots ignore it, and it is excluded from replay-stat verdict
	// comparisons (chunk boundaries land mid-pair differently across
	// engines). dispatches/instruction =
	// (ICount - FusedPairs - FusedQuads) / ICount.
	FusedPairs uint64
	// FusedQuads counts retired quad superinstructions — two back-to-back
	// fused pairs dispatched as one. Host-side, like FusedPairs.
	FusedQuads uint64
	// code is the per-page predecode cache behind the sprint loop,
	// allocated lazily on the first sprint and invalidated through the page
	// write generations (see predecode.go).
	code []pageCode
}

// DefaultNsPerInstr models a 100 kIPS virtual machine (10 µs per
// instruction), chosen so that realistic game frame budgets (a few hundred
// instructions per frame) land near the paper's ~150 fps.
const DefaultNsPerInstr = 10_000

// NewMachine returns a machine with memSize bytes of zeroed memory (rounded
// up to a whole number of pages), interrupts disabled and SP at the top of
// memory.
func NewMachine(memSize int, bus IOBus) *Machine {
	if memSize < PageSize {
		memSize = PageSize
	}
	pages := (memSize + PageSize - 1) / PageSize
	m := &Machine{
		Mem:        make([]byte, pages*PageSize),
		Bus:        bus,
		NsPerInstr: DefaultNsPerInstr,
		pageGen:    make([]uint64, pages),
		gen:        1,
		numPages:   pages,
	}
	m.Regs[RegSP] = uint32(pages * PageSize)
	return m
}

// VTimeNs returns the machine's virtual clock in nanoseconds.
func (m *Machine) VTimeNs() uint64 { return m.ICount*m.NsPerInstr + m.ExtraNs }

// ChargeNs advances the virtual clock by d nanoseconds without executing
// instructions. The recording monitor charges its own overhead this way;
// the host also uses it to skip idle (WFI) periods.
func (m *Machine) ChargeNs(d uint64) { m.ExtraNs += d }

// Landmark returns the machine's current execution landmark.
func (m *Machine) Landmark() Landmark {
	return Landmark{ICount: m.ICount, Branches: m.Branches, PC: m.PC}
}

// RaiseIRQ asserts interrupt line irq. The interrupt is delivered at the
// next instruction boundary at which interrupts are enabled. Raising any
// IRQ wakes a machine waiting in WFI, even if the interrupt itself stays
// masked until STI.
func (m *Machine) RaiseIRQ(irq int) {
	if irq < 0 || irq >= NumIRQs {
		panic(fmt.Sprintf("vm: IRQ %d out of range", irq))
	}
	m.pending |= 1 << uint(irq)
	m.Waiting = false
}

// PendingIRQs returns the bitmask of raised-but-undelivered interrupts.
func (m *Machine) PendingIRQs() uint32 { return m.pending }

// deliverIRQ performs the delivery mechanics: push the resume PC, disable
// interrupts, jump to the vector. Delivery counts as a branch.
func (m *Machine) deliverIRQ(irq int) {
	lm := m.Landmark()
	m.pending &^= 1 << uint(irq)
	vector := m.load32(VectorBase + uint32(irq)*4)
	if m.Halted {
		return // vector table read faulted
	}
	m.push(m.PC)
	if m.Halted {
		return
	}
	m.IntEnabled = false
	m.PC = vector
	m.Branches++
	if m.OnIRQDelivered != nil {
		m.OnIRQDelivered(irq, lm)
	}
}

// lowestIRQ returns the lowest-numbered pending IRQ.
func (m *Machine) lowestIRQ() int {
	for i := 0; i < NumIRQs; i++ {
		if m.pending&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

// Step executes one instruction (delivering at most one interrupt first).
// It returns false when the machine is halted or waiting for an interrupt.
func (m *Machine) Step() bool {
	if m.Halted || m.Waiting {
		return false
	}
	// Interrupt delivery at the instruction boundary. Under an InjectGate
	// (replay), the gate alone decides when interrupts fire, so that they
	// land at exactly the recorded landmarks.
	if m.InjectGate != nil {
		if irq, ok := m.InjectGate(m); ok {
			m.deliverIRQ(irq)
			if m.Halted {
				return false
			}
		}
	} else if m.IntEnabled && m.pending != 0 {
		m.deliverIRQ(m.lowestIRQ())
		if m.Halted {
			return false
		}
	}

	if int(m.PC)+InstrSize > len(m.Mem) {
		m.fault(FaultMemOutOfRange, fmt.Sprintf("instruction fetch at 0x%x", m.PC))
		return false
	}
	if m.trackAccess {
		m.accessed[m.PC/PageSize] = true
		m.accessed[(m.PC+InstrSize-1)/PageSize] = true
	}
	ins := Decode(m.Mem[m.PC:])
	nextPC := m.PC + InstrSize
	branched := false

	switch ins.Op {
	case OpNop:
	case OpHlt:
		m.Halted = true
	case OpMovi:
		m.Regs[ins.Ra&15] = ins.Imm
	case OpMov:
		m.Regs[ins.Ra&15] = m.Regs[ins.Rb&15]
	case OpAdd:
		m.Regs[ins.Ra&15] = m.Regs[ins.Rb&15] + m.Regs[ins.Rc&15]
	case OpSub:
		m.Regs[ins.Ra&15] = m.Regs[ins.Rb&15] - m.Regs[ins.Rc&15]
	case OpMul:
		m.Regs[ins.Ra&15] = m.Regs[ins.Rb&15] * m.Regs[ins.Rc&15]
	case OpDivu:
		if m.Regs[ins.Rc&15] == 0 {
			m.fault(FaultDivByZero, "divu")
		} else {
			m.Regs[ins.Ra&15] = m.Regs[ins.Rb&15] / m.Regs[ins.Rc&15]
		}
	case OpModu:
		if m.Regs[ins.Rc&15] == 0 {
			m.fault(FaultDivByZero, "modu")
		} else {
			m.Regs[ins.Ra&15] = m.Regs[ins.Rb&15] % m.Regs[ins.Rc&15]
		}
	case OpAnd:
		m.Regs[ins.Ra&15] = m.Regs[ins.Rb&15] & m.Regs[ins.Rc&15]
	case OpOr:
		m.Regs[ins.Ra&15] = m.Regs[ins.Rb&15] | m.Regs[ins.Rc&15]
	case OpXor:
		m.Regs[ins.Ra&15] = m.Regs[ins.Rb&15] ^ m.Regs[ins.Rc&15]
	case OpShl:
		m.Regs[ins.Ra&15] = m.Regs[ins.Rb&15] << (m.Regs[ins.Rc&15] & 31)
	case OpShr:
		m.Regs[ins.Ra&15] = m.Regs[ins.Rb&15] >> (m.Regs[ins.Rc&15] & 31)
	case OpAddi:
		m.Regs[ins.Ra&15] = m.Regs[ins.Rb&15] + ins.Imm
	case OpEq:
		m.Regs[ins.Ra&15] = boolToWord(m.Regs[ins.Rb&15] == m.Regs[ins.Rc&15])
	case OpLtu:
		m.Regs[ins.Ra&15] = boolToWord(m.Regs[ins.Rb&15] < m.Regs[ins.Rc&15])
	case OpLts:
		m.Regs[ins.Ra&15] = boolToWord(int32(m.Regs[ins.Rb&15]) < int32(m.Regs[ins.Rc&15]))
	case OpNot:
		m.Regs[ins.Ra&15] = boolToWord(m.Regs[ins.Rb&15] == 0)
	case OpLoad:
		m.Regs[ins.Ra&15] = m.load32(m.Regs[ins.Rb&15] + ins.Imm)
	case OpStore:
		m.store32(m.Regs[ins.Ra&15]+ins.Imm, m.Regs[ins.Rb&15])
	case OpLoadb:
		m.Regs[ins.Ra&15] = uint32(m.loadByte(m.Regs[ins.Rb&15] + ins.Imm))
	case OpStoreb:
		m.storeByte(m.Regs[ins.Ra&15]+ins.Imm, byte(m.Regs[ins.Rb&15]))
	case OpJmp:
		nextPC = ins.Imm
		branched = true
	case OpJz:
		if m.Regs[ins.Ra&15] == 0 {
			nextPC = ins.Imm
			branched = true
		}
	case OpJnz:
		if m.Regs[ins.Ra&15] != 0 {
			nextPC = ins.Imm
			branched = true
		}
	case OpCall:
		m.push(nextPC)
		nextPC = ins.Imm
		branched = true
	case OpRet:
		nextPC = m.pop()
		branched = true
	case OpPush:
		m.push(m.Regs[ins.Ra&15])
	case OpPop:
		m.Regs[ins.Ra&15] = m.pop()
	case OpIn:
		if m.Bus == nil {
			m.fault(FaultBadPort, fmt.Sprintf("in port 0x%x with no bus", ins.Imm))
		} else {
			m.Regs[ins.Ra&15] = m.Bus.In(m, ins.Imm)
		}
	case OpOut:
		if m.Bus == nil {
			m.fault(FaultBadPort, fmt.Sprintf("out port 0x%x with no bus", ins.Imm))
		} else {
			m.Bus.Out(m, ins.Imm, m.Regs[ins.Ra&15])
		}
	case OpCli:
		m.IntEnabled = false
	case OpSti:
		m.IntEnabled = true
	case OpIret:
		nextPC = m.pop()
		m.IntEnabled = true
		branched = true
	case OpWfi:
		// Only actually idle if nothing is pending; a pending IRQ makes WFI
		// a no-op so the wakeup cannot be lost.
		if m.pending == 0 {
			m.Waiting = true
		}
	default:
		m.fault(FaultBadOpcode, fmt.Sprintf("opcode %d", ins.Op))
	}

	if m.Halted {
		return false
	}
	m.PC = nextPC
	m.ICount++
	if branched {
		m.Branches++
	}
	return !m.Waiting
}

// Run executes up to maxInstr instructions, stopping early if the machine
// halts or begins waiting for an interrupt. It returns the number of
// instructions retired.
func (m *Machine) Run(maxInstr uint64) uint64 {
	bound := m.ICount + maxInstr
	if bound < m.ICount { // saturate on overflow
		bound = ^uint64(0)
	}
	return m.RunUntil(bound)
}

// RunUntil executes instructions until the retired-instruction count
// reaches bound, stopping early if the machine halts, faults, begins
// waiting for an interrupt, or a bus handler requests a stop. It returns
// the number of instructions retired.
//
// When no per-instruction host feature is active — access tracking, an
// InjectGate, the predecode ablation — execution runs on the predecoded
// sprint loop (predecode.go): instructions come from the per-page
// predecode cache, invalidated through the page write generations so
// self-modifying code re-decodes before its next fetch, and the hot loop
// carries none of Step's per-instruction feature branches. The careful and
// sprint paths retire bit-identical state; landing exactly on bound is
// what lets a replaying auditor sprint the gap to the next recorded
// landmark and an AVMM sprint between device interactions.
func (m *Machine) RunUntil(bound uint64) uint64 {
	start := m.ICount
	// A StopReq raised before the call (rather than by a bus handler inside
	// it) is honored after one instruction, as Run's per-Step check always
	// did; the sprint only polls the flag at bus instructions, so route the
	// preset case through the careful loop.
	if m.DisablePredecode || m.trackAccess || m.InjectGate != nil || m.StopReq {
		for m.ICount < bound {
			if !m.Step() {
				break
			}
			if m.StopReq {
				m.StopReq = false
				break
			}
		}
		return m.ICount - start
	}
	m.sprint(bound)
	return m.ICount - start
}

func boolToWord(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func (m *Machine) fault(code FaultCode, detail string) {
	m.Halted = true
	m.FaultInfo = &Fault{Code: code, PC: m.PC, ICount: m.ICount, Detail: detail}
}

// --- memory access ---

func (m *Machine) load32(addr uint32) uint32 {
	if int(addr)+4 > len(m.Mem) || int(addr) < 0 {
		m.fault(FaultMemOutOfRange, fmt.Sprintf("load32 at 0x%x", addr))
		return 0
	}
	if m.trackAccess {
		m.accessed[addr/PageSize] = true
		m.accessed[(addr+3)/PageSize] = true
	}
	return binary.LittleEndian.Uint32(m.Mem[addr:])
}

func (m *Machine) store32(addr uint32, val uint32) {
	if int(addr)+4 > len(m.Mem) {
		m.fault(FaultMemOutOfRange, fmt.Sprintf("store32 at 0x%x", addr))
		return
	}
	binary.LittleEndian.PutUint32(m.Mem[addr:], val)
	m.pageGen[addr/PageSize] = m.gen
	if (addr%PageSize)+4 > PageSize {
		m.pageGen[addr/PageSize+1] = m.gen
	}
	if m.trackAccess {
		m.accessed[addr/PageSize] = true
		m.accessed[(addr+3)/PageSize] = true
	}
}

func (m *Machine) loadByte(addr uint32) byte {
	if int(addr) >= len(m.Mem) {
		m.fault(FaultMemOutOfRange, fmt.Sprintf("loadb at 0x%x", addr))
		return 0
	}
	if m.trackAccess {
		m.accessed[addr/PageSize] = true
	}
	return m.Mem[addr]
}

func (m *Machine) storeByte(addr uint32, val byte) {
	if int(addr) >= len(m.Mem) {
		m.fault(FaultMemOutOfRange, fmt.Sprintf("storeb at 0x%x", addr))
		return
	}
	m.Mem[addr] = val
	m.pageGen[addr/PageSize] = m.gen
	if m.trackAccess {
		m.accessed[addr/PageSize] = true
	}
}

func (m *Machine) push(val uint32) {
	m.Regs[RegSP] -= 4
	m.store32(m.Regs[RegSP], val)
}

func (m *Machine) pop() uint32 {
	v := m.load32(m.Regs[RegSP])
	m.Regs[RegSP] += 4
	return v
}

// Load32 reads a 32-bit word for host-side inspection (tests, device DMA).
// Unlike guest loads it returns an error instead of faulting the machine.
func (m *Machine) Load32(addr uint32) (uint32, error) {
	if int(addr)+4 > len(m.Mem) {
		return 0, fmt.Errorf("vm: host load32 at 0x%x out of range", addr)
	}
	return binary.LittleEndian.Uint32(m.Mem[addr:]), nil
}

// Store32 writes a 32-bit word from the host side, with dirty tracking.
func (m *Machine) Store32(addr uint32, val uint32) error {
	if int(addr)+4 > len(m.Mem) {
		return fmt.Errorf("vm: host store32 at 0x%x out of range", addr)
	}
	binary.LittleEndian.PutUint32(m.Mem[addr:], val)
	m.pageGen[addr/PageSize] = m.gen
	if (addr%PageSize)+4 > PageSize {
		m.pageGen[addr/PageSize+1] = m.gen
	}
	return nil
}

// WriteBytes copies b into memory at addr from the host side, with dirty
// tracking. Used by image loading and binary patching (cheats).
func (m *Machine) WriteBytes(addr uint32, b []byte) error {
	if int(addr)+len(b) > len(m.Mem) {
		return fmt.Errorf("vm: host write of %d bytes at 0x%x out of range", len(b), addr)
	}
	if len(b) == 0 {
		return nil // addr+len(b)-1 below would wrap and dirty every page
	}
	copy(m.Mem[addr:], b)
	for p := addr / PageSize; p <= (addr+uint32(len(b))-1)/PageSize && int(p) < m.numPages; p++ {
		m.pageGen[p] = m.gen
	}
	return nil
}

// NumPages returns the number of memory pages.
func (m *Machine) NumPages() int { return m.numPages }

// Page returns page p's bytes (aliased, not copied).
func (m *Machine) Page(p int) []byte { return m.Mem[p*PageSize : (p+1)*PageSize] }

// DirtyPages returns the indices of pages written since the last
// ClearDirty, in ascending order. This is the recorder-facing view, the
// one incremental snapshots capture.
func (m *Machine) DirtyPages() []int {
	return m.DirtyPagesSince(m.recFloor)
}

// ClearDirty resets the recorder-facing dirty tracking, typically right
// after a snapshot. The auditor-facing view (DirtyEpoch floors) is
// unaffected.
func (m *Machine) ClearDirty() {
	m.recFloor = m.DirtyEpoch()
}

// MarkAllDirty flags every page for every consumer, used after a restore.
func (m *Machine) MarkAllDirty() {
	for p := range m.pageGen {
		m.pageGen[p] = m.gen
	}
}

// DirtyEpoch returns a floor for DirtyPagesSince and advances the write
// generation, so pages written after the call are distinguishable from
// those written before it. A replaying auditor takes a floor each time it
// folds the dirty set into its live state tree; the recorder's
// DirtyPages/ClearDirty hold a floor of their own, so neither consumer's
// clearing perturbs the other.
func (m *Machine) DirtyEpoch() uint64 {
	g := m.gen
	m.gen++
	return g
}

// DirtyPagesSince returns, in ascending order, the indices of pages
// written after the given floor was taken with DirtyEpoch.
func (m *Machine) DirtyPagesSince(floor uint64) []int {
	var out []int
	for p, g := range m.pageGen {
		if g > floor {
			out = append(out, p)
		}
	}
	return out
}

// TrackAccess enables (or disables) page-access tracking for loads, stores
// and instruction fetches.
func (m *Machine) TrackAccess(on bool) {
	m.trackAccess = on
	if on && m.accessed == nil {
		m.accessed = make([]bool, m.numPages)
	}
}

// AccessedPages returns the indices of pages touched since tracking was
// enabled (or last cleared), in ascending order.
func (m *Machine) AccessedPages() []int {
	var out []int
	for p, a := range m.accessed {
		if a {
			out = append(out, p)
		}
	}
	return out
}

// ClearAccessed resets access tracking.
func (m *Machine) ClearAccessed() {
	for p := range m.accessed {
		m.accessed[p] = false
	}
}
