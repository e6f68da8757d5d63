// Package avm is the public API of the accountable virtual machines
// library, a from-scratch reproduction of "Accountable Virtual Machines"
// (Haeberlen, Aditya, Rodrigues, Druschel — OSDI 2010).
//
// An accountable virtual machine (AVM) executes a binary image while
// recording non-repudiable information that lets an auditor check, after
// the fact, whether the machine behaved as a trusted reference image would
// have. The library provides:
//
//   - a deterministic virtual machine and a MiniC compiler for building
//     guest images (Compile);
//   - the accountable virtual machine monitor (AVMM): tamper-evident
//     logging of messages and nondeterministic events, signed
//     authenticators, acknowledgments, and authenticated snapshots
//     (Deployment, Monitor);
//   - the auditor: log verification, syntactic checks, deterministic
//     replay, spot checks, online audits, and transferable evidence
//     (Auditor, Evidence).
//
// # Quick start
//
//	img, err := avm.Compile("service", src, 64*1024)
//	d, err := avm.NewDeployment(avm.DeploymentConfig{Mode: avm.ModeAVMMRSA})
//	mon, err := d.AddNode("bob", img, 1)
//	d.Run(10 * avm.VirtualSecond)
//	result, err := d.Audit("bob")
//
// A failed audit yields evidence any third party can verify with
// VerifyEvidence — without trusting the auditor or the audited machine.
package avm

import (
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/lang"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/tevlog"
	"repro/internal/vm"
)

// VirtualSecond is one second of virtual time in the nanosecond units the
// deployment clock uses.
const VirtualSecond = uint64(time.Second)

// Re-exported core types. The aliases make the internal implementation
// types usable directly through the public API.
type (
	// Image is a bootable guest image.
	Image = vm.Image
	// Machine is the deterministic virtual machine.
	Machine = vm.Machine
	// Mode selects one of the five evaluation configurations.
	Mode = avmm.Mode
	// Monitor is the accountable virtual machine monitor for one node.
	Monitor = avmm.Monitor
	// CostModel charges monitor work against virtual time.
	CostModel = avmm.CostModel
	// Auditor checks machines against a reference image.
	Auditor = audit.Auditor
	// AuditRequest describes one audit for Auditor.Audit: what to check
	// and on which engine.
	AuditRequest = audit.AuditRequest
	// Result is an audit outcome.
	Result = audit.Result
	// FaultReport pinpoints a detected fault.
	FaultReport = audit.FaultReport
	// Evidence is a transferable, independently verifiable proof of fault.
	Evidence = audit.Evidence
	// Authenticator is a signed commitment to a log prefix.
	Authenticator = tevlog.Authenticator
	// NodeID names a principal.
	NodeID = sig.NodeID
	// Signer signs authenticators.
	Signer = sig.Signer
	// KeyStore maps principals to verifiers.
	KeyStore = sig.KeyStore
)

// The five evaluation configurations (paper §6.2).
const (
	ModeBareHW      = avmm.ModeBareHW
	ModeVMwareNoRec = avmm.ModeVMwareNoRec
	ModeVMwareRec   = avmm.ModeVMwareRec
	ModeAVMMNoSig   = avmm.ModeAVMMNoSig
	ModeAVMMRSA     = avmm.ModeAVMMRSA
)

// Compile builds a guest image from MiniC source. memSize is the machine
// memory in bytes (0 = 256 KiB).
func Compile(name, src string, memSize int) (*Image, error) {
	return lang.Compile(name, src, lang.Options{MemSize: memSize})
}

// DeploymentConfig assembles a set of accountable machines on a simulated
// network.
type DeploymentConfig struct {
	// Mode is the evaluation configuration for all nodes (default
	// ModeAVMMRSA, the full system).
	Mode Mode
	// Cost is the virtual-time cost model (default DefaultCostModel).
	Cost *CostModel
	// Seed drives deterministic key generation, device RNGs and network
	// jitter.
	Seed uint64
	// LatencyNs is the one-way network latency (default 96 µs).
	LatencyNs uint64
	// SnapshotEveryNs takes periodic snapshots when nonzero.
	SnapshotEveryNs uint64
	// KeyBits is the RSA modulus size (default 768, as in the paper).
	KeyBits int
}

// Deployment is a running set of accountable machines.
type Deployment struct {
	cfg      DeploymentConfig
	Net      *netsim.Network
	World    *avmm.World
	Keys     *KeyStore
	monitors map[NodeID]*Monitor
	images   map[NodeID]*Image
	seeds    map[NodeID]uint64
}

// NewDeployment creates an empty deployment.
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
	if cfg.Cost == nil {
		cm := avmm.DefaultCostModel()
		cfg.Cost = &cm
	}
	if cfg.LatencyNs == 0 {
		cfg.LatencyNs = 96_000
	}
	if cfg.KeyBits == 0 {
		cfg.KeyBits = sig.DefaultKeyBits
	}
	net := netsim.New(netsim.Config{BaseLatencyNs: cfg.LatencyNs, Seed: cfg.Seed + 1})
	keys := sig.NewKeyStore()
	return &Deployment{
		cfg: cfg, Net: net, World: avmm.NewWorld(net, keys), Keys: keys,
		monitors: make(map[NodeID]*Monitor),
		images:   make(map[NodeID]*Image),
		seeds:    make(map[NodeID]uint64),
	}, nil
}

// AddNode boots image on a new accountable machine named name at network
// index idx (indices must be added in order starting from 0).
func (d *Deployment) AddNode(name string, image *Image, idx int) (*Monitor, error) {
	node := NodeID(name)
	if _, dup := d.monitors[node]; dup {
		return nil, fmt.Errorf("avm: node %q already exists", name)
	}
	var signer Signer
	if d.cfg.Mode.Signs() {
		s, err := sig.GenerateRSA(node, d.cfg.KeyBits, fmt.Sprintf("deploy-%d", d.cfg.Seed))
		if err != nil {
			return nil, err
		}
		signer = s
	} else {
		signer = sig.NullSigner{Node: node}
	}
	rngSeed := d.cfg.Seed + 1000 + uint64(idx)
	mon, err := avmm.NewMonitor(avmm.Config{
		Node: node, Index: idx, Mode: d.cfg.Mode, Cost: *d.cfg.Cost,
		Signer: signer, Keys: d.Keys, Image: image, Net: d.Net,
		RNGSeed: rngSeed, SnapshotEveryNs: d.cfg.SnapshotEveryNs,
	})
	if err != nil {
		return nil, err
	}
	if err := d.World.Add(mon); err != nil {
		return nil, err
	}
	d.monitors[node] = mon
	d.images[node] = image
	d.seeds[node] = rngSeed
	return mon, nil
}

// Node returns the monitor for name.
func (d *Deployment) Node(name string) (*Monitor, bool) {
	m, ok := d.monitors[NodeID(name)]
	return m, ok
}

// Run advances the deployment by the given amount of virtual time.
func (d *Deployment) Run(durationNs uint64) {
	d.World.Run(d.World.Now() + durationNs)
}

// RunUntil advances until cond holds or the additional duration elapses.
func (d *Deployment) RunUntil(cond func() bool, durationNs uint64) bool {
	return d.World.RunUntil(cond, d.World.Now()+durationNs)
}

// CollectAuthenticators gathers every authenticator other nodes hold for
// name, plus the machine's own snapshot and head commitments — the §4.6
// multi-party collection step.
func (d *Deployment) CollectAuthenticators(name string) ([]Authenticator, error) {
	node := NodeID(name)
	target, ok := d.monitors[node]
	if !ok {
		return nil, fmt.Errorf("avm: unknown node %q", name)
	}
	var auths []Authenticator
	for _, mon := range d.monitors {
		if mon != target {
			auths = append(auths, mon.AuthenticatorsFor(node)...)
		}
	}
	auths = append(auths, target.SnapshotAuths()...)
	if target.Log.Len() > 0 {
		head, err := target.Log.LastAuthenticator()
		if err != nil {
			return nil, err
		}
		auths = append(auths, head)
	}
	return auths, nil
}

// Auditor returns an auditor for name using reference as the trusted image
// (pass nil to use the image the node was booted with — appropriate only
// when the deployment itself is trusted, e.g. in tests).
func (d *Deployment) Auditor(name string, reference *Image) (*Auditor, error) {
	node := NodeID(name)
	if _, ok := d.monitors[node]; !ok {
		return nil, fmt.Errorf("avm: unknown node %q", name)
	}
	if reference == nil {
		reference = d.images[node]
	}
	return &Auditor{
		Keys: d.Keys, RefImage: reference, RNGSeed: d.seeds[node],
		TamperEvident:    d.cfg.Mode.TamperEvident(),
		VerifySignatures: d.cfg.Mode.Signs(),
	}, nil
}

// Audit performs a full audit of name against reference (nil = boot image),
// collecting authenticators from all peers.
func (d *Deployment) Audit(name string, reference *Image) (*Result, error) {
	node := NodeID(name)
	target, ok := d.monitors[node]
	if !ok {
		return nil, fmt.Errorf("avm: unknown node %q", name)
	}
	a, err := d.Auditor(name, reference)
	if err != nil {
		return nil, err
	}
	auths, err := d.CollectAuthenticators(name)
	if err != nil {
		return nil, err
	}
	res, _, err := a.Audit(audit.AuditRequest{
		Node: node, NodeIdx: uint32(target.Index()), Entries: target.Log.All(), Auths: auths,
	})
	return res, err
}

// BuildEvidence bundles what a failed audit of name used, for transfer to
// third parties.
func (d *Deployment) BuildEvidence(name string, res *Result) (*Evidence, error) {
	node := NodeID(name)
	target, ok := d.monitors[node]
	if !ok {
		return nil, fmt.Errorf("avm: unknown node %q", name)
	}
	auths, err := d.CollectAuthenticators(name)
	if err != nil {
		return nil, err
	}
	reason := "audit failed"
	if res != nil && res.Fault != nil {
		reason = res.Fault.Detail
	}
	return &Evidence{
		Accused: node, AccusedIdx: uint32(target.Index()), Reason: reason,
		Entries: target.Log.All(), Auths: auths, RNGSeed: d.seeds[node],
	}, nil
}

// VerifyEvidence lets a third party check an evidence bundle against its
// own reference image and key store. It returns nil if the evidence indeed
// demonstrates a fault.
func VerifyEvidence(ev *Evidence, keys *KeyStore, reference *Image, mode Mode) (*Result, error) {
	return audit.VerifyEvidence(ev, audit.VerifierConfig{
		Keys: keys, RefImage: reference,
		TamperEvident: mode.TamperEvident(), VerifySignatures: mode.Signs(),
	})
}

// DefaultCostModel returns the calibrated virtual-time cost model.
func DefaultCostModel() CostModel { return avmm.DefaultCostModel() }
