package wire

// Worker-initiated registration frames. A push-configured fleet
// (AddWorker) is the wrong shape for autoscaled deployments, where workers
// appear and disappear without an operator editing a flag. Instead the
// coordinator exposes a registration listener and each worker dials in
// with a Hello announcing the address its job listener serves on and what
// it can do; the coordinator answers with a Welcome and, when it accepts,
// dials the announced address through the existing AddWorker path. The
// registration connection then stays open doing nothing: the worker
// watches it, and a read error (coordinator crash or restart) triggers a
// redial-with-backoff and a fresh Hello — which the coordinator's
// AddWorker dedupe turns into a reattach, not a duplicate worker.

import "fmt"

// Registration protocol frames, extending the DistFrame* set.
const (
	// DistFrameHello is a worker's self-registration: a RegistrationHello
	// body announcing its job-listener address and capabilities.
	DistFrameHello DistFrameKind = DistFrameMuxNeedState + 1 + iota
	// DistFrameWelcome answers a Hello with a RegistrationWelcome body:
	// accepted (the coordinator will dial the announced address) or
	// rejected with a reason.
	DistFrameWelcome
)

// RegistrationVersion is the registration protocol version this build
// speaks. A coordinator rejects Hellos from other versions rather than
// guessing at field semantics.
const RegistrationVersion = 1

// Worker capability bits carried in RegistrationHello.Capabilities.
const (
	// CapDeltaJobs: the worker understands delta-shipped epoch jobs
	// (DistFrameMuxDeltaJob / DistFrameMuxNeedState).
	CapDeltaJobs uint64 = 1 << iota
)

// RegistrationHello is a worker's self-registration announcement.
type RegistrationHello struct {
	// Version is the registration protocol version the worker speaks.
	Version uint64
	// Addr is the address the worker's job listener serves on. An
	// unspecified or empty host ("", "0.0.0.0", "[::]") is resolved by the
	// coordinator against the connection's remote address.
	Addr string
	// Capabilities is the Cap* bit set.
	Capabilities uint64
}

// Marshal serializes the hello.
func (h *RegistrationHello) Marshal() []byte {
	w := &writer{}
	w.uvarint(h.Version)
	w.str(h.Addr)
	w.uvarint(h.Capabilities)
	return w.b
}

// ParseRegistrationHello decodes a hello frame body.
func ParseRegistrationHello(b []byte) (*RegistrationHello, error) {
	r := &reader{b: b}
	h := &RegistrationHello{Version: r.uvarint(), Addr: r.str(), Capabilities: r.uvarint()}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("parsing registration hello: %w", err)
	}
	return h, nil
}

// RegistrationWelcome is the coordinator's answer to a Hello.
type RegistrationWelcome struct {
	// Version is the registration protocol version the coordinator speaks.
	Version uint64
	// Accepted reports whether the worker joined the fleet.
	Accepted bool
	// Reason explains a rejection ("" when accepted).
	Reason string
}

// Marshal serializes the welcome.
func (m *RegistrationWelcome) Marshal() []byte {
	w := &writer{}
	w.uvarint(m.Version)
	w.uvarint(boolByte(m.Accepted))
	w.str(m.Reason)
	return w.b
}

// ParseRegistrationWelcome decodes a welcome frame body.
func ParseRegistrationWelcome(b []byte) (*RegistrationWelcome, error) {
	r := &reader{b: b}
	m := &RegistrationWelcome{Version: r.uvarint(), Accepted: r.uvarint() != 0, Reason: r.str()}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("parsing registration welcome: %w", err)
	}
	return m, nil
}
