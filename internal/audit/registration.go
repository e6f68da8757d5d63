package audit

import (
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/wire"
)

// This file is worker-initiated registration: the self-assembly path for
// autoscaled fleets. The coordinator listens (ServeRegistrations /
// `avm-audit -coordinate -register-listen`), workers dial in
// (RegisterWorker / `avm-audit -serve -register`) with a Hello announcing
// their job-listener address, and an accepted Hello feeds the existing
// AddWorker path — so a registered worker is driven by exactly the same
// dial/redial/heartbeat machinery as a push-configured one, and
// AddWorker's no-op-on-duplicate is the dedupe that turns a re-registering
// worker into a reattach to its old coordWorker state. The registration
// connection itself carries no further traffic: it is held open as a
// liveness signal, and the worker redials with capped backoff when it
// drops (a coordinator crash or restart), which is what reassembles the
// fleet around a journal-resumed coordinator without an operator in the
// loop.

// regHandshakeTimeout bounds each side of the Hello/Welcome exchange.
const regHandshakeTimeout = 5 * time.Second

// ServeRegistrations accepts worker self-registrations on l until the
// listener closes or the coordinator shuts down (which also closes l).
// Run it on its own goroutine, one per listener.
func (c *Coordinator) ServeRegistrations(l net.Listener) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-c.closedCh:
			l.Close()
		case <-done:
		}
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if c.isClosed() {
				return nil
			}
			return err
		}
		go c.handleRegistration(conn)
	}
}

// handleRegistration runs one registration connection: Hello in, Welcome
// out, AddWorker on accept, then hold the connection open until the worker
// or the coordinator goes away.
func (c *Coordinator) handleRegistration(conn net.Conn) {
	defer conn.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-c.closedCh:
			conn.Close()
		case <-done:
		}
	}()

	conn.SetReadDeadline(time.Now().Add(regHandshakeTimeout))
	kind, body, err := readDistFrame(conn)
	if err != nil || kind != wire.DistFrameHello {
		c.reg.Counter("registrations_rejected").Inc()
		return
	}
	hello, err := wire.ParseRegistrationHello(body)
	if err != nil {
		c.reg.Counter("registrations_rejected").Inc()
		return
	}

	welcome := wire.RegistrationWelcome{Version: wire.RegistrationVersion}
	addr, aerr := registrationAddr(conn, hello.Addr)
	switch {
	case hello.Version != wire.RegistrationVersion:
		welcome.Reason = fmt.Sprintf("registration version %d not supported (coordinator speaks %d)",
			hello.Version, wire.RegistrationVersion)
	case aerr != nil:
		welcome.Reason = aerr.Error()
	case c.isClosed():
		welcome.Reason = "coordinator is closed"
	default:
		welcome.Accepted = true
	}

	// A refusal is counted before it is written: whoever has read it finds
	// it in the coordinator's stats.
	if !welcome.Accepted {
		c.reg.Counter("registrations_rejected").Inc()
	}
	conn.SetWriteDeadline(time.Now().Add(regHandshakeTimeout))
	werr := writeDistFrames(conn, distFrame{wire.DistFrameWelcome, welcome.Marshal()})
	if !welcome.Accepted {
		return
	}
	if werr != nil {
		c.reg.Counter("registrations_rejected").Inc()
		return
	}
	c.reg.Counter("registrations_accepted").Inc()
	// AddWorker dedupes on address, so a worker re-registering after a
	// dropped registration connection reattaches instead of duplicating.
	c.AddWorker(addr)

	// Hold the connection open, discarding anything the worker sends: its
	// death tells the worker to re-register (coordinator restart), and the
	// worker's death simply ends this goroutine — the fleet entry stays,
	// driven by the coordWorker redial loop like any other dead worker.
	conn.SetReadDeadline(time.Time{})
	_, _ = io.Copy(io.Discard, conn)
}

// registrationAddr resolves the job address a Hello announces against the
// connection it arrived on: an empty or unspecified host is replaced by
// the connection's remote host (the worker may not know which of its
// addresses the coordinator can route to).
func registrationAddr(conn net.Conn, announced string) (string, error) {
	host, port, err := net.SplitHostPort(announced)
	if err != nil {
		return "", fmt.Errorf("audit: registration address %q: %w", announced, err)
	}
	if port == "" || port == "0" {
		return "", fmt.Errorf("audit: registration address %q has no concrete port", announced)
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		remoteHost, _, rerr := net.SplitHostPort(conn.RemoteAddr().String())
		if rerr != nil {
			return "", fmt.Errorf("audit: resolving registration host: %w", rerr)
		}
		host = remoteHost
	}
	return net.JoinHostPort(host, port), nil
}

// RegisterWorker announces a worker's job listener to a coordinator's
// registration address and keeps the registration alive: whenever the
// registration connection drops (a coordinator crash or restart), it
// redials with capped exponential backoff and re-registers, until stop
// closes. Run it alongside EpochWorker.Serve; advertise is the address the
// worker's job listener serves on (an unspecified host is resolved by the
// coordinator). onState, when non-nil, observes each registration outcome
// (for banners and tests).
func RegisterWorker(coordAddr, advertise string, stop <-chan struct{}, onState func(accepted bool, reason string)) {
	const (
		baseBackoff = 100 * time.Millisecond
		maxBackoff  = 5 * time.Second
	)
	delay := baseBackoff
	for {
		select {
		case <-stop:
			return
		default:
		}
		if registerOnce(coordAddr, advertise, stop, onState) {
			// We were registered and held the connection for a while;
			// whatever dropped it, start knocking gently again.
			delay = baseBackoff
		}
		select {
		case <-stop:
			return
		case <-time.After(delay):
		}
		delay *= 2
		if delay > maxBackoff {
			delay = maxBackoff
		}
	}
}

// registerOnce performs one Hello/Welcome exchange and, on acceptance,
// blocks holding the registration connection until it drops or stop
// closes. Returns whether the registration was accepted.
func registerOnce(coordAddr, advertise string, stop <-chan struct{}, onState func(bool, string)) bool {
	conn, err := net.DialTimeout("tcp", coordAddr, regHandshakeTimeout)
	if err != nil {
		return false
	}
	defer conn.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-stop:
			conn.Close()
		case <-done:
		}
	}()

	hello := wire.RegistrationHello{
		Version: wire.RegistrationVersion, Addr: advertise, Capabilities: wire.CapDeltaJobs,
	}
	conn.SetWriteDeadline(time.Now().Add(regHandshakeTimeout))
	if err := writeDistFrames(conn, distFrame{wire.DistFrameHello, hello.Marshal()}); err != nil {
		return false
	}
	conn.SetReadDeadline(time.Now().Add(regHandshakeTimeout))
	kind, body, err := readDistFrame(conn)
	if err != nil || kind != wire.DistFrameWelcome {
		return false
	}
	welcome, err := wire.ParseRegistrationWelcome(body)
	if err != nil {
		return false
	}
	if onState != nil {
		onState(welcome.Accepted, welcome.Reason)
	}
	if !welcome.Accepted {
		return false
	}
	// Registered. Hold the connection: a read error means the coordinator
	// went away and we should announce ourselves to its successor.
	conn.SetReadDeadline(time.Time{})
	_, _ = io.Copy(io.Discard, conn)
	return true
}
