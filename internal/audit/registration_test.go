package audit_test

import (
	"net"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/wire"
)

// Worker-initiated registration suite: a register-joined worker must be
// indistinguishable from an AddWorker-configured one (verdict equivalence
// included), re-registration must dedupe into a reattach, wrong protocol
// versions must be rejected with a reason, and a worker must rejoin a
// restarted coordinator on the same registration address by itself.

// startRegistration wires a coordinator's registration listener up and
// returns its address.
func startRegistration(t *testing.T, coord *audit.Coordinator) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = coord.ServeRegistrations(l) }()
	return l.Addr().String()
}

func waitForWorkers(t *testing.T, coord *audit.Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for coord.Stats().WorkersRegistered != n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d registered workers (stats %+v)", n, coord.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWorkerRegistrationEquivalence: a worker that joins via -register
// serves an audit exactly like one configured via AddWorker — byte-
// identical verdicts against the serial engine, no local fallback.
func TestWorkerRegistrationEquivalence(t *testing.T) {
	s := coordScenario(t, "aimbot")
	serial, err := s.AuditNode("player1")
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := audit.StartChaosFleet([]*audit.ChaosPlan{nil})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	coord := testCoordinator(audit.CoordinatorConfig{DisableLocalFallback: true})
	defer coord.Close()
	regAddr := startRegistration(t, coord)

	stop := make(chan struct{})
	defer close(stop)
	go audit.RegisterWorker(regAddr, fleet.Addrs[0], stop, nil)
	waitForWorkers(t, coord, 1)

	res, _, err := s.AuditNodeDist("player1", audit.DistOptions{
		Backend:       coord.Backend(),
		EngineOptions: audit.EngineOptions{SpotRecheckFraction: 0.25},
	})
	if err != nil {
		t.Fatalf("audit through register-joined worker: %v", err)
	}
	compareVerdicts(t, "register-joined", serial, res)
	st := coord.Stats()
	if st.RegistrationsAccepted == 0 {
		t.Errorf("no registrations counted as accepted (stats %+v)", st)
	}
	if st.LocalFallbackEpochs != 0 {
		t.Errorf("register-joined fleet leaked %d epochs to local fallback", st.LocalFallbackEpochs)
	}
}

// TestWorkerRegistrationDedupe: a worker registering twice (its
// registration connection dropped and it redialed) reattaches to its
// existing fleet entry instead of duplicating it.
func TestWorkerRegistrationDedupe(t *testing.T) {
	fleet, err := audit.StartChaosFleet([]*audit.ChaosPlan{nil})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	coord := testCoordinator(audit.CoordinatorConfig{DisableLocalFallback: true})
	defer coord.Close()
	regAddr := startRegistration(t, coord)

	for i := 0; i < 2; i++ {
		stop := make(chan struct{})
		go audit.RegisterWorker(regAddr, fleet.Addrs[0], stop, nil)
		deadline := time.Now().Add(10 * time.Second)
		for coord.Stats().RegistrationsAccepted < int64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("registration %d never accepted (stats %+v)", i+1, coord.Stats())
			}
			time.Sleep(2 * time.Millisecond)
		}
		close(stop) // drop the registration connection; the next loop re-registers
	}
	st := coord.Stats()
	if st.WorkersRegistered != 1 {
		t.Errorf("re-registration duplicated the worker: %d registered, want 1", st.WorkersRegistered)
	}
	if st.RegistrationsAccepted != 2 {
		t.Errorf("registrations accepted = %d, want 2", st.RegistrationsAccepted)
	}
}

// TestRegistrationVersionRejected: a Hello speaking a future protocol
// version gets a reasoned rejection, not a guess.
func TestRegistrationVersionRejected(t *testing.T) {
	coord := testCoordinator(audit.CoordinatorConfig{})
	defer coord.Close()
	regAddr := startRegistration(t, coord)

	conn, err := net.Dial("tcp", regAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := wire.RegistrationHello{Version: wire.RegistrationVersion + 7, Addr: "127.0.0.1:9", Capabilities: wire.CapDeltaJobs}
	writeTestFrame(conn, byte(wire.DistFrameHello), hello.Marshal())
	body, err := readTestFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if body[0] != byte(wire.DistFrameWelcome) {
		t.Fatalf("reply frame kind = %d, want Welcome (%d)", body[0], wire.DistFrameWelcome)
	}
	welcome, err := wire.ParseRegistrationWelcome(body[1:])
	if err != nil {
		t.Fatal(err)
	}
	if welcome.Accepted {
		t.Fatal("future-version Hello was accepted")
	}
	if welcome.Reason == "" {
		t.Error("rejection carried no reason")
	}
	st := coord.Stats()
	if st.RegistrationsRejected == 0 {
		t.Errorf("no registrations counted as rejected (stats %+v)", st)
	}
	if st.WorkersRegistered != 0 {
		t.Errorf("rejected worker joined the fleet (stats %+v)", st)
	}
}

// TestRegistrationBadAddrRejected: a Hello announcing an address the
// coordinator could never dial (no concrete port) is rejected.
func TestRegistrationBadAddrRejected(t *testing.T) {
	coord := testCoordinator(audit.CoordinatorConfig{})
	defer coord.Close()
	regAddr := startRegistration(t, coord)

	conn, err := net.Dial("tcp", regAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := wire.RegistrationHello{Version: wire.RegistrationVersion, Addr: "no-port-here"}
	writeTestFrame(conn, byte(wire.DistFrameHello), hello.Marshal())
	body, err := readTestFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	welcome, err := wire.ParseRegistrationWelcome(body[1:])
	if err != nil {
		t.Fatal(err)
	}
	if welcome.Accepted || welcome.Reason == "" {
		t.Fatalf("bad-address Hello: accepted=%v reason=%q, want reasoned rejection", welcome.Accepted, welcome.Reason)
	}
}

// heldListener is a registration listener whose Close ends the accept loop
// serving it — a pending Accept wakes on the expired deadline — and keeps
// the socket bound and listening. A coordinator that dies closes its
// listener; a successor that re-listened on the address would race that
// close, and every other process asking the kernel for a free port, for a
// port nobody holds. Here the port is never released: the successor serves
// the same socket.
type heldListener struct{ *net.TCPListener }

func (h heldListener) Close() error { return h.SetDeadline(time.Now()) }

// TestWorkerReregistersAfterCoordinatorRestart: the self-assembly loop.
// A worker registered with one coordinator must notice its death (the
// registration connection drops) and re-announce itself to the successor
// listening on the same address, with no operator involvement.
func TestWorkerReregistersAfterCoordinatorRestart(t *testing.T) {
	fleet, err := audit.StartChaosFleet([]*audit.ChaosPlan{nil})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sock := l.(*net.TCPListener)

	coord1 := testCoordinator(audit.CoordinatorConfig{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = coord1.ServeRegistrations(heldListener{sock})
	}()

	stop := make(chan struct{})
	defer close(stop)
	go audit.RegisterWorker(l.Addr().String(), fleet.Addrs[0], stop, nil)
	waitForWorkers(t, coord1, 1)

	// The coordinator dies; its accept loop ends with it.
	coord1.Kill()
	<-served

	// A successor takes over the same registration address. The worker's
	// redial loop must find it without being told anything.
	if err := sock.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	coord2 := testCoordinator(audit.CoordinatorConfig{})
	defer coord2.Close()
	go func() { _ = coord2.ServeRegistrations(sock) }()
	waitForWorkers(t, coord2, 1)
	if got := coord2.Stats().RegistrationsAccepted; got != 1 {
		t.Errorf("successor accepted %d registrations, want 1", got)
	}
}
