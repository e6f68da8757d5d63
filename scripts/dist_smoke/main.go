// Command dist_smoke is the CI gate for the distributed audit fan-out: it
// starts real `avm-audit -serve` worker processes on loopback, dispatches
// the full 26-cheat catalog (plus a clean match) through the one-shot
// coordinator (audit.TCPBackend: a fresh coordinator per audit, fixed
// fleet, no local fallback), and fails unless every distributed Result is
// byte-identical to the serial engine's. It then exercises the avm-run →
// avm-audit -coordinate offline workflow end to end over the recording's
// archive, requires the dispatched audits to ship delta jobs, and asserts
// the documented exit codes (0 clean, 1 fault detected, 2 audit/transport
// failure — a recording without its archive among them).
//
// The chaos phase re-runs the catalog through the long-running
// coordinator service while the fleet churns: one worker process is
// SIGKILLed a third of the way through and a replacement hot-joins two
// thirds through, and every verdict must still match the serial engine's.
// Finally it asserts the -coordinate exit-code contract, that a
// SIGKILLed journaled coordinator restarted over the same -journal (with
// a -register self-joined worker) resumes to byte-identical verdicts,
// that a second signal cuts a stalled worker drain short (still exit 0),
// and that a SIGTERMed worker drains gracefully (exit 0).
//
//	go build -o bin/ ./cmd/avm-audit ./cmd/avm-run
//	go run ./scripts/dist_smoke -audit-bin bin/avm-audit -run-bin bin/avm-run
//
// Exit status: 0 on full equivalence, 1 on any divergence or harness
// failure.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/game"
	"repro/internal/sig"
	"repro/internal/wire"
)

const matchNs = 6_000_000_000

var failures int

func failf(format string, args ...interface{}) {
	failures++
	fmt.Fprintf(os.Stderr, "dist_smoke: FAIL: "+format+"\n", args...)
}

// workerProc is one real `avm-audit -serve` process under test control.
type workerProc struct {
	addr string
	cmd  *exec.Cmd
}

// kill SIGKILLs the worker — the crash case; the coordinator only finds
// out when the connection drops or heartbeats stop.
func (w *workerProc) kill() {
	_ = w.cmd.Process.Kill()
	_, _ = w.cmd.Process.Wait()
}

// startWorker spawns one `avm-audit -serve` process and returns it with
// the address it bound (parsed from its banner line).
func startWorker(auditBin string) (*workerProc, error) {
	cmd := exec.Command(auditBin, "-serve", "-listen", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &workerProc{cmd: cmd}
	sc := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, "listening on "); i >= 0 {
				addrCh <- strings.TrimSpace(line[i+len("listening on "):])
				break
			}
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			w.kill()
			return nil, fmt.Errorf("worker printed no listen address")
		}
		w.addr = addr
		return w, nil
	case <-time.After(10 * time.Second):
		w.kill()
		return nil, fmt.Errorf("worker did not announce its address in time")
	}
}

// auditMatch records one two-player match (cheat may be nil) and compares
// the serial audit of both players against the dispatched audit through
// the given backend. The spot-recheck seed is filled in from the scenario.
func auditMatch(name string, cheat *game.Cheat, opts audit.DistOptions) {
	cfg := game.ScenarioConfig{
		Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
		Seed: 2024, SnapshotEveryNs: matchNs / 3, FakeSignatures: true,
	}
	if cheat != nil {
		cfg.CheatPlayer = 1
		cfg.Cheat = cheat
	}
	s, err := game.NewScenario(cfg)
	if err != nil {
		failf("%s: building scenario: %v", name, err)
		return
	}
	s.Run(matchNs)
	for _, node := range []string{"player1", "player2"} {
		serial, err := s.AuditNode(sig.NodeID(node))
		if err != nil {
			failf("%s/%s: serial audit: %v", name, node, err)
			continue
		}
		opts.SpotRecheckSeed = cfg.Seed
		dist, dstats, err := s.AuditNodeDist(sig.NodeID(node), opts)
		if err != nil {
			failf("%s/%s: dispatched audit: %v", name, node, err)
			continue
		}
		if !reflect.DeepEqual(serial, dist) {
			failf("%s/%s: verdict divergence:\n  serial: %+v\n  dist:   %+v", name, node, serial, dist)
			continue
		}
		if dstats.SpotMismatches != 0 {
			failf("%s/%s: honest workers produced %d spot mismatches", name, node, dstats.SpotMismatches)
		}
		cheater := cheat != nil && node == "player1"
		if serial.Passed == cheater {
			// Not a divergence, but the smoke would be vacuous: a cheater
			// that passes (or an honest player that faults) means the
			// scenario no longer exercises what it claims to.
			failf("%s/%s: serial passed=%v but cheater=%v", name, node, serial.Passed, cheater)
		}
	}
}

// watchedProc is a process whose stdout lines the harness needs both live
// (banners announcing bound ports) and in full (verdict comparison after
// exit). Stderr passes through.
type watchedProc struct {
	cmd   *exec.Cmd
	mu    sync.Mutex
	cond  *sync.Cond
	lines []string
	eof   bool
}

func startWatched(bin string, args ...string) (*watchedProc, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &watchedProc{cmd: cmd}
	p.cond = sync.NewCond(&p.mu)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.cond.Broadcast()
			p.mu.Unlock()
		}
		p.mu.Lock()
		p.eof = true
		p.cond.Broadcast()
		p.mu.Unlock()
	}()
	return p, nil
}

// waitLine blocks until the process prints a line containing substr (or
// its stdout closes / the timeout passes) and returns it.
func (p *watchedProc) waitLine(substr string, timeout time.Duration) (string, bool) {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() { p.cond.Broadcast() })
	defer wake.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; ; {
		for ; i < len(p.lines); i++ {
			if strings.Contains(p.lines[i], substr) {
				return p.lines[i], true
			}
		}
		if p.eof || time.Now().After(deadline) {
			return "", false
		}
		p.cond.Wait()
	}
}

func (p *watchedProc) allLines() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.lines...)
}

func (p *watchedProc) kill() {
	_ = p.cmd.Process.Kill()
	_, _ = p.cmd.Process.Wait()
}

// startEpochZeroSilentProxy fronts a real worker process with the chaos
// harness's verdict-filter proxy, swallowing every verdict for epoch
// index 0. Epoch 0 precedes any possible fault, so its verdict is always
// needed: any run dispatched through the proxy strands mid-flight with
// the later epochs' verdicts durable — the deterministic setup for
// SIGKILLing a coordinator that provably has unfinished journaled work.
func startEpochZeroSilentProxy(workerAddr string) (string, error) {
	_, addr, err := audit.StartVerdictFilterProxy(workerAddr, func(v *wire.AuditVerdict) bool {
		return v.Index != 0
	})
	return addr, err
}

// Timing-independent cores of the avm-audit verdict lines, so serial and
// resumed-coordinator output can be compared byte for byte.
var (
	passedRe = regexp.MustCompile(`^(\S+)\s+PASSED\s+in\s+\S+\s+\((\d+ entries, \d+ instructions replayed, \d+ sends matched)`)
	faultRe  = regexp.MustCompile(`^(\S+)\s+FAULT\s+in\s+\S+\s+— (.+? \([^,]+ check, entry \d+)`)
)

func verdictSummaries(lines []string) []string {
	var out []string
	for _, ln := range lines {
		if m := passedRe.FindStringSubmatch(ln); m != nil {
			out = append(out, m[1]+" PASSED "+m[2])
		} else if m := faultRe.FindStringSubmatch(ln); m != nil {
			out = append(out, m[1]+" FAULT "+m[2])
		}
	}
	sort.Strings(out)
	return out
}

// runCapture runs a command, returning its stdout lines and exit code.
func runCapture(bin string, args ...string) ([]string, int) {
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		code = -1
	}
	return strings.Split(strings.TrimRight(buf.String(), "\n"), "\n"), code
}

// runStderr runs a command, returning its stderr and exit code; stdout
// passes through, and stderr too.
func runStderr(bin string, args ...string) (string, int) {
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = os.Stdout
	cmd.Stderr = io.MultiWriter(&buf, os.Stderr)
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return buf.String(), ee.ExitCode()
	} else if err != nil {
		return buf.String(), -1
	}
	return buf.String(), 0
}

// deltaJobsRe reads the delta jobs a coordinated audit reports for a node.
var deltaJobsRe = regexp.MustCompile(`\((\d+) delta jobs, \d+ fallbacks\)`)

// expectDeltaJobs runs a coordinated audit, checks its exit code and
// requires it to report delta jobs shipped.
func expectDeltaJobs(want int, bin string, args ...string) {
	lines, got := runCapture(bin, args...)
	fmt.Println(strings.Join(lines, "\n"))
	if got != want {
		failf("%s %s: exit %d, want %d", bin, strings.Join(args, " "), got, want)
	}
	shipped := 0
	for _, ln := range lines {
		if m := deltaJobsRe.FindStringSubmatch(ln); m != nil {
			n, _ := strconv.Atoi(m[1])
			shipped += n
		}
	}
	if shipped == 0 {
		failf("%s %s: no delta jobs shipped", bin, strings.Join(args, " "))
	}
}

// expectExit runs a command and checks its exit code.
func expectExit(want int, bin string, args ...string) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	got := 0
	if ee, ok := err.(*exec.ExitError); ok {
		got = ee.ExitCode()
	} else if err != nil {
		failf("%s %s: %v", bin, strings.Join(args, " "), err)
		return
	}
	if got != want {
		failf("%s %s: exit %d, want %d", bin, strings.Join(args, " "), got, want)
	}
}

func main() {
	auditBin := flag.String("audit-bin", "bin/avm-audit", "path to the avm-audit binary")
	runBin := flag.String("run-bin", "bin/avm-run", "path to the avm-run binary")
	workers := flag.Int("workers", 3, "loopback worker processes to start")
	cheats := flag.String("cheats", "all", `comma-separated catalog cheats to dispatch, or "all"`)
	flag.Parse()

	mustWorker := func() *workerProc {
		w, err := startWorker(*auditBin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dist_smoke: starting worker: %v\n", err)
			os.Exit(1)
		}
		return w
	}
	var addrs []string
	for i := 0; i < *workers; i++ {
		w := mustWorker()
		defer w.kill()
		addrs = append(addrs, w.addr)
	}
	fmt.Printf("dist_smoke: %d workers on %s\n", *workers, strings.Join(addrs, ", "))

	// Phase 1: the cheat catalog, serial vs dispatched through the one-shot
	// coordinator, byte-identical.
	catalog := game.Catalog()
	if *cheats != "all" {
		catalog = catalog[:0]
		for _, nm := range strings.Split(*cheats, ",") {
			c, err := game.CatalogByName(strings.TrimSpace(nm))
			if err != nil {
				fmt.Fprintln(os.Stderr, "dist_smoke:", err)
				os.Exit(1)
			}
			catalog = append(catalog, c)
		}
	}
	tcpOpts := audit.DistOptions{
		Backend:       &audit.TCPBackend{Addrs: addrs, Config: audit.CoordinatorConfig{JobTimeout: 60 * time.Second}},
		EngineOptions: audit.EngineOptions{SpotRecheckFraction: 0.25},
	}
	start := time.Now()
	auditMatch("clean", nil, tcpOpts)
	for _, c := range catalog {
		before := failures
		auditMatch(c.Name, c, tcpOpts)
		status := "ok"
		if failures > before {
			status = "DIVERGED"
		}
		fmt.Printf("dist_smoke: %-24s %s\n", c.Name, status)
	}
	fmt.Printf("dist_smoke: catalog phase done in %v (%d matches)\n",
		time.Since(start).Round(time.Millisecond), len(catalog)+1)

	// Chaos phase: the same catalog through the long-running coordinator
	// while the fleet churns. Local fallback is off, so every verdict comes
	// from a real worker process; one worker is SIGKILLed a third of the
	// way through (its in-flight epochs must be re-dispatched after the
	// connection drops) and a replacement hot-joins two thirds through.
	var fleet []*workerProc
	for i := 0; i < 3; i++ {
		w := mustWorker()
		defer w.kill()
		fleet = append(fleet, w)
	}
	coord := audit.NewCoordinator(audit.CoordinatorConfig{
		Pipeline: 2, JobTimeout: 60 * time.Second, DisableLocalFallback: true,
	})
	for _, w := range fleet {
		coord.AddWorker(w.addr)
	}
	coordOpts := audit.DistOptions{Backend: coord.Backend(), EngineOptions: audit.EngineOptions{SpotRecheckFraction: 0.25}}
	killAt, joinAt := len(catalog)/3, 2*len(catalog)/3
	start = time.Now()
	auditMatch("chaos/clean", nil, coordOpts)
	for i, c := range catalog {
		if i == killAt {
			fmt.Printf("dist_smoke: SIGKILL worker %s mid-catalog\n", fleet[0].addr)
			fleet[0].kill()
		}
		if i == joinAt {
			repl := mustWorker()
			defer repl.kill()
			coord.RemoveWorker(fleet[0].addr)
			coord.AddWorker(repl.addr)
			fmt.Printf("dist_smoke: hot-joined replacement worker %s\n", repl.addr)
		}
		before := failures
		auditMatch("chaos/"+c.Name, c, coordOpts)
		status := "ok"
		if failures > before {
			status = "DIVERGED"
		}
		fmt.Printf("dist_smoke: chaos %-24s %s\n", c.Name, status)
	}
	fs := coord.Stats()
	coord.Close()
	fmt.Printf("dist_smoke: chaos phase done in %v (%d matches; %d epochs, %d retries, %d heartbeat timeouts, %d redials)\n",
		time.Since(start).Round(time.Millisecond), len(catalog)+1,
		fs.EpochsDone, fs.Retries, fs.HeartbeatTimeouts, fs.Redials)
	if fs.LocalFallbackEpochs != 0 {
		failf("chaos phase replayed %d epochs locally with fallback disabled", fs.LocalFallbackEpochs)
	}

	// Phase 2: the offline workflow through the real binaries, asserting
	// the documented exit codes.
	tmp, err := os.MkdirTemp("", "dist-smoke-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dist_smoke:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(tmp)
	cleanDir := filepath.Join(tmp, "clean")
	cheatDir := filepath.Join(tmp, "cheat")
	// 30 virtual seconds hold six snapshots: enough epochs per node that a
	// worker gets consecutive ones, which ship as delta jobs.
	expectExit(0, *runBin, "-scenario", "game", "-seconds", "30", "-seed", "3", "-out", cleanDir)
	expectExit(0, *runBin, "-scenario", "game", "-seconds", "30", "-seed", "3", "-cheat", "aimbot", "-out", cheatDir)
	fleetArg := strings.Join(addrs, ",")
	expectDeltaJobs(0, *auditBin, "-dir", cleanDir, "-coordinate", fleetArg, "-local-fallback=false")               // clean ⇒ 0
	expectDeltaJobs(1, *auditBin, "-dir", cheatDir, "-coordinate", fleetArg, "-local-fallback=false", "-spot", "1") // fault ⇒ 1
	expectExit(0, *auditBin, "-dir", cleanDir, "-coordinate", fleetArg)                                             // with fallback ⇒ 0
	expectExit(1, *auditBin, "-dir", cheatDir, "-coordinate", fleetArg, "-spot", "1")                               // with fallback ⇒ 1
	expectExit(1, *auditBin, "-dir", cheatDir)                                                                      // serial agrees ⇒ 1
	expectExit(2, *auditBin, "-dir", filepath.Join(tmp, "missing"))                                                 // bad recording ⇒ 2

	// The archive is the recording: without it the audit cannot start, and
	// the error names where the archive should have been.
	noArchiveDir := filepath.Join(tmp, "no-archive")
	expectExit(0, *runBin, "-scenario", "game", "-seconds", "6", "-seed", "3", "-out", noArchiveDir)
	if err := os.RemoveAll(filepath.Join(noArchiveDir, "archive")); err != nil {
		failf("removing the archive: %v", err)
	}
	if stderr, code := runStderr(*auditBin, "-dir", noArchiveDir); code != 2 || !strings.Contains(stderr, filepath.Join(noArchiveDir, "archive")) {
		failf("audit of a recording without its archive: exit %d, stderr %q; want exit 2 naming the archive", code, stderr)
	}

	// A dead fleet only fails the audit when local fallback is off.
	expectExit(0, *auditBin, "-dir", cleanDir, "-coordinate", "127.0.0.1:1",
		"-job-timeout", "2s") // dead fleet, local fallback ⇒ 0
	expectExit(2, *auditBin, "-dir", cleanDir, "-coordinate", "127.0.0.1:1",
		"-local-fallback=false", "-job-timeout", "2s") // dead fleet, no fallback ⇒ 2

	// Crash-resume phase: SIGKILL a real `-coordinate -journal` process
	// once its journal holds durable verdicts, restart it over the same
	// journal with a worker that joins via -register, and require the
	// resumed verdicts identical to the serial engine's (timing aside),
	// the journal counters reported, exit code 1 (the recording cheats),
	// and an empty journal once the resumed audit settles.
	fmt.Println("dist_smoke: crash-resume phase")
	serialLines, serialCode := runCapture(*auditBin, "-dir", cheatDir)
	if serialCode != 1 {
		failf("serial audit of the cheat recording: exit %d, want 1", serialCode)
	}
	crashWorker := mustWorker()
	defer crashWorker.kill()
	proxyAddr, err := startEpochZeroSilentProxy(crashWorker.addr)
	if err != nil {
		failf("starting epoch-0-silent proxy: %v", err)
	}
	journalDir := filepath.Join(tmp, "journal")
	victim, err := startWatched(*auditBin, "-dir", cheatDir, "-coordinate", proxyAddr,
		"-journal", journalDir, "-local-fallback=false", "-job-timeout", "120s")
	if err != nil {
		failf("starting journaled coordinator: %v", err)
	} else {
		deadline := time.Now().Add(60 * time.Second)
		for {
			_, verdicts, err := audit.InspectJournal(journalDir)
			if err == nil && verdicts >= 1 {
				break
			}
			if time.Now().After(deadline) {
				failf("coordinator journal never gained a durable verdict")
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		fmt.Println("dist_smoke: SIGKILL coordinator mid-audit (journal has durable verdicts)")
		victim.kill()

		restart, err := startWatched(*auditBin, "-dir", cheatDir, "-journal", journalDir,
			"-register-listen", "127.0.0.1:0", "-local-fallback=false", "-job-timeout", "120s")
		if err != nil {
			failf("restarting journaled coordinator: %v", err)
		} else {
			banner, ok := restart.waitLine("registration listener on ", 20*time.Second)
			if !ok {
				failf("restarted coordinator printed no registration banner")
				restart.kill()
			} else {
				regAddr := strings.TrimSpace(banner[strings.LastIndex(banner, " on ")+len(" on "):])
				joiner, err := startWatched(*auditBin, "-serve", "-listen", "127.0.0.1:0", "-register", regAddr)
				if err != nil {
					failf("starting register-joined worker: %v", err)
				} else {
					defer joiner.kill()
					if _, ok := joiner.waitLine("registered with coordinator", 20*time.Second); !ok {
						failf("worker never confirmed registration with %s", regAddr)
					}
				}
				werr := restart.cmd.Wait()
				code := 0
				if ee, ok := werr.(*exec.ExitError); ok {
					code = ee.ExitCode()
				} else if werr != nil {
					failf("waiting for restarted coordinator: %v", werr)
				}
				if code != 1 {
					failf("restarted coordinator over cheat recording: exit %d, want 1", code)
				}
				lines := restart.allLines()
				if got, want := verdictSummaries(lines), verdictSummaries(serialLines); !reflect.DeepEqual(got, want) {
					failf("crash-resume verdict divergence:\n  resumed: %v\n  serial:  %v", got, want)
				}
				var resumed, skipped, jbytes int
				journalLine := false
				for _, ln := range lines {
					if n, _ := fmt.Sscanf(ln, "journal: %d runs resumed, %d epochs skipped as durable, %d bytes",
						&resumed, &skipped, &jbytes); n == 3 {
						journalLine = true
					}
				}
				switch {
				case !journalLine:
					failf("restarted coordinator printed no journal status line")
				case resumed == 0 || skipped == 0 || jbytes == 0:
					failf("journal line reports no resume work: %d resumed, %d skipped, %d bytes", resumed, skipped, jbytes)
				default:
					fmt.Printf("dist_smoke: crash-resume ok (%d runs resumed, %d epochs skipped as durable)\n", resumed, skipped)
				}
				if runs, verdicts, err := audit.InspectJournal(journalDir); err != nil || runs != 0 || verdicts != 0 {
					failf("journal after clean resume = (%d runs, %d verdicts, %v), want empty", runs, verdicts, err)
				}
			}
		}
	}

	// A second signal during a stalled drain must exit immediately, still
	// 0. A -chaos-hang worker never finishes its in-flight epoch, so only
	// the second-signal path can end the process.
	hangW, err := startWatched(*auditBin, "-serve", "-listen", "127.0.0.1:0", "-chaos-hang", "-drain-timeout", "300s")
	if err != nil {
		failf("starting hang worker: %v", err)
	} else {
		banner, ok := hangW.waitLine("listening on ", 10*time.Second)
		if !ok {
			failf("hang worker printed no listen address")
			hangW.kill()
		} else {
			hangAddr := strings.TrimSpace(banner[strings.LastIndex(banner, " on ")+len(" on "):])
			// Feed it a job it will hang on, then give the dispatch time to land.
			feeder := exec.Command(*auditBin, "-dir", cleanDir, "-coordinate", hangAddr, "-local-fallback=false", "-job-timeout", "300s")
			feeder.Stdout, feeder.Stderr = io.Discard, io.Discard
			if err := feeder.Start(); err != nil {
				failf("starting feeder dispatch: %v", err)
			}
			defer func() { _ = feeder.Process.Kill(); _, _ = feeder.Process.Wait() }()
			time.Sleep(5 * time.Second)
			if err := hangW.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				failf("first SIGTERM to hang worker: %v", err)
			}
			if _, ok := hangW.waitLine("draining", 10*time.Second); !ok {
				failf("hang worker printed no draining banner after SIGTERM")
			}
			// The drain must stall on the hung epoch: the process has to
			// still be alive well after the banner.
			time.Sleep(3 * time.Second)
			if err := hangW.cmd.Process.Signal(syscall.Signal(0)); err != nil {
				failf("hang worker exited during drain despite a hung in-flight epoch: %v", err)
			} else {
				start := time.Now()
				if err := hangW.cmd.Process.Signal(syscall.SIGTERM); err != nil {
					failf("second SIGTERM to hang worker: %v", err)
				}
				if werr := hangW.cmd.Wait(); werr != nil {
					failf("double-signaled worker should exit 0 immediately, got: %v", werr)
				} else if wait := time.Since(start); wait > 10*time.Second {
					failf("double-signaled worker took %v to exit, want immediate", wait)
				} else {
					fmt.Printf("dist_smoke: second signal cut the drain short in %v (exit 0)\n", wait.Round(time.Millisecond))
				}
			}
		}
	}

	// A SIGTERMed worker must drain gracefully: finish in-flight epochs,
	// refuse new jobs, exit 0.
	drainer := mustWorker()
	if err := drainer.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		failf("signaling drain worker: %v", err)
	} else if werr := drainer.cmd.Wait(); werr != nil {
		failf("SIGTERMed worker should drain and exit 0, got: %v", werr)
	} else {
		fmt.Println("dist_smoke: SIGTERMed worker drained cleanly (exit 0)")
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "dist_smoke: %d failure(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("dist_smoke: all verdicts byte-identical; exit codes stable")
}
