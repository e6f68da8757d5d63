// Command avm-audit checks a recording produced by avm-run: it reads the
// named node's log and snapshot increments from the recording's disk
// archive (<dir>/archive), re-verifying every segment against the
// archive's manifest, rebuilds the reference image, verifies the log
// against the collected authenticators (<dir>/<node>.auths), runs the
// syntactic check, and replays the execution — the full audit pipeline of
// §4.5.
//
//	avm-audit -dir /tmp/match1 -node player2
//	avm-audit -dir /tmp/match1               # audit every node
//	avm-audit -dir /tmp/match1 -window 512   # tighter memory cap
//
// The log is audited epoch segment by epoch segment straight from the
// archive: decoding, chain verification and replay run as overlapped
// stages, and at most -window decoded entries are resident at once, so a
// multi-hour log audits in bounded memory. The verdict is identical to the
// serial replay's.
//
// # Distributed auditing
//
// The replay stage can be fanned out over remote workers:
//
//	avm-audit -serve -listen 127.0.0.1:9100          # scenario-agnostic worker
//	avm-audit -dir /tmp/match1 -coordinate 127.0.0.1:9100,127.0.0.1:9101
//
// A worker holds no recording, no keys and no guest sources — the
// coordinator ships the reference configuration and self-contained epoch
// jobs (verified start state + entry run) and merges the verdicts, which
// are byte-identical to a local audit. Workers are untrusted: the
// coordinator root-verifies every start state before dispatch and
// re-replays a -spot fraction of epochs locally. A log with snapshots
// dispatches one job per inter-snapshot epoch, and after a connection's
// first full state each job ships as a delta chain from the state the
// worker already holds; without snapshots the log ships as a single boot
// epoch.
//
// # Continuous auditing
//
// -coordinate audits every node's log concurrently through one shared
// epoch queue and one multiplexed connection per worker, with heartbeat
// liveness, pipelined jobs, retry with exponential backoff and straggler
// hedging. An unreachable fleet degrades gracefully to local replay;
// -local-fallback=false makes it a failure instead (exit 2 after
// -job-timeout).
//
// Workers may come and go mid-audit; a worker that received SIGINT or
// SIGTERM drains gracefully — it finishes in-flight epochs, refuses new
// jobs so the coordinator re-dispatches them elsewhere, and exits 0. A
// second signal during the drain exits immediately (still 0).
//
// With -journal <dir> the coordinator keeps a write-ahead journal of its
// epoch queue; a coordinator killed mid-audit and restarted with the same
// -journal resumes, re-dispatching only the epochs without durable
// verdicts and producing byte-identical results. With -register-listen
// the coordinator also accepts worker self-registrations, and workers run
//
//	avm-audit -serve -register <coordinator-registration-addr>
//
// to join the fleet on their own (and rejoin a restarted coordinator).
//
// # Exit codes
//
// avm-audit exits with stable codes so scripts and CI can branch on the
// outcome without parsing output:
//
//	0  every audited log passed
//	1  at least one fault was detected (the machine misbehaved)
//	2  the audit itself could not be completed (bad recording, I/O or
//	   transport failure, unreachable workers)
package main

import (
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/audit"
	"repro/internal/dbapp"
	"repro/internal/game"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
)

// Exit codes, per the command documentation.
const (
	exitClean     = 0
	exitFault     = 1
	exitAuditFail = 2
)

// Meta mirrors cmd/avm-run's metadata format.
type Meta struct {
	Scenario string            `json:"scenario"`
	Seed     uint64            `json:"seed"`
	Players  int               `json:"players"`
	Nodes    map[string]int    `json:"nodes"`
	RNGSeeds map[string]uint64 `json:"rng_seeds"`
}

// referenceImage rebuilds the trusted image for a node from the scenario's
// deterministic guest sources — the auditor's own copy, never the recorded
// machine's.
func referenceImage(meta *Meta, node string) (*vm.Image, error) {
	switch meta.Scenario {
	case "game":
		if node == "server" {
			return game.BuildServer()
		}
		idx, ok := meta.Nodes[node]
		if !ok {
			return nil, fmt.Errorf("unknown node %q", node)
		}
		return game.BuildClient(idx, game.BuildOptions{})
	case "db":
		if node == "db-server" {
			return dbapp.BuildServer()
		}
		return dbapp.BuildClient()
	}
	return nil, fmt.Errorf("unknown scenario %q", meta.Scenario)
}

// rebuildKeys regenerates the deployment's public keys. Keys are
// deterministic per scenario seed, so the auditor derives the same
// verifiers the machines used; in a real deployment these would come from
// the certificate authority instead.
func rebuildKeys(meta *Meta) *sig.KeyStore {
	keys := sig.NewKeyStore()
	for node := range meta.Nodes {
		signer := sig.SizedSigner{Node: sig.NodeID(node), Size: sig.PaperSigBytes}
		keys.Add(signer.Public())
	}
	return keys
}

// openArchive opens the recording's disk archive, <dir>/archive. A
// directory without a manifest there is not a recording avm-run wrote.
func openArchive(dir string) (*archive.Archive, error) {
	p := filepath.Join(dir, "archive")
	if _, err := os.Stat(filepath.Join(p, archive.ManifestName)); err != nil {
		return nil, fmt.Errorf("no recording archive at %s: %w", p, err)
	}
	return archive.Open(p)
}

// fail reports an audit-infrastructure failure (exit code 2).
func fail(format string, args ...interface{}) int {
	fmt.Fprintf(os.Stderr, "avm-audit: "+format+"\n", args...)
	return exitAuditFail
}

func main() { os.Exit(run()) }

func run() int {
	dir := flag.String("dir", "avm-run-out", "directory written by avm-run")
	nodeFlag := flag.String("node", "", "node to audit (default: all)")
	window := flag.Int("window", audit.DefaultStreamWindow, "local audit: max decoded entries resident at once")
	serve := flag.Bool("serve", false, "run as a replay worker instead of auditing: accept epoch jobs from a coordinator")
	listen := flag.String("listen", "127.0.0.1:0", "worker mode: address to listen on")
	coordinate := flag.String("coordinate", "", "comma-separated worker addresses; audit every node concurrently through the coordinator service")
	spot := flag.Float64("spot", 0.1, "coordinate mode: fraction of epochs the coordinator re-replays locally to catch lying workers")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "coordinate mode: straggler deadline before an epoch is re-dispatched")
	pipeline := flag.Int("pipeline", 0, "coordinate mode: epoch jobs kept in flight per worker connection (0 = default)")
	hedgeAfter := flag.Duration("hedge-after", 0, "coordinate mode: straggler hedge delay (0 = job-timeout/4, negative disables hedging)")
	localFallback := flag.Bool("local-fallback", true, "coordinate mode: replay locally when no workers are live instead of failing")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "worker mode: max time to finish in-flight epochs after SIGINT/SIGTERM")
	journalDir := flag.String("journal", "", "coordinate mode: directory for the write-ahead epoch journal; a restarted coordinator resumes from it instead of re-auditing durable epochs")
	registerListen := flag.String("register-listen", "", "coordinate mode: address to accept worker self-registrations on (workers run -serve -register <this addr>)")
	register := flag.String("register", "", "worker mode: coordinator registration address to announce this worker to (redials with backoff if the coordinator restarts)")
	chaosHang := flag.Bool("chaos-hang", false, "worker mode: accept every job and never reply (fault-injection for drain and timeout testing)")
	flag.Parse()

	if *serve {
		return serveWorker(*listen, *drainTimeout, *register, *chaosHang)
	}

	metaBytes, err := os.ReadFile(filepath.Join(*dir, "meta.json"))
	if err != nil {
		return fail("%v", err)
	}
	var meta Meta
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return fail("%v", err)
	}
	keys := rebuildKeys(&meta)

	// Entry runs and snapshot increments come back from the archive
	// verified against the archived hashes; a local audit never
	// materializes the log at all.
	arc, err := openArchive(*dir)
	if err != nil {
		return fail("%v", err)
	}
	defer arc.Close()

	var nodes []string
	if *nodeFlag != "" {
		nodes = []string{*nodeFlag}
	} else {
		for n := range meta.Nodes {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
	}
	recs := make([]*nodeRecording, 0, len(nodes))
	for _, node := range nodes {
		rec, err := loadNodeRecording(arc, *dir, &meta, keys, node)
		if err != nil {
			return fail("%v", err)
		}
		recs = append(recs, rec)
	}

	if *coordinate != "" || *registerListen != "" {
		var addrs []string
		for _, a := range strings.Split(*coordinate, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		return runCoordinated(arc, recs, meta.Seed, addrs, *journalDir, *registerListen,
			*pipeline, *spot, *jobTimeout, *hedgeAfter, *localFallback)
	}

	faults := 0
	for _, rec := range recs {
		// Epoch segments verified and decoded from disk one at a time; with
		// snapshots the router splits epochs, otherwise it replays a single
		// boot epoch.
		start := time.Now()
		src, err := arc.EntrySource(rec.node)
		if err != nil {
			return fail("%v", err)
		}
		res, astats, err := rec.auditor.Audit(audit.AuditRequest{
			Node: sig.NodeID(rec.node), NodeIdx: rec.idx, Engine: audit.EngineDist,
			Source: src, Auths: rec.auths,
			Options: audit.EngineOptions{Window: *window, Materialize: rec.materialize},
		})
		if err != nil {
			return fail("auditing %s: %v", rec.node, err)
		}
		wall := time.Since(start).Round(time.Millisecond)
		if res.Passed {
			fmt.Printf("%-10s PASSED in %-8v (%d entries, %d instructions replayed, %d sends matched)\n",
				rec.node, wall, astats.Stream.Entries, res.Replay.Instructions, res.Replay.SendsMatched)
		} else {
			faults++
			fmt.Printf("%-10s FAULT  in %-8v — %s (%s check, entry %d)\n",
				rec.node, wall, res.Fault.Detail, res.Fault.Check, res.Fault.EntrySeq)
		}
	}
	if faults > 0 {
		return exitFault
	}
	return exitClean
}

// nodeRecording is what an audit of one node needs besides its log: the
// authenticators the other parties hold for it, the auditor configured for
// it, and start states folded from the archive's snapshot increments
// (nil when the node was recorded without snapshots).
type nodeRecording struct {
	node        string
	idx         uint32
	auths       []tevlog.Authenticator
	auditor     *audit.Auditor
	materialize func(snapIdx uint32) (*snapshot.Restored, error)
	deltaSource func(k uint32) (*snapshot.Delta, error)
}

// loadNodeRecording reads one node's authenticators, rebuilds its
// reference image and opens its snapshot increments in the archive.
func loadNodeRecording(arc *archive.Archive, dir string, meta *Meta, keys *sig.KeyStore, node string) (*nodeRecording, error) {
	var auths []tevlog.Authenticator
	authFile, err := os.Open(filepath.Join(dir, node+".auths"))
	if err != nil {
		return nil, err
	}
	err = gob.NewDecoder(authFile).Decode(&auths)
	authFile.Close()
	if err != nil {
		return nil, fmt.Errorf("decoding %s authenticators: %w", node, err)
	}
	ref, err := referenceImage(meta, node)
	if err != nil {
		return nil, err
	}
	rec := &nodeRecording{
		node: node, idx: uint32(meta.Nodes[node]), auths: auths,
		auditor: &audit.Auditor{
			Keys: keys, RefImage: ref, RNGSeed: meta.RNGSeeds[node],
			TamperEvident: true, VerifySignatures: true,
		},
	}
	if n, err := arc.Snapshots(node); err != nil || n == 0 {
		return rec, err
	}
	src, err := arc.IncrementSource(node)
	if err != nil {
		return nil, err
	}
	rec.materialize = func(snapIdx uint32) (*snapshot.Restored, error) {
		return snapshot.MaterializeFrom(src, int(snapIdx))
	}
	rec.deltaSource = func(k uint32) (*snapshot.Delta, error) {
		return snapshot.DeltaFrom(src, int(k))
	}
	return rec, nil
}

// runCoordinated audits every node concurrently through one long-running
// coordinator: a shared epoch queue, one multiplexed connection per
// worker, heartbeat liveness, pipelined dispatch, retry with backoff and
// straggler hedging. Workers may join, leave or crash mid-audit; with
// -local-fallback (the default) an empty fleet degrades to local replay.
func runCoordinated(arc *archive.Archive, recs []*nodeRecording, seed uint64, addrs []string, journalDir, registerListen string,
	pipeline int, spot float64, jobTimeout, hedgeAfter time.Duration, localFallback bool) int {
	logs := make([][]tevlog.Entry, len(recs))
	for i, rec := range recs {
		var err error
		if logs[i], err = arc.ReadLog(rec.node); err != nil {
			return fail("%v", err)
		}
	}

	var journal *audit.Journal
	if journalDir != "" {
		var err error
		journal, err = audit.OpenJournal(journalDir)
		if err != nil {
			return fail("opening journal: %v", err)
		}
		defer journal.Close()
	}

	coord := audit.NewCoordinator(audit.CoordinatorConfig{
		Pipeline:             pipeline,
		JobTimeout:           jobTimeout,
		HedgeAfter:           hedgeAfter,
		DisableLocalFallback: !localFallback,
		Journal:              journal,
	})
	defer coord.Close()
	for _, a := range addrs {
		coord.AddWorker(a)
	}
	if registerListen != "" {
		rl, err := net.Listen("tcp", registerListen)
		if err != nil {
			return fail("registration listen %s: %v", registerListen, err)
		}
		// The smoke harness parses this banner to learn the bound port.
		fmt.Printf("avm-audit: registration listener on %s\n", rl.Addr())
		go func() { _ = coord.ServeRegistrations(rl) }()
	}

	type outcome struct {
		res    *audit.Result
		dstats audit.DistStats
		wall   time.Duration
		err    error
	}
	start := time.Now()
	outs := make([]outcome, len(recs))
	var wg sync.WaitGroup
	for i, rec := range recs {
		wg.Add(1)
		go func(i int, rec *nodeRecording) {
			defer wg.Done()
			t0 := time.Now()
			res, dstats, err := coord.Audit(rec.auditor, sig.NodeID(rec.node), rec.idx, logs[i], rec.auths,
				audit.DistOptions{EngineOptions: audit.EngineOptions{
					Materialize:         rec.materialize,
					DeltaSource:         rec.deltaSource,
					DeltaJobs:           rec.deltaSource != nil,
					SpotRecheckFraction: spot,
					SpotRecheckSeed:     seed,
				}})
			outs[i] = outcome{res: res, dstats: dstats, wall: time.Since(t0).Round(time.Millisecond), err: err}
		}(i, rec)
	}
	wg.Wait()
	wall := time.Since(start)

	code := exitClean
	faults := 0
	for i, rec := range recs {
		out := outs[i]
		if out.err != nil {
			code = fail("auditing %s: %v", rec.node, out.err)
			continue
		}
		extra := fmt.Sprintf(", %d epochs, %d re-dispatched, %d spot-rechecked, job bytes %d full + %d delta (%d delta jobs, %d fallbacks)",
			out.dstats.Epochs, out.dstats.Redispatches, out.dstats.SpotRechecked,
			out.dstats.WireBytesFull, out.dstats.WireBytesDelta, out.dstats.DeltaJobsShipped, out.dstats.DeltaFallbacks)
		if out.res.Passed {
			fmt.Printf("%-10s PASSED in %-8v (%d entries, %d instructions replayed, %d sends matched%s)\n",
				rec.node, out.wall, len(logs[i]), out.res.Replay.Instructions, out.res.Replay.SendsMatched, extra)
		} else {
			faults++
			fmt.Printf("%-10s FAULT  in %-8v — %s (%s check, entry %d%s)\n",
				rec.node, out.wall, out.res.Fault.Detail, out.res.Fault.Check, out.res.Fault.EntrySeq, extra)
		}
	}
	fs := coord.Stats()
	util := 0.0
	if fs.WorkersRegistered > 0 && wall > 0 {
		util = float64(fs.BusyNs) / (float64(wall.Nanoseconds()) * float64(fs.WorkersRegistered))
	}
	fmt.Printf("fleet: %d/%d workers live, %d epochs done (%d local-fallback), %d retries, %d hedges, %d heartbeat timeouts, %d registrations (%d rejected), utilization %.2f\n",
		fs.WorkersLive, fs.WorkersRegistered, fs.EpochsDone, fs.LocalFallbackEpochs,
		fs.Retries, fs.Hedges, fs.HeartbeatTimeouts, fs.RegistrationsAccepted, fs.RegistrationsRejected, util)
	if journal != nil {
		fmt.Printf("journal: %d runs resumed, %d epochs skipped as durable, %d bytes, %d write errors\n",
			fs.RunsResumed, fs.EpochsSkippedDurable, fs.JournalBytes, fs.JournalWriteErrors)
	}
	if code != exitClean {
		return code
	}
	if faults > 0 {
		return exitFault
	}
	return exitClean
}

// serveWorker runs the scenario-agnostic replay worker until killed.
// SIGINT and SIGTERM drain gracefully: the worker stops accepting work,
// refuses queued jobs so the coordinator re-dispatches them elsewhere,
// finishes what is already in flight (bounded by drainTimeout), and exits
// 0. A second signal during the drain is the operator insisting: the
// worker exits immediately, still 0 — the coordinator treats the cut
// connection like any worker crash and re-dispatches.
//
// With -register the worker announces itself to the coordinator's
// registration listener and re-announces (with capped backoff) whenever
// that connection drops, so it rejoins a restarted coordinator on its own.
func serveWorker(addr string, drainTimeout time.Duration, registerAddr string, chaosHang bool) int {
	w := &audit.EpochWorker{}
	if chaosHang {
		w.Chaos = &audit.ChaosPlan{Name: "hang-forever", HangRate: 1.0}
	}
	// Register the drain handler before announcing the address: a
	// supervisor may signal the instant it sees the banner.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		fmt.Printf("avm-audit: %v received, draining (finishing in-flight epochs)\n", s)
		go w.Drain(drainTimeout)
		s = <-sigCh
		fmt.Printf("avm-audit: %v received again, exiting now\n", s)
		os.Exit(exitClean)
	}()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fail("listen %s: %v", addr, err)
	}
	fmt.Printf("avm-audit: worker listening on %s\n", l.Addr())
	if registerAddr != "" {
		stop := make(chan struct{}) // lives until the process exits
		go audit.RegisterWorker(registerAddr, l.Addr().String(), stop, func(accepted bool, reason string) {
			if accepted {
				fmt.Printf("avm-audit: registered with coordinator %s\n", registerAddr)
			} else {
				fmt.Printf("avm-audit: registration rejected by %s: %s\n", registerAddr, reason)
			}
		})
	}
	if err := w.Serve(l); err != nil {
		return fail("serving: %v", err)
	}
	fmt.Println("avm-audit: worker drained, exiting")
	return exitClean
}
