// Command avm-audit checks a recording produced by avm-run: it rebuilds the
// reference image for the named node, decompresses the log, verifies it
// against the collected authenticators, runs the syntactic check, and
// replays the execution — the full audit pipeline of §4.5.
//
//	avm-audit -dir /tmp/match1 -node player2
//	avm-audit -dir /tmp/match1            # audit every node
//	avm-audit -dir /tmp/match1 -stream    # streaming pipeline, bounded memory
//
// With -stream the log is audited straight from the compressed container:
// decoding, chain verification and replay run as overlapped stages, and at
// most -window decoded entries are resident at once — the mode to use for
// multi-hour logs. The verdict is identical to the materializing pipeline.
//
// # Distributed auditing
//
// The replay stage can be fanned out over remote workers:
//
//	avm-audit -serve -listen 127.0.0.1:9100          # scenario-agnostic worker
//	avm-audit -dir /tmp/match1 -dispatch 127.0.0.1:9100,127.0.0.1:9101
//
// A worker holds no recording, no keys and no guest sources — the
// coordinator ships the reference configuration and self-contained epoch
// jobs (verified start state + entry run) and merges the verdicts, which
// are byte-identical to a local audit. Workers are untrusted: the
// coordinator root-verifies every start state before dispatch and
// re-replays a -spot fraction of epochs locally. Recordings that carry
// snapshots (avm-run writes <node>.snaps) dispatch one job per
// inter-snapshot epoch; without them the log ships as a single boot epoch.
//
// # Continuous auditing
//
// -dispatch and -coordinate drive the same coordinator: every node's log
// is audited concurrently through one shared epoch queue and one
// multiplexed connection per worker, with heartbeat liveness, pipelined
// jobs, retry with exponential backoff and straggler hedging. They differ
// in what an unreachable fleet means. -coordinate degrades gracefully to
// local replay (disable with -local-fallback=false to fail instead, exit
// 2); -dispatch A,B is shorthand for -coordinate A,B -local-fallback=false:
//
//	avm-audit -dir /tmp/match1 -coordinate 127.0.0.1:9100,127.0.0.1:9101
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
	"repro/internal/logcomp"
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

// openArchive resolves the -archive flag: "auto" opens <dir>/archive when
// avm-run wrote one (nil otherwise), "off" disables the archive path, and
// anything else is an explicit archive directory.
func openArchive(dir, flagVal string) (*archive.Archive, error) {
	switch flagVal {
	case "off":
		return nil, nil
	case "auto":
		p := filepath.Join(dir, "archive")
		if _, err := os.Stat(filepath.Join(p, archive.ManifestName)); err != nil {
			return nil, nil
		}
		return archive.Open(p)
	default:
		return archive.Open(flagVal)
	}
}

// archiveSnapshots returns Materialize and DeltaSource closures folding
// states out of the archive's verified snapshot segments, or nils when
// the node was archived without snapshots.
func archiveSnapshots(arc *archive.Archive, node string) (func(snapIdx uint32) (*snapshot.Restored, error), func(k uint32) (*snapshot.Delta, error), error) {
	n, err := arc.Snapshots(node)
	if err != nil || n == 0 {
		return nil, nil, err
	}
	src, err := arc.IncrementSource(node)
	if err != nil {
		return nil, nil, err
	}
	return func(snapIdx uint32) (*snapshot.Restored, error) {
			return snapshot.MaterializeFrom(src, int(snapIdx))
		}, func(k uint32) (*snapshot.Delta, error) {
			return snapshot.DeltaFrom(src, int(k))
		}, nil
}

// loadSnapshots returns Materialize and DeltaSource closures over the
// node's persisted snapshot store (avm-run writes one per node when
// snapshots were taken), or nils when the recording carries none.
func loadSnapshots(dir, node string) (func(snapIdx uint32) (*snapshot.Restored, error), func(k uint32) (*snapshot.Delta, error), error) {
	f, err := os.Open(filepath.Join(dir, node+".snaps"))
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var sf snapshot.StoreFile
	if err := gob.NewDecoder(f).Decode(&sf); err != nil {
		return nil, nil, fmt.Errorf("decoding %s snapshots: %w", node, err)
	}
	st := sf.Restore()
	return func(snapIdx uint32) (*snapshot.Restored, error) {
			return st.Materialize(int(snapIdx))
		}, func(k uint32) (*snapshot.Delta, error) {
			return st.Delta(int(k))
		}, nil
}

// loadEntriesAndSnapshots loads a node's chain-verified entry slice and
// snapshot closures for the materializing engines: from the archive's
// verified segments when one is open (compressed is then ignored),
// otherwise by decompressing the flat container and opening the gob
// snapshot store.
func loadEntriesAndSnapshots(arc *archive.Archive, dir, node string, compressed []byte) ([]tevlog.Entry, func(snapIdx uint32) (*snapshot.Restored, error), func(k uint32) (*snapshot.Delta, error), error) {
	if arc != nil {
		entries, err := arc.ReadLog(node)
		if err != nil {
			return nil, nil, nil, err
		}
		materialize, deltaSrc, err := archiveSnapshots(arc, node)
		return entries, materialize, deltaSrc, err
	}
	entries, err := logcomp.DecompressEntries(compressed)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("decompressing %s log: %w", node, err)
	}
	if err := tevlog.Rechain(tevlog.Hash{}, entries); err != nil {
		return nil, nil, nil, fmt.Errorf("rechaining %s log: %w", node, err)
	}
	materialize, deltaSrc, err := loadSnapshots(dir, node)
	return entries, materialize, deltaSrc, err
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
	stream := flag.Bool("stream", false, "audit straight from the compressed log (decode ∥ chain-verify ∥ replay, bounded memory)")
	window := flag.Int("window", audit.DefaultStreamWindow, "streaming mode: max decoded entries resident at once")
	serve := flag.Bool("serve", false, "run as a replay worker instead of auditing: accept epoch jobs from a coordinator")
	listen := flag.String("listen", "127.0.0.1:0", "worker mode: address to listen on")
	dispatch := flag.String("dispatch", "", "comma-separated worker addresses; fan the replay stage out over them (shorthand for -coordinate <addrs> -local-fallback=false)")
	coordinate := flag.String("coordinate", "", "comma-separated worker addresses; audit every node concurrently through the coordinator service")
	spot := flag.Float64("spot", 0.1, "dispatch mode: fraction of epochs the coordinator re-replays locally to catch lying workers")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "dispatch mode: straggler deadline before an epoch is re-dispatched")
	pipeline := flag.Int("pipeline", 0, "coordinate mode: epoch jobs kept in flight per worker connection (0 = default)")
	hedgeAfter := flag.Duration("hedge-after", 0, "coordinate mode: straggler hedge delay (0 = job-timeout/4, negative disables hedging)")
	localFallback := flag.Bool("local-fallback", true, "coordinate mode: replay locally when no workers are live instead of failing")
	delta := flag.Bool("delta", false, "dispatch/coordinate mode: ship epoch jobs as proof-carrying dirty-page deltas after the first full state per worker connection")
	nofusion := flag.Bool("nofusion", false, "disable superinstruction fusion in the replay interpreter (ablation; verdicts are unaffected)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "worker mode: max time to finish in-flight epochs after SIGINT/SIGTERM")
	journalDir := flag.String("journal", "", "coordinate mode: directory for the write-ahead epoch journal; a restarted coordinator resumes from it instead of re-auditing durable epochs")
	registerListen := flag.String("register-listen", "", "coordinate mode: address to accept worker self-registrations on (workers run -serve -register <this addr>)")
	register := flag.String("register", "", "worker mode: coordinator registration address to announce this worker to (redials with backoff if the coordinator restarts)")
	chaosHang := flag.Bool("chaos-hang", false, "worker mode: accept every job and never reply (fault-injection for drain and timeout testing)")
	archiveFlag := flag.String("archive", "auto", `disk archive to audit from: "auto" uses <dir>/archive when avm-run wrote one, "off" forces the flat files, anything else is an archive directory`)
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

	// Segments, snapshots and epoch jobs are read from the disk archive
	// when one is available: entry runs and increments come back verified
	// against the archived hashes, and the stream engine never
	// materializes the log at all.
	arc, err := openArchive(*dir, *archiveFlag)
	if err != nil {
		return fail("%v", err)
	}
	if arc != nil {
		defer arc.Close()
	}

	var nodes []string
	if *nodeFlag != "" {
		nodes = []string{*nodeFlag}
	} else {
		for n := range meta.Nodes {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
	}

	if *dispatch != "" {
		if *coordinate != "" {
			return fail("-dispatch and -coordinate name the same fleet; give one of them")
		}
		*coordinate, *localFallback = *dispatch, false
	}
	if *coordinate != "" || *registerListen != "" {
		var addrs []string
		for _, a := range strings.Split(*coordinate, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		return runCoordinated(arc, *dir, &meta, keys, nodes, addrs, *journalDir, *registerListen,
			*pipeline, *spot, *jobTimeout, *hedgeAfter, *localFallback, *delta, *nofusion)
	}

	faults := 0
	for _, node := range nodes {
		var compressed []byte
		if arc == nil {
			var err error
			compressed, err = os.ReadFile(filepath.Join(*dir, node+".log"))
			if err != nil {
				return fail("%v", err)
			}
		}
		var auths []tevlog.Authenticator
		authFile, err := os.Open(filepath.Join(*dir, node+".auths"))
		if err != nil {
			return fail("%v", err)
		}
		if err := gob.NewDecoder(authFile).Decode(&auths); err != nil {
			return fail("decoding %s authenticators: %v", node, err)
		}
		if err := authFile.Close(); err != nil {
			return fail("%v", err)
		}
		ref, err := referenceImage(&meta, node)
		if err != nil {
			return fail("%v", err)
		}
		a := &audit.Auditor{
			Keys: keys, RefImage: ref, RNGSeed: meta.RNGSeeds[node],
			TamperEvident: true, VerifySignatures: true,
			DisableFusion: *nofusion,
		}
		// Every mode routes through the unified Audit entry point: the
		// flags select an Engine and fill one AuditRequest.
		req := audit.AuditRequest{Node: sig.NodeID(node), NodeIdx: uint32(meta.Nodes[node])}
		start := time.Now()
		entryCount := 0
		switch {
		case *stream:
			// Streaming straight from the container — or, with an
			// archive, epoch segments verified and decoded from disk one
			// at a time; with persisted snapshots the stream router splits
			// epochs, otherwise it replays a single boot epoch — decode,
			// chain verification and replay still overlap, with at most
			// -window entries resident.
			var materialize func(snapIdx uint32) (*snapshot.Restored, error)
			var err error
			if arc != nil {
				req.Source, err = arc.EntrySource(node)
				if err != nil {
					return fail("%v", err)
				}
				materialize, _, err = archiveSnapshots(arc, node)
			} else {
				req.Compressed = compressed
				materialize, _, err = loadSnapshots(*dir, node)
			}
			if err != nil {
				return fail("%v", err)
			}
			req.Engine = audit.EngineStream
			req.Auths = auths
			req.Options = audit.EngineOptions{Window: *window, Materialize: materialize}
		default:
			entries, _, _, err := loadEntriesAndSnapshots(arc, *dir, node, compressed)
			if err != nil {
				return fail("%v", err)
			}
			entryCount = len(entries)
			req.Engine = audit.EngineSerial
			req.Entries, req.Auths = entries, auths
		}
		res, astats, err := a.Audit(req)
		if err != nil {
			return fail("auditing %s: %v", node, err)
		}
		if req.Engine == audit.EngineStream {
			entryCount = astats.Stream.Entries
		}
		wall := time.Since(start).Round(time.Millisecond)
		if res.Passed {
			fmt.Printf("%-10s PASSED in %-8v (%d entries, %d instructions replayed, %d sends matched)\n",
				node, wall, entryCount, res.Replay.Instructions, res.Replay.SendsMatched)
		} else {
			faults++
			fmt.Printf("%-10s FAULT  in %-8v — %s (%s check, entry %d)\n",
				node, wall, res.Fault.Detail, res.Fault.Check, res.Fault.EntrySeq)
		}
	}
	if faults > 0 {
		return exitFault
	}
	return exitClean
}

// nodeRecording is one node's loaded, chain-verified recording plus the
// auditor configured for it — everything the coordinator needs.
type nodeRecording struct {
	node        string
	idx         uint32
	entries     []tevlog.Entry
	auths       []tevlog.Authenticator
	auditor     *audit.Auditor
	materialize func(snapIdx uint32) (*snapshot.Restored, error)
	deltaSource func(k uint32) (*snapshot.Delta, error)
}

// loadNodeRecording reads and verifies one node's log, authenticators and
// snapshot store — epoch segments and increments from the archive when
// one is open, flat files otherwise.
func loadNodeRecording(arc *archive.Archive, dir string, meta *Meta, keys *sig.KeyStore, node string) (*nodeRecording, error) {
	var compressed []byte
	if arc == nil {
		var err error
		compressed, err = os.ReadFile(filepath.Join(dir, node+".log"))
		if err != nil {
			return nil, err
		}
	}
	entries, materialize, deltaSrc, err := loadEntriesAndSnapshots(arc, dir, node, compressed)
	if err != nil {
		return nil, err
	}
	var auths []tevlog.Authenticator
	authFile, err := os.Open(filepath.Join(dir, node+".auths"))
	if err != nil {
		return nil, err
	}
	if err := gob.NewDecoder(authFile).Decode(&auths); err != nil {
		authFile.Close()
		return nil, fmt.Errorf("decoding %s authenticators: %w", node, err)
	}
	if err := authFile.Close(); err != nil {
		return nil, err
	}
	ref, err := referenceImage(meta, node)
	if err != nil {
		return nil, err
	}
	return &nodeRecording{
		node: node, idx: uint32(meta.Nodes[node]),
		entries: entries, auths: auths, materialize: materialize, deltaSource: deltaSrc,
		auditor: &audit.Auditor{
			Keys: keys, RefImage: ref, RNGSeed: meta.RNGSeeds[node],
			TamperEvident: true, VerifySignatures: true,
		},
	}, nil
}

// runCoordinated audits every node concurrently through one long-running
// coordinator: a shared epoch queue, one multiplexed connection per
// worker, heartbeat liveness, pipelined dispatch, retry with backoff and
// straggler hedging. Workers may join, leave or crash mid-audit; with
// -local-fallback (the default) an empty fleet degrades to local replay.
func runCoordinated(arc *archive.Archive, dir string, meta *Meta, keys *sig.KeyStore, nodes, addrs []string, journalDir, registerListen string,
	pipeline int, spot float64, jobTimeout, hedgeAfter time.Duration, localFallback, delta, nofusion bool) int {
	recs := make([]*nodeRecording, 0, len(nodes))
	for _, node := range nodes {
		rec, err := loadNodeRecording(arc, dir, meta, keys, node)
		if err != nil {
			return fail("%v", err)
		}
		rec.auditor.DisableFusion = nofusion
		recs = append(recs, rec)
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
			res, dstats, err := coord.Audit(rec.auditor, sig.NodeID(rec.node), rec.idx, rec.entries, rec.auths,
				audit.DistOptions{EngineOptions: audit.EngineOptions{
					Materialize:         rec.materialize,
					DeltaSource:         rec.deltaSource,
					DeltaJobs:           delta,
					SpotRecheckFraction: spot,
					SpotRecheckSeed:     meta.Seed,
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
				rec.node, out.wall, len(rec.entries), out.res.Replay.Instructions, out.res.Replay.SendsMatched, extra)
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
