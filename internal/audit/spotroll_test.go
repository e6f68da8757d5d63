package audit_test

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/audit"
	"repro/internal/avmm"
	"repro/internal/dbapp"
	"repro/internal/game"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
)

// A spot check keeps its replicas between picks and rolls them forward by
// the increments in between. These tests hold that pass against one that
// does nothing of the kind: every pick through Chunk, a full start state, a
// new replica.

// chunkSource is what the from-scratch pass asks a source for: its snapshot
// points and whole chunks, start state included.
type chunkSource interface {
	Segments() ([]audit.SnapshotPoint, error)
	Chunk(from, k int) (audit.ChunkRequest, error)
}

// chunked is src as the from-scratch pass asks it: an ArchiveSource through
// its own Chunk, any other source through its Window with the state its
// increments fold to at the window's start.
func chunked(src audit.SegmentSource) chunkSource {
	if c, ok := src.(chunkSource); ok {
		return c
	}
	return windowChunks{src}
}

// windowChunks is Chunk for a source that has only Window and increments.
type windowChunks struct{ audit.SegmentSource }

func (w windowChunks) Chunk(from, k int) (audit.ChunkRequest, error) {
	req, err := w.Window(from, k)
	if err != nil {
		return audit.ChunkRequest{}, err
	}
	pts, err := w.Segments()
	if err == nil {
		req.Start, err = snapshot.MaterializeFrom(w.IncrementSource(), int(pts[from].SnapIdx))
	}
	if err != nil {
		return audit.ChunkRequest{}, err
	}
	return req, nil
}

// scratchSpotCheck pins the spot check as it was before replicas were kept
// (commit 68fb5eb) and before chunks were assembled ahead (commit 8fa6660):
// every pick is assembled through Chunk and audited from scratch by the chunk
// engine, in turn, stopping at the first source error or fault. It returns
// the outcome and the Result of every pick it audited. It is a copy, not a
// caller, of the production loop, so a change there cannot move the oracle.
func scratchSpotCheck(a *audit.Auditor, src chunkSource, policy audit.SpotPolicy) (*audit.SpotCheckOutcome, []*audit.Result, error) {
	pts, err := src.Segments()
	if err != nil {
		return nil, nil, err
	}
	nSegments := max(len(pts)-1, 0)
	out := &audit.SpotCheckOutcome{SegmentsTotal: nSegments}
	var picks []int
	for _, idx := range policy.Pick(nSegments) {
		if idx >= 0 && idx < nSegments {
			picks = append(picks, idx)
		}
	}
	var results []*audit.Result
	for i, pick := range picks {
		req, err := src.Chunk(pick, 1)
		if err != nil {
			return nil, results, err
		}
		res, _, err := a.Audit(audit.AuditRequest{Node: req.Node, NodeIdx: req.NodeIdx, Engine: audit.EngineChunk, Chunk: &req})
		if err != nil {
			return nil, results, err
		}
		results = append(results, res)
		if !res.Passed {
			out.SegmentsChecked = i + 1
			out.FaultFound = true
			out.FirstFault = res.Fault
			return out, results, nil
		}
	}
	out.SegmentsChecked = len(picks)
	return out, results, nil
}

// fixedPicks is a policy that returns the picks it was given.
type fixedPicks []int

func (p fixedPicks) Pick(n int) []int { return p }

// reversed turns a policy's picks around: RecentFirst reversed is a
// descending pass, every pick starting before the one before it.
type reversed struct{ audit.SpotPolicy }

func (p reversed) Pick(n int) []int {
	picks := slices.Clone(p.SpotPolicy.Pick(n))
	slices.Reverse(picks)
	return picks
}

// spoiler spoils what a probe hands out: segments in fail return an error
// instead of a chunk or window, segments in fault come back with a start
// root that is not the state's, which the chunk audit reports as a snapshot
// fault.
type spoiler struct{ fail, fault map[int]bool }

func (s spoiler) spoil(from int, read func() (audit.ChunkRequest, error)) (audit.ChunkRequest, error) {
	if s.fail[from] {
		return audit.ChunkRequest{}, fmt.Errorf("probe: segment %d is unreadable", from)
	}
	req, err := read()
	if err == nil && s.fault[from] {
		req.StartRoot[0] ^= 0x80
	}
	return req, err
}

// probeSource spoils the chunks of the source under it for the from-scratch
// pass, as rollProbe spoils the windows of the pass that rolls, and counts
// the chunks asked for.
type probeSource struct {
	chunkSource
	spoiler
	calls int
}

func (p *probeSource) Chunk(from, k int) (audit.ChunkRequest, error) {
	p.calls++
	return p.spoil(from, func() (audit.ChunkRequest, error) { return p.chunkSource.Chunk(from, k) })
}

// rollProbe spoils the windows of the source under it and records what the
// pass asks of it: windows, and the increments read from the increment
// source it hands out.
type rollProbe struct {
	audit.SegmentSource
	spoiler
	incs countingIncrements // the source's increments, as the pass reads them

	mu         sync.Mutex
	windows    []int // Window calls, in call order
	goroutines int   // the highest runtime.NumGoroutine seen inside Window
}

func newRollProbe(src audit.SegmentSource, s spoiler) *rollProbe {
	p := &rollProbe{SegmentSource: src, spoiler: s}
	p.incs.IncrementSource = src.IncrementSource()
	return p
}

func (p *rollProbe) Window(from, k int) (audit.ChunkRequest, error) {
	p.mu.Lock()
	p.windows = append(p.windows, from)
	p.goroutines = max(p.goroutines, runtime.NumGoroutine())
	p.mu.Unlock()
	return p.spoil(from, func() (audit.ChunkRequest, error) { return p.SegmentSource.Window(from, k) })
}

func (p *rollProbe) IncrementSource() snapshot.IncrementSource { return &p.incs }

// asked is the number of calls the probe has seen.
func (p *rollProbe) asked() int {
	p.mu.Lock()
	n := len(p.windows)
	p.mu.Unlock()
	p.incs.mu.Lock()
	defer p.incs.mu.Unlock()
	for _, reads := range p.incs.asked {
		n += reads
	}
	return n
}

// countingIncrements counts the increments a source is asked for.
type countingIncrements struct {
	snapshot.IncrementSource
	mu    sync.Mutex
	asked map[int]int
}

func (c *countingIncrements) Increment(k int) (*snapshot.Snapshot, error) {
	c.mu.Lock()
	if c.asked == nil {
		c.asked = make(map[int]int)
	}
	c.asked[k]++
	c.mu.Unlock()
	return c.IncrementSource.Increment(k)
}

// spoiltIncrements hands out the increments of the source under it, except
// that asking for one in bad is an error, and the pages of one in short come
// without their trailing zero bytes.
type spoiltIncrements struct {
	snapshot.IncrementSource
	bad, short map[int]bool
}

func (s spoiltIncrements) Increment(k int) (*snapshot.Snapshot, error) {
	if s.bad[k] {
		return nil, fmt.Errorf("spoilt: increment %d fails verification", k)
	}
	inc, err := s.IncrementSource.Increment(k)
	if err != nil || !s.short[k] {
		return inc, err
	}
	cut := *inc
	cut.MemPages = make(map[int][]byte, len(inc.MemPages))
	for p, page := range inc.MemPages {
		cut.MemPages[p] = bytes.TrimRight(page, "\x00")
	}
	return &cut, nil
}

// spotRecording is one node's recording as the spot-check tests use it: the
// auditor, and fresh sources over the monitor's memory and over an archive
// of it.
type spotRecording struct {
	name    string
	a       *audit.Auditor
	node    sig.NodeID
	nodeIdx uint32
	entries []tevlog.Entry
	auths   []tevlog.Authenticator
	snaps   *snapshot.Store
	arc     *archive.Archive
	dir     string
	// incOff[k] is the offset of increment k's payload in the node's tile.
	incOff []int64
}

// archiveRecording writes the recording into a fresh archive, one increment
// at a time so that each one's place in the tile is known.
func (r *spotRecording) archiveRecording(t *testing.T) {
	t.Helper()
	r.dir = t.TempDir()
	arc, err := archive.Open(r.dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { arc.Close() })
	sf := r.snaps.File()
	tile := filepath.Join(r.dir, string(r.node)+archive.TileSuffix)
	for k := range sf.Snaps {
		var size int64
		if fi, err := os.Stat(tile); err == nil {
			size = fi.Size()
		}
		r.incOff = append(r.incOff, size)
		prefix := snapshot.StoreFile{MemSize: sf.MemSize, Snaps: sf.Snaps[:k+1]}
		if err := arc.WriteRecording(string(r.node), nil, &prefix); err != nil {
			t.Fatal(err)
		}
	}
	if err := arc.WriteRecording(string(r.node), r.entries, &sf); err != nil {
		t.Fatal(err)
	}
	r.arc = arc
}

// monitor is a fresh MonitorSource.
func (r *spotRecording) monitor() *audit.MonitorSource {
	return &audit.MonitorSource{
		Node: r.node, NodeIdx: r.nodeIdx, Entries: r.entries, Auths: r.auths,
		Increments: r.snaps,
	}
}

// archived is a fresh ArchiveSource.
func (r *spotRecording) archived() *audit.ArchiveSource {
	return &audit.ArchiveSource{Arc: r.arc, Node: r.node, NodeIdx: r.nodeIdx, Auths: r.auths}
}

// sources are the two, by name.
func (r *spotRecording) sources() map[string]func() audit.SegmentSource {
	return map[string]func() audit.SegmentSource{
		"monitor": func() audit.SegmentSource { return r.monitor() },
		"archive": func() audit.SegmentSource { return r.archived() },
	}
}

func dbappRecording(t *testing.T) *spotRecording {
	t.Helper()
	s, err := dbapp.NewScenario(dbapp.ScenarioConfig{
		Mode: avmm.ModeAVMMNoSig, Seed: 13, SnapshotEveryNs: 2_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(24_000_000_000)
	auths, err := s.ServerAuths()
	if err != nil {
		t.Fatal(err)
	}
	r := &spotRecording{
		name: "dbapp", a: s.Auditor(), node: "db-server", nodeIdx: 0,
		entries: s.Server.Log.All(), auths: auths, snaps: s.Server.Snaps,
	}
	r.archiveRecording(t)
	return r
}

func gameScenario(t *testing.T, cfg game.ScenarioConfig, runNs uint64) *game.Scenario {
	t.Helper()
	s, err := game.NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(runNs)
	return s
}

func gameRecording(t *testing.T, s *game.Scenario, node sig.NodeID) *spotRecording {
	t.Helper()
	target, auths, a, err := s.AuditInputs(node)
	if err != nil {
		t.Fatal(err)
	}
	// A chunk ends at a snapshot entry: the machine's snapshot commitments
	// are the authenticators that cover those.
	auths = append(auths, target.SnapshotAuths()...)
	r := &spotRecording{
		name: "game", a: a, node: node, nodeIdx: uint32(target.Index()),
		entries: target.Log.All(), auths: auths, snaps: target.Snaps,
	}
	r.archiveRecording(t)
	return r
}

// sameSpotCheck fails the test unless a pass reported what the from-scratch
// pass reports: error text, outcome, and the Result of every pick up to the
// one that stopped it.
func sameSpotCheck(t *testing.T, label string, got *audit.SpotCheckOutcome, gotRes []*audit.Result, gotErr error, want *audit.SpotCheckOutcome, wantRes []*audit.Result, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, the from-scratch pass returns %v", label, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: outcome %+v, the from-scratch pass reports %+v", label, got, want)
	}
	if gotErr != nil {
		return
	}
	if len(gotRes) < len(wantRes) {
		t.Fatalf("%s: %d picks audited, the from-scratch pass audits %d", label, len(gotRes), len(wantRes))
	}
	for i, w := range wantRes {
		if !reflect.DeepEqual(gotRes[i], w) {
			t.Fatalf("%s: pick %d: result %+v (fault %+v), from scratch %+v (fault %+v)", label, i, gotRes[i], gotRes[i].Fault, w, w.Fault)
		}
	}
}

// atProcs runs fn with GOMAXPROCS set to procs.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestSpotRollMatchesFromScratch: over honest logs of both guests, on both
// sources, for policies whose picks are adjacent, apart, descending,
// repeated and sampled, with 1, 2 and 4 workers at 1 and 4 Ps, the pass
// that rolls reports the outcome and every pick's Result of the pass that
// audits every pick from scratch.
func TestSpotRollMatchesFromScratch(t *testing.T) {
	recs := []*spotRecording{
		dbappRecording(t),
		gameRecording(t, gameScenario(t, game.ScenarioConfig{
			Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
			Seed: 7, SnapshotEveryNs: eqSnapNs / 2, FakeSignatures: true,
		}, 2*eqMatchNs), "player1"),
	}
	all := audit.RecentFirst{K: 1 << 30}
	policies := map[string]audit.SpotPolicy{
		"adjacent":   all,
		"apart":      fixedPicks{1, 4, 5, 8},
		"descending": reversed{all},
		"repeated":   fixedPicks{2, 2, 5, 3, 3, 8, 8, 1},
		"sampled":    audit.InitializationPlus{Rest: audit.RandomSample{Fraction256: 180, Seed: 11}},
	}
	for _, rec := range recs {
		for srcName, newSource := range rec.sources() {
			for polName, policy := range policies {
				want, wantRes, wantErr := scratchSpotCheck(rec.a, chunked(newSource()), policy)
				if wantErr != nil || want.FaultFound || want.SegmentsChecked < 4 {
					t.Fatalf("%s/%s/%s: the from-scratch pass over an honest log: %+v, %v", rec.name, srcName, polName, want, wantErr)
				}
				for _, procs := range []int{1, 4} {
					for _, workers := range []int{1, 2, 4} {
						label := fmt.Sprintf("%s/%s/%s/P%d/workers%d", rec.name, srcName, polName, procs, workers)
						atProcs(procs, func() {
							got, gotRes, gotErr := rec.a.SpotCheckResults(newSource(), policy, workers)
							sameSpotCheck(t, label, got, gotRes, gotErr, want, wantRes, wantErr)
						})
					}
				}
			}
		}
	}
}

// TestSpotRollFoldsOnceUnderFullCoverage counts the increments a pass
// reads: with one worker it boots one replica, for its first pick, and folds
// that pick's start out of the increments at or below it, each read once;
// past that start it reads exactly the increments between one pick's end
// and the next pick's start, each once — under full coverage, every pick
// starting where the one before ended, none at all. (With a second P the
// assembler reads increment 0 and the increments of a roll ahead of the
// worker, which reads them again.)
func TestSpotRollFoldsOnceUnderFullCoverage(t *testing.T) {
	rec := dbappRecording(t)
	pts, err := rec.monitor().Segments()
	if err != nil {
		t.Fatal(err)
	}
	snap := func(p int) int { return int(pts[p].SnapIdx) }
	for _, tc := range []struct {
		name   string
		policy audit.SpotPolicy
	}{
		{"full coverage", audit.RecentFirst{K: 1 << 30}},
		{"every third", fixedPicks{2, 5, 8}},
	} {
		picks := tc.policy.Pick(len(pts) - 1)
		// The rolls: increments (end of pick i-1, start of pick i].
		rolled := make(map[int]int)
		for i := 1; i < len(picks); i++ {
			for k := snap(picks[i-1]+1) + 1; k <= snap(picks[i]); k++ {
				rolled[k]++
			}
		}
		first := snap(picks[0])
		for _, procs := range []int{1, 4} {
			atProcs(procs, func() {
				incs := &countingIncrements{IncrementSource: rec.snaps}
				src := rec.monitor()
				src.Increments = incs
				out, err := rec.a.SpotCheckParallel(src, tc.policy, 1)
				if err != nil || out.FaultFound || out.SegmentsChecked != len(picks) || len(picks) < 3 {
					t.Fatalf("%s/P%d: %+v, %v", tc.name, procs, out, err)
				}
				if incs.asked[first] == 0 {
					t.Fatalf("%s/P%d: the first pick's boot did not read increment %d (read: %v)", tc.name, procs, first, incs.asked)
				}
				past := make(map[int]int)
				for k, n := range incs.asked {
					switch {
					case k > first:
						past[k] = n
					case procs == 1 && n != 1:
						t.Fatalf("%s/P%d: the boot read increment %d %d times (read: %v)", tc.name, procs, k, n, incs.asked)
					}
				}
				if procs == 1 && !reflect.DeepEqual(past, rolled) {
					t.Fatalf("%s/P%d: read increments %v past the first start, the rolls need %v", tc.name, procs, past, rolled)
				}
				for k := range past {
					if rolled[k] == 0 {
						t.Fatalf("%s/P%d: read increment %d, which no roll needs (read: %v)", tc.name, procs, k, incs.asked)
					}
				}
			})
		}
	}
}

// TestSpotRollStageBounds: reading windows and increments ahead of the
// audit changes who asks the source and when, never what the spot check
// reports. Over an honest log, a flipped start root at a rolled pick, at a
// worker's first pick and at the last pick, and source errors before and
// after a fault, on both sources, with 1, 2 and 4 workers at 1 and 4 Ps,
// under full coverage (every pick adjacent to the one before) and with the
// picks swapped in pairs (1, 0, 3, 2, ...: every other pick starts before
// the one before it ended and boots, the rest roll over the increments of
// the segment skipped in between): outcome, error and Results are the
// from-scratch pass's; no window more than workers past the pick that stops
// the pass is asked for, none twice, and no increment is read that no boot
// or roll of an assembled pick needs; with one P every call is made in pick
// order on the caller's goroutine; nothing is asked of the source once the
// pass has returned and no goroutine outlives it.
func TestSpotRollStageBounds(t *testing.T) {
	rec := dbappRecording(t)
	pts, err := rec.monitor().Segments()
	if err != nil {
		t.Fatal(err)
	}
	nPicks := len(pts) - 1
	if nPicks < 10 {
		t.Fatalf("%d segments; the cases below name picks up to 9", nPicks)
	}
	snap := func(p int) int { return int(pts[p].SnapIdx) }
	swapped := make(fixedPicks, nPicks)
	for p := range swapped {
		swapped[p] = p ^ 1
	}
	if nPicks%2 == 1 {
		swapped[nPicks-1] = nPicks - 1
	}
	// Full coverage's subtests carry no policy in their names.
	policies := []struct {
		label  string
		policy audit.SpotPolicy
	}{
		{"", audit.RecentFirst{K: 1 << 30}},
		{"swapped pairs/", swapped},
	}
	set := func(xs ...int) map[int]bool {
		m := make(map[int]bool)
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	// The cases name picks by their place in the policy's order.
	cases := []struct {
		name        string
		fail, fault map[int]bool
		cutoff      int
	}{
		{"honest", nil, nil, nPicks - 1},
		{"flipped root at pick 0", nil, set(0), 0},
		{"flipped root at pick 3", nil, set(3), 3},
		{"flipped root at the last pick", nil, set(nPicks - 1), nPicks - 1},
		{"source error at pick 0", set(0), set(4), 0},
		{"source error at pick 2, flipped root at pick 5", set(2), set(5), 2},
		{"flipped root at pick 2, source error at pick 4", set(4), set(2), 2},
		{"flipped root at pick 6, source errors at picks 7 and 9", set(7, 9), set(6), 6},
	}
	for _, pol := range policies {
		picks := pol.policy.Pick(nPicks)
		if len(picks) != nPicks {
			t.Fatalf("%s: %d picks of %d segments", pol.label, len(picks), nPicks)
		}
		place := make(map[int]int) // segment -> its pick
		for i, p := range picks {
			place[p] = i
		}
		segments := func(m map[int]bool) map[int]bool {
			out := make(map[int]bool)
			for i := range m {
				out[picks[i]] = true
			}
			return out
		}
		for srcName, newSource := range rec.sources() {
			for _, tc := range cases {
				spoilt := spoiler{segments(tc.fail), segments(tc.fault)}
				// The oracle sees the same spoilt windows through Chunk alone.
				oracle := &probeSource{chunkSource: chunked(newSource()), spoiler: spoilt}
				want, wantRes, wantErr := scratchSpotCheck(rec.a, oracle, pol.policy)
				if got := oracle.calls; got != tc.cutoff+1 {
					t.Fatalf("%s%s/%s: the from-scratch pass asked for %d chunks, the case says it stops at pick %d", pol.label, srcName, tc.name, got, tc.cutoff)
				}
				for _, procs := range []int{1, 4} {
					for _, workers := range []int{1, 2, 4} {
						t.Run(fmt.Sprintf("%s%s/%s/P%d/workers%d", pol.label, srcName, tc.name, procs, workers), func(t *testing.T) {
							defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
							src := newRollProbe(newSource(), spoilt)
							before := runtime.NumGoroutine()
							got, gotRes, gotErr := rec.a.SpotCheckResults(src, pol.policy, workers)
							asked := src.asked()
							sameSpotCheck(t, "rolled", got, gotRes, gotErr, want, wantRes, wantErr)

							seen := make(map[int]bool)
							for _, from := range src.windows {
								if seen[from] {
									t.Fatalf("window %d assembled twice (calls %v)", from, src.windows)
								}
								seen[from] = true
								if place[from] > tc.cutoff+workers {
									t.Fatalf("window %d (pick %d) assembled; pick %d stops the pass and %d workers may hold %d picks and one ahead (calls %v)",
										from, place[from], tc.cutoff, workers, workers, src.windows)
								}
							}
							for i := 0; i <= tc.cutoff; i++ {
								if !seen[picks[i]] {
									t.Fatalf("pick %d, at or before the one that stops the pass, was never assembled (calls %v)", i, src.windows)
								}
							}
							// A boot folds the increments at or below its pick's
							// start, a roll those after the end of the pick
							// before, up to its start. With one worker only pick
							// 0 and a pick that starts before the one before it
							// ended boot (under full coverage, pick 0 alone);
							// with more, any assembled pick may.
							needed := func(k int) bool {
								for j := 0; j <= min(tc.cutoff+workers, nPicks-1); j++ {
									lo := -1
									if workers == 1 && j > 0 && picks[j-1]+1 <= picks[j] {
										lo = snap(picks[j-1] + 1)
									}
									if lo < k && k <= snap(picks[j]) {
										return true
									}
								}
								return false
							}
							for k := range src.incs.asked {
								if !needed(k) {
									t.Fatalf("increment %d read; pick %d stops the pass, and no boot or roll of a pick up to %d needs it (reads %v)", k, tc.cutoff, tc.cutoff+workers, src.incs.asked)
								}
							}
							if procs == 1 {
								want := picks[:tc.cutoff+1]
								if !reflect.DeepEqual(src.windows, want) {
									t.Fatalf("with one P windows were read for %v, the serial pass reads %v", src.windows, want)
								}
								if src.goroutines > before {
									t.Fatalf("with one P the pass ran with %d goroutines, %d before it", src.goroutines, before)
								}
							}
							deadline := time.Now().Add(2 * time.Second)
							for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
								time.Sleep(time.Millisecond)
							}
							if n := runtime.NumGoroutine(); n > before {
								t.Fatalf("%d goroutines after the pass, %d before it", n, before)
							}
							if after := src.asked(); after != asked {
								t.Fatalf("the source was asked %d more times after the pass returned", after-asked)
							}
						})
					}
				}
			}
		}
	}
}

// TestSpotRollCorruptIncrements: what a rolled pick reads, it verifies like
// a fold does, and what it does not read it cannot report. An unreadable
// increment inside (a, b] is the error the from-scratch fold of b returns;
// one at or below a, which the fold of b would have walked over, goes unseen
// by the rolled pick (pinned: the pass passes) and is the first pick's to
// find when it lies in its own fold. On the archive the increment is
// damaged on disk; on the monitor source it is an increment source that
// refuses it.
func TestSpotRollCorruptIncrements(t *testing.T) {
	rec := dbappRecording(t)
	// Picks 1 and 5: pick 1 folds snapshot 1 (increments 1, 0), the replica
	// then rests at 2 and rolls over increments 3, 4, 5.
	policy := fixedPicks{1, 5}
	tile := filepath.Join(rec.dir, string(rec.node)+archive.TileSuffix)
	flip := func(k int) {
		t.Helper()
		f, err := os.OpenFile(tile, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var b [1]byte
		off := rec.incOff[k] + 100
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x01
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		bad     int
		wantErr bool
	}{
		{"inside the roll", 4, true},
		{"the roll's last", 5, true},
		{"at the resting point", 2, false},
		{"in the first pick's fold", 0, true},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			for _, procs := range []int{1, 4} {
				atProcs(procs, func() {
					label := fmt.Sprintf("%s/P%d/workers%d", tc.name, procs, workers)
					spoilt := func() audit.SegmentSource {
						src := rec.monitor()
						src.Increments = spoiltIncrements{IncrementSource: rec.snaps, bad: map[int]bool{tc.bad: true}}
						return src
					}
					for name, newSource := range map[string]func() audit.SegmentSource{
						"monitor": spoilt,
						"archive": func() audit.SegmentSource { return rec.archived() },
					} {
						if name == "archive" {
							flip(tc.bad)
						}
						_, _, wantErr := scratchSpotCheck(rec.a, chunked(newSource()), policy)
						out, err := rec.a.SpotCheckParallel(newSource(), policy, workers)
						if name == "archive" {
							flip(tc.bad) // back
						}
						if wantErr == nil {
							t.Fatalf("%s/%s: the from-scratch pass read increment %d and returned no error", label, name, tc.bad)
						}
						// A worker's first pick folds from scratch, so with two
						// workers pick 5 may walk over the damage the way the
						// from-scratch pass does; with one it is always rolled.
						switch {
						case tc.wantErr && (err == nil || err.Error() != wantErr.Error()):
							t.Fatalf("%s/%s: error %v, the from-scratch fold returns %v", label, name, err, wantErr)
						case !tc.wantErr && workers == 1 && (err != nil || out.FaultFound || out.SegmentsChecked != 2):
							t.Fatalf("%s/%s: a rolled pick reads nothing at or below its resting point, yet: %+v, %v", label, name, out, err)
						case !tc.wantErr && err != nil && err.Error() != wantErr.Error():
							t.Fatalf("%s/%s: error %v, the from-scratch fold returns %v", label, name, err, wantErr)
						}
					}
				})
			}
		}
	}
}

// TestSpotRollTamperedStorePage: an in-memory Store's increments carry no
// Merkle leaves, so a boot's fold and a roll hash every page they write
// from the replica's memory, and a page changed in the Store after Take is
// a CheckSnapshot fault — on the first pick, whose boot folds it, and on a
// roll, which writes it. Picks 1 and 5 as in TestSpotRollCorruptIncrements:
// pick 1 boots at snapshot 1 (increments 1, 0) and rests at 2; with one
// worker, pick 5 is rolled over increments 3, 4, 5.
func TestSpotRollTamperedStorePage(t *testing.T) {
	rec := dbappRecording(t)
	for _, tc := range []struct {
		name        string
		k, picksRun int
	}{{"the first pick's boot", 1, 1}, {"a roll", 5, 2}} {
		snap, err := rec.snaps.Snapshot(tc.k)
		if err != nil || len(snap.MemPages) == 0 {
			t.Fatalf("%s: increment %d captures no page to tamper with (%v)", tc.name, tc.k, err)
		}
		page := snap.MemPages[slices.Min(slices.Collect(maps.Keys(snap.MemPages)))]
		for _, procs := range []int{1, 4} {
			atProcs(procs, func() {
				src := rec.monitor()
				page[0] ^= 0x01
				out, err := rec.a.SpotCheckParallel(src, fixedPicks{1, 5}, 1)
				page[0] ^= 0x01
				if err != nil || !out.FaultFound || out.SegmentsChecked != tc.picksRun || out.FirstFault.Check != audit.CheckSnapshot {
					t.Fatalf("%s/P%d: a page of increment %d changed after Take: %+v, %v; want a %s fault on pick %d",
						tc.name, procs, tc.k, out, err, audit.CheckSnapshot, tc.picksRun)
				}
			})
		}
	}
}

// coveringIncrements hands out the increments of the source under it, except
// that increment full captures every page of the state at full, as a full
// capture taken there would.
type coveringIncrements struct {
	snapshot.IncrementSource
	full int
}

func (c coveringIncrements) Increment(k int) (*snapshot.Snapshot, error) {
	inc, err := c.IncrementSource.Increment(k)
	if err != nil || k != c.full {
		return inc, err
	}
	st, err := snapshot.MaterializeFrom(c.IncrementSource, k)
	if err != nil {
		return nil, err
	}
	whole := *inc
	whole.MemPages = make(map[int][]byte)
	for p := 0; (p+1)*vm.PageSize <= len(st.Mem); p++ {
		whole.MemPages[p] = st.Mem[p*vm.PageSize : (p+1)*vm.PageSize]
	}
	return &whole, nil
}

// TestSpotRollFirstPickCoveredAboveIncrement0: when a newer increment
// covers every page, a first pick's boot never folds increment 0, and
// neither does the from-scratch pass. An increment 0 that fails verification
// is then no error of the pass, although with a second P the assembler asks
// for it ahead of the fold; with one P nothing asks for it at all.
func TestSpotRollFirstPickCoveredAboveIncrement0(t *testing.T) {
	rec := dbappRecording(t)
	pts, err := rec.monitor().Segments()
	if err != nil {
		t.Fatal(err)
	}
	// Pick 1 boots at a snapshot whose increment covers every page; pick 5
	// rolls there (one worker) or boots a second replica above it (two).
	policy := fixedPicks{1, 5}
	full := int(pts[1].SnapIdx)
	if full == 0 {
		t.Fatal("pick 1 starts at snapshot 0: the case needs a newer one")
	}
	mk := func() (audit.SegmentSource, *countingIncrements) {
		incs := &countingIncrements{IncrementSource: spoiltIncrements{
			IncrementSource: coveringIncrements{IncrementSource: rec.snaps, full: full},
			bad:             map[int]bool{0: true},
		}}
		src := rec.monitor()
		src.Increments = incs
		return src, incs
	}
	oracle, _ := mk()
	want, wantRes, wantErr := scratchSpotCheck(rec.a, chunked(oracle), policy)
	if wantErr != nil || want.FaultFound || want.SegmentsChecked != 2 {
		t.Fatalf("the from-scratch pass: %+v, %v", want, wantErr)
	}
	for _, procs := range []int{1, 4} {
		for _, workers := range []int{1, 2} {
			atProcs(procs, func() {
				label := fmt.Sprintf("P%d/workers%d", procs, workers)
				src, incs := mk()
				got, gotRes, gotErr := rec.a.SpotCheckResults(src, policy, workers)
				sameSpotCheck(t, label, got, gotRes, gotErr, want, wantRes, wantErr)
				if procs == 1 && incs.asked[0] != 0 {
					t.Fatalf("%s: increment 0 asked for %d times, no fold reaches it", label, incs.asked[0])
				}
			})
		}
	}
}

// TestSpotRollShortPages: an increment source that hands out pages without
// their trailing zero bytes — a page shorter than vm.PageSize stands for its
// bytes and a zero tail — gives the rolled pass the states it gives the
// fold. (No page of this recording loses a non-zero tail between two
// snapshots; TestSpotReplayAdvanceShortPage builds that case by hand.)
func TestSpotRollShortPages(t *testing.T) {
	rec := dbappRecording(t)
	short := make(map[int]bool)
	for k := 1; k < rec.snaps.Count(); k++ {
		short[k] = true
	}
	policy := fixedPicks{0, 3, 4, 9}
	mk := func() audit.SegmentSource {
		src := rec.monitor()
		src.Increments = spoiltIncrements{IncrementSource: rec.snaps, short: short}
		return src
	}
	want, wantRes, wantErr := scratchSpotCheck(rec.a, chunked(mk()), policy)
	if wantErr != nil || want.FaultFound {
		t.Fatalf("from scratch over short pages: %+v, %v", want, wantErr)
	}
	got, gotRes, gotErr := rec.a.SpotCheckResults(mk(), policy, 1)
	sameSpotCheck(t, "short pages", got, gotRes, gotErr, want, wantRes, wantErr)
}

// TestSpotRollCheats: over the cheater's log of all 26 catalog cheats, the
// pass that rolls reports the outcome and every pick's statistics exactly as
// the from-scratch pass does. A catalog cheat is installed before the first
// snapshot, so it is part of every start state and a spot check replays it
// faithfully (§3.5: only an audit from the reference image sees it); the
// replay fault inside an inspected window is TestSpotRollReplayFault's.
// (Honest logs, and the full grid of policies, workers and Ps, are
// TestSpotRollMatchesFromScratch's: 26 recordings under the race detector
// leave room for two passes each.)
func TestSpotRollCheats(t *testing.T) {
	if testing.Short() {
		t.Skip("26 matches; skipped in -short")
	}
	for _, cheat := range game.Catalog() {
		t.Run(cheat.Name, func(t *testing.T) {
			rec := gameRecording(t, gameScenario(t, game.ScenarioConfig{
				Players: 2, Mode: avmm.ModeAVMMRSA, Cost: avmm.DefaultCostModel(),
				Seed: 2024, CheatPlayer: 1, Cheat: cheat,
				SnapshotEveryNs: eqMatchNs / 6, FakeSignatures: true,
			}, eqMatchNs), "player1")
			for _, tc := range []struct {
				name      string
				newSource func() audit.SegmentSource
				policy    audit.SpotPolicy
				workers   []int
			}{
				{"monitor/adjacent", rec.sources()["monitor"], audit.RecentFirst{K: 1 << 30}, []int{1, 2}},
				{"archive/apart", rec.sources()["archive"], fixedPicks{0, 2, 3, 5}, []int{1}},
			} {
				want, wantRes, wantErr := scratchSpotCheck(rec.a, chunked(tc.newSource()), tc.policy)
				if wantErr != nil {
					t.Fatal(wantErr)
				}
				for _, workers := range tc.workers {
					got, gotRes, gotErr := rec.a.SpotCheckResults(tc.newSource(), tc.policy, workers)
					sameSpotCheck(t, fmt.Sprintf("%s/workers%d", tc.name, workers), got, gotRes, gotErr, want, wantRes, wantErr)
				}
			}
		})
	}
}

// TestSpotRollReplayFault: a code patch applied between two snapshots in the
// middle of the run (corruptServerAt) makes the replay of that segment
// diverge from the log. Under full coverage the pick that inspects it is a
// rolled one; fault, detail text, landmark and the statistics up to the
// divergence are the from-scratch pass's, and the pass stops there.
func TestSpotRollReplayFault(t *testing.T) {
	s, _ := corruptServerAt(t, 2_000_000_000, 7_500_000_000, 14_000_000_000)
	auths, err := s.ServerAuths()
	if err != nil {
		t.Fatal(err)
	}
	mk := func() audit.SegmentSource {
		return &audit.MonitorSource{
			Node: "db-server", Entries: s.Server.Log.All(), Auths: auths, Increments: s.Server.Snaps,
		}
	}
	a := s.Auditor()
	policy := audit.RecentFirst{K: 1 << 30}
	want, wantRes, wantErr := scratchSpotCheck(a, chunked(mk()), policy)
	if wantErr != nil || !want.FaultFound || want.SegmentsChecked < 3 || want.FirstFault.Check != audit.CheckSemantic {
		t.Fatalf("from scratch: %+v, %v; want a replay fault past the second pick", want, wantErr)
	}
	for _, procs := range []int{1, 4} {
		for _, workers := range []int{1, 2} {
			atProcs(procs, func() {
				got, gotRes, gotErr := a.SpotCheckResults(mk(), policy, workers)
				sameSpotCheck(t, fmt.Sprintf("P%d/workers%d", procs, workers), got, gotRes, gotErr, want, wantRes, wantErr)
			})
		}
	}
}

// TestSpotRollSelfModifyingCode: the replica a worker keeps has predecoded
// the guest's code page, and the guest of selfmod_test.go rewrites that page
// every iteration, so between the snapshot a replica rests at and the one the
// next pick starts from the page's bytes differ. Writing the increments
// through Machine.WriteBytes moves the page's stamp, and the rolled pass
// reaches the from-scratch verdict with predecode on, off, and with fusion
// off.
func TestSpotRollSelfModifyingCode(t *testing.T) {
	img := selfModImage()
	net := netsim.New(netsim.Config{BaseLatencyNs: 100_000, Seed: 3})
	keys := sig.NewKeyStore()
	w := avmm.NewWorld(net, keys)
	mon, err := avmm.NewMonitor(avmm.Config{
		Node: "selfmod", Index: 0, Mode: avmm.ModeAVMMNoSig,
		Signer: sig.NullSigner{Node: "selfmod"}, Keys: keys,
		Image: img, Net: net, RNGSeed: 5,
		SnapshotEveryNs: 40_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(mon); err != nil {
		t.Fatal(err)
	}
	if !w.RunUntil(w.AllHalted, 600_000_000_000) {
		t.Fatal("self-modifying guest did not halt")
	}
	head, err := mon.Log.LastAuthenticator()
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *audit.MonitorSource {
		return &audit.MonitorSource{
			Node: "selfmod", Entries: mon.Log.Entries(), Auths: append(mon.SnapshotAuths(), head),
			Increments: mon.Snaps,
		}
	}
	pts, err := mk().Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 6 {
		t.Fatalf("only %d snapshot points", len(pts))
	}
	// Every other segment, so that each rolled pick crosses one increment;
	// at least one of those must carry a code page that differs from the
	// one the replica holds.
	var picks fixedPicks
	differ := 0
	codePage := vm.CodeBase / vm.PageSize
	for p := 0; p+1 < len(pts); p += 2 {
		picks = append(picks, p)
		if p == 0 {
			continue
		}
		rest, err := mon.Snaps.Materialize(int(pts[p-1].SnapIdx))
		if err != nil {
			t.Fatal(err)
		}
		start, err := mon.Snaps.Materialize(int(pts[p].SnapIdx))
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := codePage*vm.PageSize, (codePage+1)*vm.PageSize
		if !bytes.Equal(rest.Mem[lo:hi], start.Mem[lo:hi]) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the code page is the same at every resting point and next start; the test would show nothing")
	}
	for name, a := range map[string]*audit.Auditor{
		"predecode":   {Keys: keys, RefImage: img, RNGSeed: 5, TamperEvident: true},
		"nopredecode": {Keys: keys, RefImage: img, RNGSeed: 5, TamperEvident: true, DisablePredecode: true},
		"nofusion":    {Keys: keys, RefImage: img, RNGSeed: 5, TamperEvident: true, DisableFusion: true},
	} {
		want, wantRes, wantErr := scratchSpotCheck(a, chunked(mk()), picks)
		if wantErr != nil || want.FaultFound || want.SegmentsChecked != len(picks) {
			t.Fatalf("%s: from scratch: %+v, %v", name, want, wantErr)
		}
		got, gotRes, gotErr := a.SpotCheckResults(mk(), picks, 1)
		sameSpotCheck(t, name, got, gotRes, gotErr, want, wantRes, wantErr)
	}
}

// TestSpotSourceRangeErrors: a request outside a source's snapshot points
// is an error, the same one from Window and Chunk of both sources, and never
// an index panic or an empty chunk; a spot check over a source that hands
// out no increments is an error too.
func TestSpotSourceRangeErrors(t *testing.T) {
	rec := dbappRecording(t)
	for name, newSource := range rec.sources() {
		src := newSource()
		whole := chunked(src)
		pts, err := src.Segments()
		if err != nil {
			t.Fatal(err)
		}
		n := len(pts)
		text := func(from, k int) string {
			return fmt.Sprintf("audit: segments [%d,%d+%d) outside the %d snapshot points of the log", from, from, k, n)
		}
		for _, tc := range []struct{ from, k int }{
			{99, 1}, {-1, 1}, {0, 99}, {0, 0}, {0, -1}, {n - 1, 1}, {n, 1}, {3, n - 3}, {1, int(^uint(0) >> 1)},
		} {
			for method, call := range map[string]func() error{
				"Chunk":  func() error { _, err := whole.Chunk(tc.from, tc.k); return err },
				"Window": func() error { _, err := src.Window(tc.from, tc.k); return err },
			} {
				if err := call(); err == nil || err.Error() != text(tc.from, tc.k) {
					t.Errorf("%s: %s(%d, %d): error %v, want %q", name, method, tc.from, tc.k, err, text(tc.from, tc.k))
				}
			}
		}
		// The edges that are requests for something.
		if req, err := whole.Chunk(n-2, 1); err != nil || req.Start == nil || len(req.Entries) == 0 {
			t.Errorf("%s: Chunk of the last segment: %v", name, err)
		}
		if req, err := whole.Chunk(0, n-1); err != nil || len(req.Entries) == 0 {
			t.Errorf("%s: Chunk of every segment: %v", name, err)
		}
	}
	plain := rec.monitor()
	plain.Increments = nil
	if out, err := rec.a.SpotCheckParallel(plain, audit.RecentFirst{K: 1}, 1); err == nil {
		t.Errorf("a spot check over a MonitorSource without Increments: %+v and no error", out)
	}
}
