package audit_test

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/snapshot"
	"repro/internal/wire"
)

// A worker connection keeps the replica a run's last job ended on and rolls
// it through the next job's delta chain. These tests feed a connection with
// no socket and no clock the jobs of a recorded run, shipped as the
// scheduler ships them — the first job of a run on the connection in full,
// every later one as a chain from where the last one ended — and hold every
// verdict to the epoch replayed from scratch.

// rollRun is one recorded run, cut into the jobs a coordinator ships.
type rollRun struct {
	sess    audit.Session
	jobs    []*audit.EpochJob
	deltas  func(k uint32) (*snapshot.Delta, error)
	scratch []audit.WorkerAnswer
}

func newRollRun(t *testing.T) *rollRun {
	t.Helper()
	s := deltaScenario(t, "")
	target, _, a, err := s.AuditInputs("player1")
	if err != nil {
		t.Fatal(err)
	}
	materialize := func(k uint32) (*snapshot.Restored, error) { return target.Snaps.Materialize(int(k)) }
	r := &rollRun{deltas: func(k uint32) (*snapshot.Delta, error) { return target.Snaps.Delta(int(k)) }}
	if r.sess, r.jobs, err = a.WorkerJobs("player1", target.Log.Entries(), materialize); err != nil {
		t.Fatal(err)
	}
	if len(r.jobs) < 8 {
		t.Fatalf("need at least 8 epochs to cut the orders from, have %d", len(r.jobs))
	}
	for _, job := range r.jobs {
		stats, fault := audit.ReplayFromScratch(r.sess, job)
		r.scratch = append(r.scratch, audit.WorkerAnswer{Stats: stats, Fault: fault})
	}
	return r
}

// TestRunKeyPinned: a coordinator's journal keys a run by its jobs
// (runKeyFor: index, start identity, entry count and cost of each), so the
// router must cut a recording into exactly the jobs earlier builds cut it
// into, or a journal an earlier binary wrote would not resume. The constant
// is the key of deltaScenario's player1 run (ten jobs, the last a tail)
// computed before the cut moved into the stream router.
func TestRunKeyPinned(t *testing.T) {
	const want = "2df81291fed0a6be8dfcd5af3822a1df4d2608a7c21a73da7520165e4be5a572"
	s := deltaScenario(t, "")
	target, _, a, err := s.AuditInputs("player1")
	if err != nil {
		t.Fatal(err)
	}
	materialize := func(k uint32) (*snapshot.Restored, error) { return target.Snaps.Materialize(int(k)) }
	sess, jobs, err := a.WorkerJobs("player1", target.Log.Entries(), materialize)
	if err != nil {
		t.Fatal(err)
	}
	if key := audit.RunKey(sess, jobs); hex.EncodeToString(key[:]) != want {
		t.Fatalf("run key %x over %d jobs, want %s", key, len(jobs), want)
	}
}

// end is the snapshot job i closes at, where its replica rests: the start of
// job i+1.
func (r *rollRun) end(i int) (uint32, [32]byte) {
	return r.jobs[i+1].StartSnap, r.jobs[i+1].StartRoot
}

// delta is job i shipped as a chain from where job prev ends.
func (r *rollRun) delta(t *testing.T, i, prev int) *wire.AuditDeltaJob {
	t.Helper()
	snap, root := r.end(prev)
	dj, err := audit.DeltaJob(r.deltas, r.jobs[i], snap, root)
	if err != nil {
		t.Fatal(err)
	}
	return dj
}

// connection returns a worker connection with the run registered as
// session 1.
func (r *rollRun) connection(t *testing.T) *audit.TestWorker {
	t.Helper()
	w := audit.NewTestWorker()
	if err := w.Register(1, r.sess); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkerConnRollEquivalence: whatever order a connection receives a
// run's jobs in — its whole block, a block and then the back half of
// another's, a jump over several epochs — every delta job is rolled, none
// needs the state, and every verdict is the from-scratch replay's.
func TestWorkerConnRollEquivalence(t *testing.T) {
	r := newRollRun(t)
	n := len(r.jobs)
	span := func(lo, hi int) []int {
		var s []int
		for i := lo; i < hi; i++ {
			s = append(s, i)
		}
		return s
	}
	m := n / 4
	stolen := m + (n-m)/2
	for _, order := range []struct {
		name string
		jobs []int
	}{
		{"block", span(0, n)},
		{"stolen back half", append(span(0, m), span(stolen, n)...)},
		{"gap", append(span(0, 3), span(6, n)...)},
	} {
		w := r.connection(t)
		steps := 0
		for k, i := range order.jobs {
			var got audit.WorkerAnswer
			if k == 0 {
				got = w.Full(t, 1, r.jobs[i])
			} else {
				dj := r.delta(t, i, order.jobs[k-1])
				steps = max(steps, len(dj.Steps))
				got = w.Delta(t, 1, dj)
			}
			if got.NeedState {
				t.Fatalf("%s: epoch %d: the worker asked for the state it should hold", order.name, i)
			}
			if !reflect.DeepEqual(got, r.scratch[i]) {
				t.Fatalf("%s: epoch %d: rolled verdict %+v, from scratch %+v", order.name, i, got, r.scratch[i])
			}
		}
		if order.name != "block" && steps < 2 {
			t.Fatalf("%s: no chain longer than one step was shipped", order.name)
		}
		if w.Held() != 0 {
			t.Fatalf("%s: the tail epoch, which ends at no snapshot, left a replica", order.name)
		}
	}
}

// TestWorkerConnRejectsDoctoredChains: a chain that does not lead from the
// replica the worker holds to the state the log committed — a flipped page,
// a flipped register or device blob, a step's claimed root, a base root, a
// start root —
// is the snapshot-check fault before any replay work, and leaves the worker
// without a replica, so the run's next delta job gets need-state. So does a
// delta job for a session id registered again.
func TestWorkerConnRejectsDoctoredChains(t *testing.T) {
	r := newRollRun(t)
	const from, to = 1, 5 // job 5 chains from the end of job 1: three steps
	for _, tc := range []struct {
		name, detail string
		doctor       func(dj *wire.AuditDeltaJob)
	}{
		{"flipped page", "delta step 1/", func(dj *wire.AuditDeltaJob) {
			pages := dj.Steps[0].PageData
			if len(pages) == 0 || len(pages[0]) == 0 {
				t.Fatal("the first step carries no page to flip")
			}
			pages[0][0] ^= 0xFF
		}},
		{"flipped machine blob", "delta step 2/", func(dj *wire.AuditDeltaJob) { dj.Steps[1].Machine[0] ^= 0xFF }},
		{"flipped device blob", "delta step 3/", func(dj *wire.AuditDeltaJob) { dj.Steps[2].AuthDevice[0] ^= 0xFF }},
		{"wrong ToRoot", "delta step 1/", func(dj *wire.AuditDeltaJob) { dj.Steps[0].ToRoot[0] ^= 0xFF }},
		{"wrong BaseRoot", "delta base root", func(dj *wire.AuditDeltaJob) { dj.BaseRoot[0] ^= 0xFF }},
		{"wrong StartRoot", "delta chain ends", func(dj *wire.AuditDeltaJob) { dj.StartRoot[0] ^= 0xFF }},
	} {
		w := r.connection(t)
		for k, i := range []int{0, from} {
			var got audit.WorkerAnswer
			if k == 0 {
				got = w.Full(t, 1, r.jobs[i])
			} else {
				got = w.Delta(t, 1, r.delta(t, i, 0))
			}
			if got.NeedState || got.Fault != nil {
				t.Fatalf("%s: honest epoch %d: %+v", tc.name, i, got)
			}
		}
		dj := r.delta(t, to, from)
		if len(dj.Steps) != to-from-1 {
			t.Fatalf("%s: the chain has %d steps, want %d", tc.name, len(dj.Steps), to-from-1)
		}
		tc.doctor(dj)
		got := w.Delta(t, 1, dj)
		if got.NeedState || got.Fault == nil || got.Fault.Check != audit.CheckSnapshot || !strings.Contains(got.Fault.Detail, tc.detail) {
			t.Fatalf("%s: answered %+v (fault %+v), want a snapshot-check fault naming %q", tc.name, got, got.Fault, tc.detail)
		}
		if got.Stats != (audit.ReplayStats{}) {
			t.Fatalf("%s: the worker replayed a doctored chain: %+v", tc.name, got.Stats)
		}
		if next := w.Delta(t, 1, r.delta(t, to+1, to)); !next.NeedState {
			t.Fatalf("%s: after the faulted epoch the worker answered %+v, want need-state", tc.name, next)
		}
	}

	// A session id registered again starts without a replica.
	w := r.connection(t)
	if got := w.Full(t, 1, r.jobs[0]); got.Fault != nil {
		t.Fatalf("honest boot epoch: %+v", got.Fault)
	}
	if err := w.Register(1, r.sess); err != nil {
		t.Fatal(err)
	}
	if got := w.Delta(t, 1, r.delta(t, 1, 0)); !got.NeedState {
		t.Fatalf("a delta job after the session was registered again was answered %+v, want need-state", got)
	}
}
