package audit

import (
	"errors"
	"testing"
)

// TestEpochMerge drives the earliest-fault merge the epoch engines share
// with explicit report sequences: no replay, no goroutine, no socket. An
// epoch's stats are its index plus one instructions, so a stat sum names
// the epochs it covered; a fault's detail names its epoch.
func TestEpochMerge(t *testing.T) {
	errLost := errors.New("connection lost")
	type op struct {
		epoch int
		fault bool  // record: a faulted outcome
		err   error // fail: a transport failure instead of an outcome
		instr uint64
	}
	ok := func(i int) op { return op{epoch: i, instr: uint64(i) + 1} }
	bad := func(i int) op { return op{epoch: i, fault: true, instr: uint64(i) + 1} }
	lost := func(i int) op { return op{epoch: i, err: errLost} }
	for _, tc := range []struct {
		name  string
		n     int
		ops   []op
		instr uint64 // merged stats: sum of instructions
		fault int    // epoch whose fault wins, -1 for a pass
		miss  int    // first missing epoch, -1 for none
		err   error  // transport error reported for it
		skip  []int  // epochs skip must rule out afterwards
		keep  []int  // epochs skip must not rule out afterwards
	}{
		{name: "out of order", n: 4, ops: []op{ok(3), ok(1), ok(0), ok(2)},
			instr: 1 + 2 + 3 + 4, fault: -1, miss: -1, keep: []int{0, 3, 9}},
		{name: "duplicate: first wins", n: 2, ops: []op{ok(0), bad(1), ok(1), {epoch: 0, instr: 100}},
			instr: 1 + 2, fault: 1, miss: -1, skip: []int{2}, keep: []int{1}},
		{name: "duplicate clean after fault keeps the fault", n: 3, ops: []op{bad(1), ok(1), ok(0), ok(2)},
			instr: 1 + 2, fault: 1, miss: -1, skip: []int{2}},
		{name: "fault then lower fault", n: 5, ops: []op{bad(3), ok(4), ok(0), bad(1), ok(2)},
			instr: 1 + 2, fault: 1, miss: -1, skip: []int{2, 3, 4}, keep: []int{0, 1}},
		{name: "lower fault first: a higher one does not raise the cutoff", n: 4, ops: []op{ok(0), bad(1), bad(2)},
			instr: 1 + 2, fault: 1, miss: -1, skip: []int{2}},
		{name: "stat sum stops at the cutoff", n: 6, ops: []op{ok(0), ok(1), ok(2), bad(3), ok(4), ok(5)},
			instr: 1 + 2 + 3 + 4, fault: 3, miss: -1, skip: []int{4, 5}},
		{name: "transport error below the cutoff is missing", n: 4, ops: []op{ok(0), lost(1), ok(2), bad(3)},
			fault: -1, miss: 1, err: errLost},
		{name: "transport error above the cutoff is ignored", n: 4, ops: []op{ok(0), bad(1), lost(2), lost(3)},
			instr: 1 + 2, fault: 1, miss: -1},
		{name: "transport error then an outcome", n: 2, ops: []op{lost(1), ok(0), ok(1)},
			instr: 1 + 2, fault: -1, miss: -1},
		{name: "outcome then a late transport error", n: 2, ops: []op{ok(0), ok(1), lost(1)},
			instr: 1 + 2, fault: -1, miss: -1},
		{name: "no report at all", n: 3, ops: []op{ok(0), ok(2)},
			fault: -1, miss: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newEpochMerge()
			for _, o := range tc.ops {
				if o.err != nil {
					m.fail(o.epoch, o.err)
					continue
				}
				r := epochResult{stats: ReplayStats{Instructions: o.instr}}
				if o.fault {
					r.fault = &FaultReport{Check: CheckSemantic, Detail: string(rune('a' + o.epoch))}
				}
				m.record(o.epoch, r)
			}
			stats, fault, miss, err := m.verdict(tc.n)
			if miss != tc.miss || err != tc.err {
				t.Fatalf("missing epoch %d (error %v), want %d (error %v)", miss, err, tc.miss, tc.err)
			}
			if stats.Instructions != tc.instr {
				t.Errorf("merged %d instructions, want %d", stats.Instructions, tc.instr)
			}
			switch {
			case tc.fault < 0 && fault != nil:
				t.Errorf("fault %+v, want a pass", fault)
			case tc.fault >= 0 && (fault == nil || fault.Detail != string(rune('a'+tc.fault))):
				t.Errorf("fault %+v, want epoch %d's", fault, tc.fault)
			}
			for _, i := range tc.skip {
				if !m.skip(i) {
					t.Errorf("skip(%d) = false past the cutoff", i)
				}
			}
			for _, i := range tc.keep {
				if m.skip(i) {
					t.Errorf("skip(%d) = true at or below the cutoff", i)
				}
			}
		})
	}
}
