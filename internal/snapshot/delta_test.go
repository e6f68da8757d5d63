package snapshot

import (
	"bytes"
	"testing"

	"repro/internal/merkle"
	"repro/internal/vm"
)

// takeSequence records n+1 snapshots of a machine that dirties a few pages
// between captures, returning the store.
func takeSequence(t *testing.T, n int) (*Store, *vm.Machine) {
	t.Helper()
	m := newTestMachine(t)
	st := NewStore(len(m.Mem))
	if _, err := st.Take(m, []byte("dev0"), []byte("auth0")); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		for _, p := range []int{k % 8, (3 * k) % 8} {
			if err := m.Store32(uint32(p*vm.PageSize+4*k), uint32(0x1000*k+p)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Take(m, []byte{byte('d'), byte(k)}, []byte{byte('a'), byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	return st, m
}

func TestDeltaApplyMatchesMaterialize(t *testing.T) {
	st, _ := takeSequence(t, 4)
	base, err := st.Materialize(0)
	if err != nil {
		t.Fatal(err)
	}
	cur := base
	for k := 1; k < st.Count(); k++ {
		d, err := st.Delta(k)
		if err != nil {
			t.Fatal(err)
		}
		next, err := ApplyDelta(cur, d)
		if err != nil {
			t.Fatalf("ApplyDelta(%d): %v", k, err)
		}
		want, err := st.Materialize(k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(next.Mem, want.Mem) {
			t.Fatalf("delta %d: memory differs from materialized", k)
		}
		if next.Root != want.Root {
			t.Fatalf("delta %d: root differs", k)
		}
		if err := VerifyRestored(next, want.Root); err != nil {
			t.Fatalf("delta %d: restored state fails verification: %v", k, err)
		}
		// Base must be untouched: re-verify it against its own root.
		if err := VerifyRestored(cur, cur.Root); err != nil {
			t.Fatalf("delta %d mutated its base: %v", k, err)
		}
		cur = next
	}
}

func TestDeltaDetectsTampering(t *testing.T) {
	st, _ := takeSequence(t, 2)
	base, err := st.Materialize(0)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *Delta {
		d, err := st.Delta(1)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if _, err := ApplyDelta(base, fresh()); err != nil {
		t.Fatalf("untampered delta rejected: %v", err)
	}

	d := fresh()
	d.Pages[0].Data = append([]byte(nil), d.Pages[0].Data...)
	d.Pages[0].Data[7] ^= 1
	if _, err := ApplyDelta(base, d); err == nil {
		t.Fatal("tampered page data accepted")
	}

	d = fresh()
	d.Machine = append([]byte(nil), d.Machine...)
	d.Machine[0] ^= 1
	if _, err := ApplyDelta(base, d); err == nil {
		t.Fatal("tampered machine blob accepted")
	}

	d = fresh()
	d.FromMemRoot[0] ^= 1
	if _, err := ApplyDelta(base, d); err == nil {
		t.Fatal("tampered previous mem root accepted")
	}

	d = fresh()
	d.ToRoot[0] ^= 1
	if _, err := ApplyDelta(base, d); err == nil {
		t.Fatal("tampered next root accepted")
	}

	// Wrong base snapshot index.
	d = fresh()
	wrong := *base
	wrong.Index = 1
	if _, err := ApplyDelta(&wrong, d); err == nil {
		t.Fatal("mismatched base index accepted")
	}
}

// TestDeltaRebuildsStrippedProof: increments recorded before proof capture
// carry no fold proof, and DeltaFrom rebuilds it by materializing the base
// state; the rebuilt delta applies and reproduces the materialized state.
func TestDeltaRebuildsStrippedProof(t *testing.T) {
	st, _ := takeSequence(t, 3)
	src := incs{mem: st.MemSize()}
	for k := range st.Count() {
		s, err := st.Snapshot(k)
		if err != nil {
			t.Fatal(err)
		}
		stripped := *s
		stripped.Proof = merkle.BatchProof{}
		src.snaps = append(src.snaps, &stripped)
	}
	base, err := MaterializeFrom(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DeltaFrom(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	next, err := ApplyDelta(base, d)
	if err != nil {
		t.Fatalf("rebuilt-proof delta rejected: %v", err)
	}
	want, err := MaterializeFrom(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if next.Root != want.Root || !bytes.Equal(next.Mem, want.Mem) {
		t.Fatal("rebuilt-proof delta does not reproduce materialized state")
	}
}

func TestCostModel(t *testing.T) {
	st, _ := takeSequence(t, 2)
	c0, err := st.Cost(0)
	if err != nil {
		t.Fatal(err)
	}
	if c0.DirtyBytes != st.memSizeForTest() {
		t.Fatalf("boot cost dirty bytes = %d, want full state %d", c0.DirtyBytes, st.memSizeForTest())
	}
	if c0.Instructions != 0 {
		t.Fatalf("boot cost instructions = %d, want 0", c0.Instructions)
	}
	c1, err := st.Cost(1)
	if err != nil {
		t.Fatal(err)
	}
	if c1.DirtyBytes <= 0 || c1.DirtyBytes >= c0.DirtyBytes {
		t.Fatalf("epoch cost dirty bytes = %d, want within (0,%d)", c1.DirtyBytes, c0.DirtyBytes)
	}
	d, err := st.Delta(1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cost != c1 {
		t.Fatalf("delta cost %+v != store cost %+v", d.Cost, c1)
	}
	if d.DeltaBytes() >= st.memSizeForTest() {
		t.Fatalf("delta bytes %d not smaller than full state %d", d.DeltaBytes(), st.memSizeForTest())
	}
}
