package audit

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/snapshot"
	"repro/internal/tevlog"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Replay.Advance against the calls it stands in for. A replica that rests
// at snapshot a and is rolled over the increments (a, b] must hold what
// snapshot.MaterializeFrom(b) + LiveStateHasher.SeedVerify +
// NewReplayFromSnapshot make from scratch — memory, registers, device state,
// tree — and must refuse whatever those refuse.

// advancePages is the image the chains below are over: small enough that a
// random page set touches most pages several times, larger than one tree
// level.
const advancePages = 8

// sliceIncrements is an IncrementSource over hand-made increments.
type sliceIncrements []*snapshot.Snapshot

func (s sliceIncrements) MemSize() int { return advancePages * vm.PageSize }
func (s sliceIncrements) Count() int   { return len(s) }
func (s sliceIncrements) Increment(k int) (*snapshot.Snapshot, error) {
	if k < 0 || k >= len(s) {
		return nil, fmt.Errorf("increment %d of %d", k, len(s))
	}
	return s[k], nil
}

// advanceRNG is xorshift64: the chains are a pure function of the seed.
type advanceRNG uint64

func (r *advanceRNG) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = advanceRNG(x)
	return x
}

func (r *advanceRNG) bytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.next() >> 24)
	}
	return b
}

// advanceChain makes a chain of 2 to 5 increments over advancePages pages:
// increment 0 captures every page, the others an arbitrary page set each —
// pages captured again and again, pages never captured again, full pages,
// pages shorter than vm.PageSize (down to none at all), and page indices that
// are not pages of the machine, which a fold skips. Every increment carries
// registers and device state of its own. (No page is longer than a page:
// every fold refuses such an increment, and checkBoot builds that case.)
func advanceChain(seed uint64) sliceIncrements { return chainOver(seed, advancePages) }

// chainOver is advanceChain over an image of the given number of pages.
func chainOver(seed uint64, pages int) sliceIncrements {
	rng := advanceRNG(seed | 1)
	n := 2 + int(rng.next()%4)
	chain := make(sliceIncrements, n)
	for k := range chain {
		inc := &snapshot.Snapshot{Index: k, MemPages: make(map[int][]byte)}
		for p := 0; p < pages; p++ {
			if k > 0 && rng.next()%3 == 0 {
				continue
			}
			size := vm.PageSize
			if k > 0 && rng.next()%3 == 0 {
				size = int(rng.next() % vm.PageSize)
			}
			inc.MemPages[p] = rng.bytes(size)
		}
		if rng.next()%4 == 0 {
			inc.MemPages[pages+int(rng.next()%50)] = rng.bytes(vm.PageSize)
			inc.MemPages[-1-int(rng.next()%50)] = rng.bytes(16)
		}
		st := vm.State{
			PC: vm.CodeBase + uint32(rng.next()%64)*vm.InstrSize, ICount: uint64(1000*k) + rng.next()%1000, Branches: rng.next() % 500,
			IntEnabled: rng.next()%2 == 0, Pending: uint32(rng.next() % 4),
		}
		for i := range st.Regs {
			st.Regs[i] = uint32(rng.next())
		}
		inc.Machine = st.MarshalRegisters()
		devs := vm.NewDeviceSet(rng.next())
		for i := rng.next() % 4; i > 0; i-- {
			devs.PushInput(uint32(rng.next()))
			devs.PushPacket(vm.Packet{From: uint32(rng.next() % 3), Data: rng.bytes(int(rng.next() % 40))})
		}
		devs.Disk = rng.bytes(int(rng.next() % 300))
		devs.TimerPeriodUs = uint32(rng.next() % 5000)
		devs.NextTimerNs = rng.next() % 1_000_000
		devs.Frames = rng.next() % 100
		inc.Device, inc.AuthDevice = devs.Snapshot(), devs.AuthSnapshot()
		chain[k] = inc
	}
	return chain
}

// scratchReplica is the from-scratch start at snapshot k: fold, hash-verify
// against the folded state's own root (the root an honest log commits), new
// replica. It returns the replica and that root.
func scratchReplica(t *testing.T, src snapshot.IncrementSource, k int) (*Replay, [32]byte) {
	t.Helper()
	st, err := snapshot.MaterializeFrom(src, k)
	if err != nil {
		t.Fatal(err)
	}
	root := snapshot.RootOfState(st.Mem, st.Machine, st.AuthDevice)
	lh := &snapshot.LiveStateHasher{}
	if err := lh.SeedVerify(st, root); err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayFromSnapshot("n", st, 1)
	if err != nil {
		t.Fatal(err)
	}
	rp.AdoptStateHasher(lh)
	return rp, root
}

// restAt runs rp over a one-entry log, the snapshot entry that commits root
// at the replica's own landmark, so that it rests there the way a replica
// rests at the closing snapshot of a chunk.
func restAt(t *testing.T, rp *Replay, snapIdx int, root [32]byte) {
	t.Helper()
	ev := wire.EventContent{Kind: wire.EventSnapshot, Landmark: rp.mach.Landmark(), SnapIdx: uint32(snapIdx), Root: root}
	rp.Feed([]tevlog.Entry{{Seq: 7, Type: tevlog.TypeSnapshot, Content: ev.Marshal()}})
	rp.Close()
	rp.Run()
	if at, ok := rp.restingAt(); !ok || at != uint32(snapIdx) || !rp.Done() {
		t.Fatalf("replica does not rest at snapshot %d: at %d, ok %v, fault %v", snapIdx, at, ok, rp.Fault())
	}
}

// sameReplica fails the test unless the rolled replica is, in everything a
// replay can observe, the one made from scratch.
func sameReplica(t *testing.T, label string, rolled, scratch *Replay, root [32]byte) {
	t.Helper()
	if !bytes.Equal(rolled.mach.Mem, scratch.mach.Mem) {
		for p := 0; p < rolled.mach.NumPages(); p++ {
			if !bytes.Equal(rolled.mach.Page(p), scratch.mach.Page(p)) {
				t.Fatalf("%s: page %d of the rolled replica differs from the folded state", label, p)
			}
		}
		t.Fatalf("%s: the rolled replica's memory differs from the folded state", label)
	}
	if !bytes.Equal(rolled.mach.CaptureStateRegisters(), scratch.mach.CaptureStateRegisters()) {
		t.Fatalf("%s: registers differ", label)
	}
	if !bytes.Equal(rolled.devs.Snapshot(), scratch.devs.Snapshot()) {
		t.Fatalf("%s: device state differs", label)
	}
	if rolled.live.MemRoot() != scratch.live.MemRoot() {
		t.Fatalf("%s: live trees differ", label)
	}
	for name, rp := range map[string]*Replay{"rolled": rolled, "scratch": scratch} {
		if got, err := rp.stateRoot(); err != nil || got != root {
			t.Fatalf("%s: %s replica's digest %x (%v), committed %x", label, name, got[:8], err, root[:8])
		}
	}
	// Armed alike: nothing of the run that brought the replica to rest is
	// left in the replay.
	if rolled.mach.StopReq || rolled.mach.FaultInfo != nil || rolled.devs.Console.Len() != 0 || rolled.devs.Debug != nil {
		t.Fatalf("%s: the rolled machine carries host-side leftovers", label)
	}
	strip := func(r *Replay) Replay {
		c := *r
		c.mach, c.devs, c.live, c.verifyFloor = nil, nil, nil, 0
		return c
	}
	if a, b := strip(rolled), strip(scratch); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: the rolled replay is armed %+v, a new one %+v", label, a, b)
	}
}

// archivedChain writes chain to an archive in a temporary directory, as a
// node of pages pages, and returns the archive's increment source over it:
// the same increments, less the page indices below zero (no archive holds
// one, and every fold and roll skips them), each carrying the Merkle leaves
// of its full pages that the archive's read computed.
func archivedChain(t *testing.T, chain sliceIncrements, pages int) snapshot.IncrementSource {
	t.Helper()
	arc, err := archive.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { arc.Close() })
	if err := arc.BeginNode("n", pages*vm.PageSize); err != nil {
		t.Fatal(err)
	}
	for _, inc := range chain {
		kept := *inc
		kept.MemPages = maps.Clone(inc.MemPages)
		maps.DeleteFunc(kept.MemPages, func(p int, _ []byte) bool { return p < 0 })
		if err := arc.AppendSnapshot("n", &kept); err != nil {
			t.Fatal(err)
		}
	}
	src, err := arc.IncrementSource("n")
	if err != nil {
		t.Fatal(err)
	}
	// Increment 0 captures every page whole: without leaves on it, the
	// archive's half of a property shows nothing.
	if inc, err := src.Increment(0); err != nil || len(inc.MemPages) < pages || reflect.ValueOf(inc).Elem().FieldByName("leaves").Len() < pages {
		t.Fatalf("increment 0 read back from the archive carries no leaves for its %d pages (%v)", pages, err)
	}
	return src
}

// checkAdvance is the property, for one chain and every a <= b in it: over
// the increments as they were made, which carry no leaves, and over the same
// increments read back from an archive, which do.
func checkAdvance(t *testing.T, seed uint64) {
	chain := advanceChain(seed)
	src := archivedChain(t, chain, advancePages)
	archived := make(sliceIncrements, len(chain))
	for k := range archived {
		inc, err := src.Increment(k)
		if err != nil {
			t.Fatal(err)
		}
		archived[k] = inc
	}
	checkAdvanceOver(t, seed, "", chain, chain)
	checkAdvanceOver(t, seed, ", archived", chain, archived)
}

// checkAdvanceOver is checkAdvance over the increments of chain as a source
// hands them out (over).
func checkAdvanceOver(t *testing.T, seed uint64, how string, chain, over sliceIncrements) {
	rng := advanceRNG(seed ^ 0x9E3779B97F4A7C15 | 1)
	for a := 0; a < len(chain); a++ {
		for b := a; b < len(chain); b++ {
			label := fmt.Sprintf("seed %d%s, %d increments, roll %d to %d", seed, how, len(chain), a, b)
			scratch, rootB := scratchReplica(t, chain, b)
			roll := func(src sliceIncrements, want [32]byte) (*Replay, error) {
				rp, rootA := scratchReplica(t, chain, a)
				restAt(t, rp, a, rootA)
				incs, err := snapshot.IncrementRange(src, a, b)
				if err != nil {
					t.Fatal(err)
				}
				if len(incs) != b-a {
					t.Fatalf("%s: %d increments in the range", label, len(incs))
				}
				return rp, rp.Advance(incs, want)
			}
			rolled, err := roll(over, rootB)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := rolled.Restart(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameReplica(t, label, rolled, scratch, rootB)

			// A root the log did not commit is SeedVerify's error.
			wrong := rootB
			wrong[int(rng.next()%32)] ^= 1 << (rng.next() % 8)
			_, err = roll(over, wrong)
			st, _ := snapshot.MaterializeFrom(chain, b)
			if want := (&snapshot.LiveStateHasher{}).SeedVerify(st, wrong); err == nil || err.Error() != want.Error() {
				t.Fatalf("%s: wrong root: error %v, SeedVerify's is %v", label, err, want)
			}
			if a == b {
				continue
			}

			// One flipped byte in what the roll applies: a page that is the
			// newest capture of its page in (a, b], or the register or
			// authenticated device blob of increment b. Never a pass.
			tampered := make(sliceIncrements, len(over))
			copy(tampered, over)
			k := a + 1 + int(rng.next()%uint64(b-a))
			var candidates []int
			for p, page := range over[k].MemPages {
				newest := p >= 0 && p < advancePages && len(page) > 0
				for j := k + 1; j <= b && newest; j++ {
					_, again := over[j].MemPages[p]
					newest = !again
				}
				if newest {
					candidates = append(candidates, p)
				}
			}
			cut := *over[k]
			what := ""
			switch pick := rng.next() % 3; {
			case pick == 0 && len(candidates) > 0:
				// Map order is random; the candidate chosen must not be.
				p := candidates[0]
				for _, c := range candidates {
					p = min(p, c)
				}
				cut.MemPages = make(map[int][]byte, len(over[k].MemPages))
				for q, page := range over[k].MemPages {
					cut.MemPages[q] = page
				}
				page := bytes.Clone(cut.MemPages[p])
				page[int(rng.next()%uint64(len(page)))] ^= 1 << (rng.next() % 8)
				cut.MemPages[p] = page
				what = fmt.Sprintf("page %d of increment %d", p, k)
			case pick == 1:
				k = b
				cut = *over[b]
				cut.Machine = bytes.Clone(cut.Machine)
				cut.Machine[int(rng.next()%uint64(len(cut.Machine)))] ^= 1 << (rng.next() % 8)
				what = "the register blob"
			default:
				k = b
				cut = *over[b]
				cut.AuthDevice = bytes.Clone(cut.AuthDevice)
				cut.AuthDevice[int(rng.next()%uint64(len(cut.AuthDevice)))] ^= 1 << (rng.next() % 8)
				what = "the authenticated device blob"
			}
			tampered[k] = &cut
			if _, err := roll(tampered, rootB); err == nil {
				t.Fatalf("%s: a flipped byte in %s passed the root comparison", label, what)
			}
			st, err = snapshot.MaterializeFrom(tampered, b)
			if err != nil {
				t.Fatal(err)
			}
			if (&snapshot.LiveStateHasher{}).SeedVerify(st, rootB) == nil {
				t.Fatalf("%s: a flipped byte in %s passes SeedVerify; the case shows nothing", label, what)
			}
		}
	}
}

// TestSpotReplayAdvanceProperty runs the property over a few hundred chains.
func TestSpotReplayAdvanceProperty(t *testing.T) {
	n := uint64(300)
	if testing.Short() {
		n = 40
	}
	for seed := uint64(1); seed <= n; seed++ {
		checkAdvance(t, seed*0x9E3779B97F4A7C15)
	}
}

// FuzzReplayAdvance lets the fuzzer choose the chain.
func FuzzReplayAdvance(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 0xDEADBEEF, 1 << 63} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { checkAdvance(t, seed) })
}

// TestSpotReplayAdvanceShortPage is the case no recording here produces: a
// page that was non-zero to its end at a, captured shorter than a page in
// (a, b]. A fold copies the capture into fresh memory, so its tail is zero;
// the roll writes it over what the replica holds and must zero the tail
// itself. An empty capture is a page of zeros.
func TestSpotReplayAdvanceShortPage(t *testing.T) {
	full := func(b byte) []byte { return bytes.Repeat([]byte{b}, vm.PageSize) }
	chain := advanceChain(42)[:2]
	base := *chain[0]
	base.MemPages = make(map[int][]byte)
	for p := 0; p < advancePages; p++ {
		base.MemPages[p] = full(0xAA)
	}
	next := *chain[1]
	next.MemPages = map[int][]byte{1: {1, 2, 3}, 2: {}, 3: full(0xBB)[:vm.PageSize-1]}
	chain[0], chain[1] = &base, &next

	scratch, root := scratchReplica(t, chain, 1)
	rolled, rootA := scratchReplica(t, chain, 0)
	restAt(t, rolled, 0, rootA)
	incs, err := snapshot.IncrementRange(chain, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rolled.Advance(incs, root); err != nil {
		t.Fatalf("the rolled state does not verify against the folded state's root: %v", err)
	}
	if err := rolled.Restart(); err != nil {
		t.Fatal(err)
	}
	sameReplica(t, "short pages", rolled, scratch, root)
	want := append([]byte{1, 2, 3}, make([]byte, vm.PageSize-3)...)
	if !bytes.Equal(rolled.mach.Page(1), want) {
		t.Fatalf("page 1 reads %x… %x, want 010203 and zeros", rolled.mach.Page(1)[:4], rolled.mach.Page(1)[vm.PageSize-4:])
	}
	if !bytes.Equal(rolled.mach.Page(2), make([]byte, vm.PageSize)) {
		t.Fatal("an empty capture did not zero its page")
	}
	if last := rolled.mach.Page(3)[vm.PageSize-1]; last != 0 {
		t.Fatalf("the last byte of page 3 reads %#x, want 0", last)
	}
	if !bytes.Equal(rolled.mach.Page(0), full(0xAA)) {
		t.Fatal("a page no increment captured was written")
	}

	// A replica that does not rest at a verified snapshot cannot be rolled.
	fresh, _ := scratchReplica(t, chain, 0)
	if err := fresh.Advance(incs, root); err == nil {
		t.Fatal("a replica that verified no snapshot was advanced")
	}
}

// The boot a replica's first pick gets (bootReplay) against the same calls:
// folded from the increments or copied from a full state, it must make the
// replica MaterializeFrom + SeedVerify + NewReplayFromSnapshot +
// AdoptStateHasher make, refuse a wrong root with SeedVerify's error, and
// report a source that cannot hand over the state as the source's error.

// bootPages is the larger image the boot is checked over: enough pages that
// the increment completing a fold is copied and hashed on four goroutines.
const bootPages = 4*32 + 3

// wideIncrements is a chain over an image of pages pages.
type wideIncrements struct {
	sliceIncrements
	pages int
}

func (w wideIncrements) MemSize() int { return w.pages * vm.PageSize }

// failingIncrements hands out the increments of the source under it, except
// that asking for increment bad is an error.
type failingIncrements struct {
	snapshot.IncrementSource
	bad int
}

func (f failingIncrements) Increment(k int) (*snapshot.Snapshot, error) {
	if k == f.bad {
		return nil, fmt.Errorf("increment %d is unreadable", k)
	}
	return f.IncrementSource.Increment(k)
}

// sameSourceError fails the test unless the boot reported what the fold from
// scratch reported: nothing, or the same text as a source error.
func sameSourceError(t *testing.T, label string, got, want error) {
	t.Helper()
	var source sourceError
	switch {
	case want == nil && got != nil:
		t.Fatalf("%s: the boot fails (%v) where the fold from scratch does not", label, got)
	case want != nil && (got == nil || !errors.As(got, &source) || got.Error() != want.Error()):
		t.Fatalf("%s: error %v (%T), the fold from scratch returns %v", label, got, got, want)
	}
}

// checkBoot is the boot's property for one chain seed, at every snapshot of
// the chain, over advancePages and over bootPages pages.
func checkBoot(t *testing.T, seed uint64) {
	for _, pages := range []int{advancePages, bootPages} {
		chain := wideIncrements{chainOver(seed, pages), pages}
		archived := archivedChain(t, chain.sliceIncrements, pages)
		rng := advanceRNG(seed ^ 0x5851F42D4C957F2D | 1)
		for k := range chain.sliceIncrements {
			label := fmt.Sprintf("seed %d, %d pages, %d increments, boot at %d", seed, pages, len(chain.sliceIncrements), k)
			scratch, root := scratchReplica(t, chain, k)
			st, err := snapshot.MaterializeFrom(chain, k)
			if err != nil {
				t.Fatal(err)
			}
			wrong := root
			wrong[int(rng.next()%32)] ^= 1 << (rng.next() % 8)
			wantWrong := (&snapshot.LiveStateHasher{}).SeedVerify(st, wrong)
			for how, start := range map[string]ReplicaStart{
				", folded":           {Incs: chain, Index: k},
				", copied":           {State: st},
				", folded, archived": {Incs: archived, Index: k},
			} {
				how := label + how
				rp, err := bootReplay("n", start, root, 1)
				if err != nil {
					t.Fatalf("%s: %v", how, err)
				}
				if err := rp.Restart(); err != nil {
					t.Fatalf("%s: %v", how, err)
				}
				sameReplica(t, how, rp, scratch, root)

				// A root the log did not commit is SeedVerify's error, and a
				// verdict on the state, not a source error.
				var source sourceError
				if _, err := bootReplay("n", start, wrong, 1); err == nil || errors.As(err, &source) || err.Error() != wantWrong.Error() {
					t.Fatalf("%s: wrong root: error %v, SeedVerify's is %v", how, err, wantWrong)
				}
			}

			// An increment the source cannot hand over, wherever the fold from
			// scratch meets it — or does not, when newer ones cover every page.
			failing := failingIncrements{chain, int(rng.next() % uint64(k+1))}
			_, want := snapshot.MaterializeFrom(failing, k)
			_, err = bootReplay("n", ReplicaStart{Incs: failing, Index: k}, root, 1)
			sameSourceError(t, fmt.Sprintf("%s, increment %d unreadable", label, failing.bad), err, want)
			failing.IncrementSource = archived
			_, err = bootReplay("n", ReplicaStart{Incs: failing, Index: k}, root, 1)
			sameSourceError(t, fmt.Sprintf("%s, archived, increment %d unreadable", label, failing.bad), err, want)

			// A page longer than a page in the newest increment, which every
			// fold reads: CheckIncrement's error, naming the increment and page.
			long := wideIncrements{slices.Clone(chain.sliceIncrements), pages}
			cut := *chain.sliceIncrements[k]
			cut.MemPages = maps.Clone(cut.MemPages)
			p := int(rng.next() % uint64(pages))
			cut.MemPages[p] = rng.bytes(vm.PageSize + 1 + int(rng.next()%8))
			long.sliceIncrements[k] = &cut
			_, want = snapshot.MaterializeFrom(long, k)
			if want == nil || !strings.Contains(want.Error(), fmt.Sprintf("increment %d page %d ", k, p)) {
				t.Fatalf("%s: an over-long page %d: MaterializeFrom returns %v", label, p, want)
			}
			_, err = bootReplay("n", ReplicaStart{Incs: long, Index: k}, root, 1)
			sameSourceError(t, fmt.Sprintf("%s, page %d over-long", label, p), err, want)

			if pages == advancePages {
				checkHeldOpen(t, label, chain, k, st, root, wrong, &rng)
			}
		}
	}
}

// checkHeldOpen holds an epoch's open on a held replica to the boot (over
// the small image only: the open adds no page-parallel pass of its own): a
// replica that rests at snapshot k of chain, handed a full state the way
// openEpoch hands it one (startReplica, then Restart), must end where
// bootReplay + Restart from that state ends — the boot's error text, or the
// boot's memory, registers, devices, live tree and arming — whatever the
// state: snapshot k's (st, committed as root), the same with a flipped
// memory byte, register blob or authenticated device blob, a device blob cut
// short (which the root does not cover), memory a page short, a root the log
// did not commit (wrong), or another snapshot's state and root.
func checkHeldOpen(t *testing.T, label string, chain wideIncrements, k int, st *snapshot.Restored, root, wrong [32]byte, rng *advanceRNG) {
	t.Helper()
	flip := func(b []byte) []byte {
		b = bytes.Clone(b)
		b[int(rng.next()%uint64(len(b)))] ^= 1 << (rng.next() % 8)
		return b
	}
	with := func(change func(c *snapshot.Restored)) *snapshot.Restored {
		c := *st
		change(&c)
		return &c
	}
	j := (k + 1) % len(chain.sliceIncrements)
	other, err := snapshot.MaterializeFrom(chain, j)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		state *snapshot.Restored
		root  [32]byte
	}{
		{"its own state", st, root},
		{"a memory byte flipped", with(func(c *snapshot.Restored) { c.Mem = flip(c.Mem) }), root},
		{"the register blob flipped", with(func(c *snapshot.Restored) { c.Machine = flip(c.Machine) }), root},
		{"the authenticated device blob flipped", with(func(c *snapshot.Restored) { c.AuthDevice = flip(c.AuthDevice) }), root},
		{"the device blob cut short", with(func(c *snapshot.Restored) { c.Device = c.Device[:len(c.Device)-1] }), root},
		{"memory a page short", with(func(c *snapshot.Restored) { c.Mem = c.Mem[:len(c.Mem)-vm.PageSize] }), root},
		{"a root not committed", st, wrong},
		{fmt.Sprintf("snapshot %d's state", j), other, snapshot.RootOfState(other.Mem, other.Machine, other.AuthDevice)},
	}
	for _, c := range cases {
		how := fmt.Sprintf("%s, held there, handed %s", label, c.name)
		booted, bootErr := bootReplay("n", ReplicaStart{State: c.state}, c.root, 1)
		if bootErr == nil {
			bootErr = booted.Restart()
		}
		held, heldRoot := scratchReplica(t, chain, k)
		restAt(t, held, k, heldRoot)
		opened, err := startReplica("n", held, nil, ReplicaStart{State: c.state}, c.root, 1)
		if err == nil {
			err = opened.Restart()
		}
		switch {
		case bootErr != nil:
			if err == nil || err.Error() != bootErr.Error() {
				t.Fatalf("%s: error %v, the boot's is %v", how, err, bootErr)
			}
		case err != nil:
			t.Fatalf("%s: error %v where the boot opens", how, err)
		default:
			sameReplica(t, how, opened, booted, c.root)
		}
	}
}

// TestSpotReplicaBootProperty runs the boot's property over fifty chains at
// 1 and 4 Ps; no goroutine of the boot outlives it.
func TestSpotReplicaBootProperty(t *testing.T) {
	n := uint64(50)
	if testing.Short() {
		n = 10
	}
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			before := runtime.NumGoroutine()
			for seed := uint64(1); seed <= n; seed++ {
				checkBoot(t, seed*0x9E3779B97F4A7C15)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("P%d: %d goroutines after the boots, %d before", procs, after, before)
			}
		}()
	}
}

// FuzzReplicaBoot lets the fuzzer choose the chain the boot is checked on.
func FuzzReplicaBoot(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 0xDEADBEEF, 1 << 63} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { checkBoot(t, seed) })
}
