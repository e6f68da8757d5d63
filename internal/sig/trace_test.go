package sig

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// The kernel's sequence of operations, as a test: every mul, sqr and
// lookup a signature makes — in its three thirds and in the recombination
// — and the table entries each lookup reads, must be the same whatever the
// key, the message and the exponent. This catches a loop bound or an early
// exit that depends on a secret, which the differential tests, comparing
// only results, cannot see.

// traceEvent is one operation kernelTrace saw.
type traceEvent struct {
	op   kernelOp
	read uint64 // the table entries a lookup read, as a bit mask
}

func (e traceEvent) String() string {
	switch e.op {
	case opMul:
		return "mul"
	case opSqr:
		return "sqr"
	}
	return fmt.Sprintf("lookup reading %016b", e.read)
}

// traceSign returns the operations k.sign makes over digest. A key with a
// doctored exponent signs wrongly, and sign returns the fault; what counts
// here is the trace, not the signature.
func traceSign(k *crtKey, digest *[32]byte) []traceEvent {
	var ops []traceEvent
	kernelTrace = func(op kernelOp, read uint64) { ops = append(ops, traceEvent{op, read}) }
	defer func() { kernelTrace = nil }()
	k.sign(digest)
	return ops
}

// TestKernelTraceIndependentOfSecrets: three fixed keys, random messages,
// and each key's exponents with leading zero windows (their first byte,
// first eight bytes or all but the last byte zero), all zero or all ones,
// give one sequence of operations, on both implementations of the
// products. The sequence has the kernel's fixed shape: per third, 4
// squarings and one full-table lookup and product for each of the 86
// windows.
func TestKernelTraceIndependentOfSecrets(t *testing.T) {
	var keys []*RSASigner
	for _, seed := range []string{"trace-a", "trace-b", "trace-c"} {
		keys = append(keys, fixedKey(t, seed, primeOrders[0]))
	}
	doctor := func(k *crtKey, f func(exp []byte)) *crtKey {
		c := *k
		for i := range c.thirds {
			f(c.thirds[i].exp[:])
		}
		return &c
	}
	zeroFirst := func(n int) func([]byte) {
		return func(exp []byte) { clear(exp[:n]) }
	}
	variants := []struct {
		name string
		f    func([]byte)
	}{
		{"its exponents", func([]byte) {}},
		{"a zero first byte", zeroFirst(1)},
		{"eight zero bytes first", zeroFirst(8)},
		{"one nonzero byte last", zeroFirst(crtPrimeBits/8 - 1)},
		{"a zero exponent", zeroFirst(crtPrimeBits / 8)},
		{"an exponent of all ones", func(exp []byte) {
			for i := range exp {
				exp[i] = 0xff
			}
		}},
	}
	onEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		want := traceSign(keys[0].crt, &[32]byte{})
		checkTraceShape(t, want)
		for _, s := range keys {
			for _, v := range variants {
				k := doctor(s.crt, v.f)
				for i := 0; i < 4; i++ {
					msg := make([]byte, 1+rng.Intn(64))
					rng.Read(msg)
					digest := sha256.Sum256(msg)
					got := traceSign(k, &digest)
					if i := firstDifference(got, want); i >= 0 {
						t.Fatalf("%s, %s, message %x: operation %d of %d is %s, want %s of %d",
							s.id, v.name, msg, i, len(got), at(got, i), at(want, i), len(want))
					}
				}
			}
		}
	})
}

// checkTraceShape fails unless ops has the kernel's operation counts.
func checkTraceShape(t *testing.T, ops []traceEvent) {
	t.Helper()
	const windows = crtPrimeBits / 4
	// Per third: three products reduce c, fourteen fill the table, one per
	// window, one leaves Montgomery form; the recombination makes six.
	const muls = crtPrimes*(3+14+windows+1) + 6
	counts := map[kernelOp]int{}
	for _, e := range ops {
		counts[e.op]++
		if e.op == opLookup && e.read != 1<<16-1 {
			t.Fatalf("a lookup read entries %016b, not all sixteen", e.read)
		}
	}
	if counts[opSqr] != crtPrimes*4*windows || counts[opLookup] != crtPrimes*windows || counts[opMul] != muls {
		t.Fatalf("the kernel made %d sqr, %d lookups and %d mul; want %d, %d and %d",
			counts[opSqr], counts[opLookup], counts[opMul], crtPrimes*4*windows, crtPrimes*windows, muls)
	}
}

// firstDifference returns the first index at which a and b differ, or −1.
func firstDifference(a, b []traceEvent) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func at(ops []traceEvent, i int) string {
	if i < len(ops) {
		return ops[i].String()
	}
	return "past the end"
}
