package sig

import (
	"bytes"
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// primeOrders are the six orders of a three-prime key's primes.
var primeOrders = [][crtPrimes]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// fixedKey builds a 1024-bit signer from seed alone, as GenerateRSA builds
// and sets up its keys, with the key's primes put in order (a permutation
// of 0, 1, 2 over the order newKey drew them in: 342, 341, 341 bits). The
// same seed gives the same key on every run, so a fuzz input that fails
// keeps failing. The order matters to the recombination: a 342-bit prime
// can be up to 2.7 times a 341-bit one, so a residue modulo one prime is
// not always reduced modulo another by one subtraction.
func fixedKey(t testing.TB, seed string, order [crtPrimes]int) *RSASigner {
	t.Helper()
	key := fixedPrivateKey(t, seed, order, verifyExponent)
	return newRSASigner(NodeID(fmt.Sprintf("%s%v", seed, order)), key)
}

// fixedKeys is fixedKey with its primes in each of the six orders.
func fixedKeys(t testing.TB, seed string) []*RSASigner {
	t.Helper()
	keys := make([]*RSASigner, len(primeOrders))
	for i, order := range primeOrders {
		keys[i] = fixedKey(t, seed, order)
	}
	return keys
}

// fixedPrivateKey is fixedKey's private key, with public exponent e.
func fixedPrivateKey(t testing.TB, seed string, order [crtPrimes]int, e int) *rsa.PrivateKey {
	t.Helper()
	built := builtKey(t, seed, crtPrimeSizes, e)
	key := &rsa.PrivateKey{PublicKey: built.PublicKey, D: built.D}
	for _, i := range order {
		key.Primes = append(key.Primes, built.Primes[i])
	}
	key.Precompute()
	if err := key.Validate(); err != nil {
		t.Fatalf("fixed key %q%v: %v", seed, order, err)
	}
	return key
}

// builtKey is newKey's key from seed's stream: primes of the given sizes,
// public exponent e.
func builtKey(t testing.TB, seed string, sizes []int, e int) *rsa.PrivateKey {
	t.Helper()
	key, err := newKey(newDetReader(seed), sizes, e)
	if err != nil {
		t.Fatalf("key %q of %v-bit primes: %v", seed, sizes, err)
	}
	return key
}

// requireStdlibSignature fails unless s signs msg with exactly the bytes
// rsa.SignPKCS1v15 produces, and they verify.
func requireStdlibSignature(t testing.TB, s *RSASigner, msg []byte) {
	t.Helper()
	requireSignature(t, s, msg, stdlibSignature(t, s, msg))
}

// requireSignature fails unless s signs msg with exactly the bytes want,
// and they verify.
func requireSignature(t testing.TB, s *RSASigner, msg, want []byte) {
	t.Helper()
	got := s.Sign(msg)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: signature over %x differs from crypto/rsa's\n got %x\nwant %x", s.id, msg, got, want)
	}
	if !s.Public().Verify(msg, got) {
		t.Fatalf("%s: signature over %x does not verify", s.id, msg)
	}
}

// adxAvailable is whether this machine runs the assembly products: useADX
// as the package chose it, before any test flips it.
var adxAvailable = useADX

// kernelPaths are the two implementations of the Montgomery products.
var kernelPaths = []struct {
	name string
	adx  bool
}{{"go", false}, {"adx", true}}

// onEachPath runs f as a subtest once per implementation of mul and sqr:
// the Go limb code, and the MULX/ADX assembly where the CPU has it. It
// selects the implementation through useADX, so no test of this package
// may run in parallel with it.
func onEachPath(t *testing.T, f func(t *testing.T)) {
	defer func(v bool) { useADX = v }(useADX)
	for _, p := range kernelPaths {
		t.Run(p.name, func(t *testing.T) {
			if p.adx && !adxAvailable {
				t.Skip("the CPU has no MULX/ADX: the assembly products are not tested on this machine")
			}
			useADX = p.adx
			f(t)
		})
	}
}

// TestRSASignMatchesStdlib: the kernel signs every 1024-bit key
// GenerateRSA makes, and a seed-built one with its primes in each of the
// six orders, byte for byte as crypto/rsa does, on both implementations of
// its products; the keys it does not serve — a two-prime 1024-bit key, a
// three-prime one with a prime wider than crtPrimeBits, another size — are
// signed by crypto/rsa itself.
func TestRSASignMatchesStdlib(t *testing.T) {
	ids := make([]NodeID, 20)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("k%d", i))
	}
	signers := MustGenerateRSAAll(ids, DefaultKeyBits, "stdlib")
	signers = append(signers, fixedKeys(t, "fixed")...)
	rng := rand.New(rand.NewSource(1))
	msgs := [][]byte{nil}
	for j := 0; j < 50; j++ {
		msg := make([]byte, rng.Intn(100))
		rng.Read(msg)
		msgs = append(msgs, msg)
	}
	want := make([][][]byte, len(signers))
	for i, s := range signers {
		if s.crt == nil {
			t.Fatalf("%s: a 1024-bit three-prime key is not signed by the kernel", s.id)
		}
		for _, msg := range msgs {
			want[i] = append(want[i], stdlibSignature(t, s, msg))
		}
	}
	onEachPath(t, func(t *testing.T) {
		for i, s := range signers {
			for j, msg := range msgs {
				requireSignature(t, s, msg, want[i][j])
			}
		}
	})

	others := []*RSASigner{
		newRSASigner("two-prime", builtKey(t, "two-prime", []int{512, 512}, verifyExponent)),
		newRSASigner("wide-prime", builtKey(t, "wide-prime", []int{crtPrimeBits + 2, 339, 339}, verifyExponent)),
		MustGenerateRSA("wide", crtKeyBits+8, "stdlib"),
	}
	for _, s := range others {
		if s.crt != nil {
			t.Fatalf("%s: signed by the kernel", s.id)
		}
		if s.pub.mont == nil && s.key.N.BitLen() == crtKeyBits {
			t.Fatalf("%s: a 1024-bit key with e = 65537 has no Montgomery context", s.id)
		}
		requireStdlibSignature(t, s, []byte("m"))
	}
}

// stdlibSignature is rsa.SignPKCS1v15's signature over msg under s's key.
func stdlibSignature(t testing.TB, s *RSASigner, msg []byte) []byte {
	t.Helper()
	digest := sha256.Sum256(msg)
	want, err := rsa.SignPKCS1v15(nil, s.key, crypto.SHA256, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	return want
}

var fuzzKeys struct {
	once sync.Once
	keys []*RSASigner
}

// FuzzRSASign: whatever the message, the kernel's signature under a fixed
// key, with its primes in each of the six orders, and another fixed key is
// crypto/rsa's, on both implementations of its products.
func FuzzRSASign(f *testing.F) {
	for _, seed := range []string{"", "m", "\x00\x01\xff", strings.Repeat("authenticator", 10)} {
		f.Add([]byte(seed))
	}
	if !adxAvailable {
		f.Log("the CPU has no MULX/ADX: only the Go products are fuzzed")
	}
	defer func(v bool) { useADX = v }(useADX)
	f.Fuzz(func(t *testing.T, msg []byte) {
		fuzzKeys.once.Do(func() {
			fuzzKeys.keys = append(fixedKeys(t, "fuzz-0"), fixedKey(t, "fuzz-1", primeOrders[0]))
		})
		for _, s := range fuzzKeys.keys {
			want := stdlibSignature(t, s, msg)
			for _, p := range kernelPaths {
				if p.adx && !adxAvailable {
					continue
				}
				useADX = p.adx
				requireSignature(t, s, msg, want)
			}
		}
	})
}

// TestRSASignFaultCheck: a kernel with one constant of one of its thirds,
// or of the recombination, wrong computes a wrong signature, and Sign
// panics rather than return it, with the key's primes in each of the six
// orders and on both implementations of its products.
func TestRSASignFaultCheck(t *testing.T) {
	keys := fixedKeys(t, "fault")
	onEachPath(t, func(t *testing.T) {
		for _, good := range keys {
			testRSASignFaultCheck(t, good)
		}
	})
}

func testRSASignFaultCheck(t *testing.T, good *RSASigner) {
	corruptions := []struct {
		name string
		flip func(k *crtKey)
	}{
		{"p₁⁻¹·R mod p₂", func(k *crtKey) { k.inv12[3] ^= 1 << 17 }},
		{"p₁⁻¹·R mod p₃", func(k *crtKey) { k.inv13[0] ^= 1 }},
		{"p₂⁻¹·R mod p₃", func(k *crtKey) { k.inv23[5] ^= 1 << 3 }},
		{"R² mod p₁", func(k *crtKey) { k.thirds[0].rr[0] ^= 1 }},
		{"R³ mod p₂", func(k *crtKey) { k.thirds[1].r3[2] ^= 1 << 9 }},
		{"R⁴ mod p₃", func(k *crtKey) { k.thirds[2].r4[4] ^= 1 << 30 }},
		{"−p₂⁻¹ mod 2⁶⁴", func(k *crtKey) { k.thirds[1].m0inv ^= 1 << 40 }},
		{"R mod p₃", func(k *crtKey) { k.thirds[2].one[5] ^= 1 << 5 }},
		{"d mod (p₁−1)", func(k *crtKey) { k.thirds[0].exp[42] ^= 2 }},
		{"d mod (p₂−1)", func(k *crtKey) { k.thirds[1].exp[0] ^= 1 }},
		{"d mod (p₃−1)", func(k *crtKey) { k.thirds[2].exp[20] ^= 1 << 6 }},
		{"p₁", func(k *crtKey) { k.thirds[0].m[1] ^= 1 << 63 }},
		{"R² mod N", func(k *crtKey) {
			pub := *k.pub
			pub.rr[0] ^= 1
			k.pub = &pub
		}},
	}
	for _, c := range corruptions {
		k := *good.crt
		c.flip(&k)
		bad := *good
		bad.crt = &k
		msg := []byte(c.name)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: %s corrupted: Sign returned", good.id, c.name)
				} else if m := fmt.Sprint(r); !strings.HasPrefix(m, "sig: RSA signing failed") {
					t.Errorf("%s: %s corrupted: panic %q", good.id, c.name, m)
				}
			}()
			signature := bad.Sign(msg)
			if !good.Public().Verify(msg, signature) {
				t.Errorf("%s: %s corrupted: Sign returned a signature that does not verify", good.id, c.name)
			}
		}()
	}
	requireStdlibSignature(t, good, []byte("the key itself is untouched"))
}

// TestRSASignConcurrent: one signer used from several goroutines at once,
// as the logging daemon's workers use it, signs every message as crypto/rsa
// does.
func TestRSASignConcurrent(t *testing.T) {
	s := fixedKey(t, "concurrent", primeOrders[0])
	want := make([][]byte, 16)
	for i := range want {
		digest := sha256.Sum256([]byte{byte(i)})
		var err error
		if want[i], err = rsa.SignPKCS1v15(nil, s.key, crypto.SHA256, digest[:]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range want {
				j := (i + 4*g) % len(want)
				if got := s.Sign([]byte{byte(j)}); !bytes.Equal(got, want[j]) {
					t.Errorf("goroutine %d, message %d: signature differs from crypto/rsa's", g, j)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMontArithmeticMatchesBig holds mul and sqr — the Go limb code and,
// where the CPU has MULX/ADX, the assembly — and the modular helpers to
// math/big, on random operands and the edges of their ranges, modulo both
// primes of a generated key and of a seed-built one; and the verify's row
// addMulRow16, both implementations, likewise.
func TestMontArithmeticMatchesBig(t *testing.T) {
	if !adxAvailable {
		t.Log("the CPU has no MULX/ADX: the assembly products are not tested on this machine")
	}
	var zero, ones wide
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	rowRNG := rand.New(rand.NewSource(4))
	randomWide := func() wide {
		var w wide
		for i := range w {
			w[i] = rowRNG.Uint64()
		}
		return w
	}
	for _, z := range []wide{zero, ones} {
		for _, x := range []wide{zero, ones} {
			for _, y := range []uint64{0, 1, ^uint64(0)} {
				checkRow(t, &z, &x, y)
			}
		}
	}
	for i := 0; i < 1000; i++ {
		z, x := randomWide(), randomWide()
		checkRow(t, &z, &x, rowRNG.Uint64())
	}

	generated := MustGenerateRSA("arith-gen", DefaultKeyBits, "arith")
	built := fixedKey(t, "arith", primeOrders[0])
	var moduli []*montModulus
	for _, s := range []*RSASigner{generated, built} {
		for i := range s.crt.thirds {
			moduli = append(moduli, &s.crt.thirds[i])
		}
	}
	rng := rand.New(rand.NewSource(2))
	rBig := new(big.Int).Lsh(big.NewInt(1), natBits)
	for _, mm := range moduli {
		m := toBig(&mm.m)
		below := func(bound *big.Int) nat {
			return natOf(new(big.Int).Rand(rng, bound))
		}
		mMinus1 := natOf(new(big.Int).Sub(m, big.NewInt(1)))
		rMinus1 := natOf(new(big.Int).Sub(rBig, big.NewInt(1)))
		edges := []nat{{}, {1}, mMinus1, mm.one, mm.rr, mm.r3, mm.r4}
		xs := append([]nat(nil), edges...)
		for i := 0; i < 500; i++ {
			xs = append(xs, below(m))
		}
		for _, x := range append(edges, rMinus1) {
			for _, y := range edges {
				checkProducts(t, mm, &x, &y)
			}
		}
		var z nat
		for i, x := range xs {
			y := xs[(i*7+3)%len(xs)]
			checkProducts(t, mm, &x, &y)
			// mul takes any x < R, however far above m.
			checkProducts(t, mm, &rMinus1, &y)
			xr := below(rBig)
			checkProducts(t, mm, &xr, &y)
			want := new(big.Int)
			addMod(&z, &x, &y, &mm.m)
			if want.Add(toBig(&x), toBig(&y)).Mod(want, m); toBig(&z).Cmp(want) != 0 {
				t.Fatalf("addMod(%x, %x) = %x, want %x", x, y, z, want)
			}
			subMod(&z, &x, &y, &mm.m)
			if want.Sub(toBig(&x), toBig(&y)).Mod(want, m); toBig(&z).Cmp(want) != 0 {
				t.Fatalf("subMod(%x, %x) = %x, want %x", x, y, z, want)
			}
		}
	}

	// mulAddWide, the recombination's x·y + a, modulo 2¹⁰²⁴.
	two1024 := new(big.Int).Lsh(big.NewInt(1), crtKeyBits)
	for i := 0; i < 1000; i++ {
		x, y, a := randomWide(), natOf(new(big.Int).Rand(rng, rBig)), natOf(new(big.Int).Rand(rng, rBig))
		if i%2 == 0 {
			clear(x[len(nat{}):]) // as in the recombination's first step: x below R
		}
		want := new(big.Int).Mul(limbsBig(x[:]), toBig(&y))
		want.Add(want, toBig(&a)).Mod(want, two1024)
		z := x
		mulAddWide(&z, &z, &y, &a)
		if limbsBig(z[:]).Cmp(want) != 0 {
			t.Fatalf("mulAddWide(%x, %x, %x) = %x, want %x", x, y, a, z, want)
		}
	}
}

// checkProducts holds x·y·R⁻¹ mod m from mulGeneric and mulADX, and, when
// x < m, x·x·R⁻¹ mod m from sqrGeneric and mulADX(x, x), to math/big, each
// also with its result written over an operand. x must be below R and y below
// m. The assembly is skipped where the CPU cannot run it.
func checkProducts(t testing.TB, mm *montModulus, x, y *nat) {
	t.Helper()
	m := toBig(&mm.m)
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), natBits), m)
	want := new(big.Int).Mul(toBig(x), toBig(y))
	want.Mul(want, rInv).Mod(want, m)
	wantSq := new(big.Int).Mul(toBig(x), toBig(x))
	wantSq.Mul(wantSq, rInv).Mod(wantSq, m)
	square := toBig(x).Cmp(m) < 0
	type product struct {
		name string
		adx  bool
		mul  func(z, x, y *nat)
		sqr  func(z, x *nat)
	}
	products := []product{
		{"mulGeneric/sqrGeneric", false, mm.mulGeneric, mm.sqrGeneric},
		{"mulADX", true,
			func(z, x, y *nat) { mulADX(z, x, y, &mm.m, mm.m0inv) },
			func(z, x *nat) { mulADX(z, x, x, &mm.m, mm.m0inv) }},
	}
	for _, p := range products {
		if p.adx && !adxAvailable {
			continue
		}
		var z nat
		p.mul(&z, x, y)
		if toBig(&z).Cmp(want) != 0 {
			t.Fatalf("%s: mul(%x, %x) = %x, want %x", p.name, *x, *y, z, want)
		}
		zx, zy := *x, *y
		p.mul(&zx, &zx, y)
		p.mul(&zy, x, &zy)
		if zx != z || zy != z {
			t.Fatalf("%s: mul(%x, %x) over x = %x, over y = %x, want %x", p.name, *x, *y, zx, zy, z)
		}
		if !square {
			continue
		}
		p.sqr(&z, x)
		if toBig(&z).Cmp(wantSq) != 0 {
			t.Fatalf("%s: sqr(%x) = %x, want %x", p.name, *x, z, wantSq)
		}
		zx = *x
		p.sqr(&zx, &zx)
		if zx != z {
			t.Fatalf("%s: sqr(%x) over x = %x, want %x", p.name, *x, zx, z)
		}
	}
}

var fuzzModulus struct {
	once sync.Once
	mm   *montModulus
}

// FuzzMontMul: for any x < R and y < m — the fuzzer's bytes, y reduced
// mod m — the assembly products, the Go products and math/big agree
// modulo a seed-built prime.
func FuzzMontMul(f *testing.F) {
	const n = 8 * len(nat{})
	f.Add(make([]byte, 2*n))
	f.Add(bytes.Repeat([]byte{0xff}, 2*n))
	f.Add(append(bytes.Repeat([]byte{0xff}, n), make([]byte, n)...))
	if !adxAvailable {
		f.Log("the CPU has no MULX/ADX: only the Go products are fuzzed against math/big")
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzModulus.once.Do(func() { fuzzModulus.mm = &fixedKey(t, "fuzz-mont", primeOrders[0]).crt.thirds[0] })
		mm := fuzzModulus.mm
		const n = 8 * len(nat{})
		var in [2 * n]byte
		copy(in[:], b)
		x := natOf(new(big.Int).SetBytes(in[:n]))
		y := natOf(new(big.Int).Mod(new(big.Int).SetBytes(in[n:]), toBig(&mm.m)))
		checkProducts(t, mm, &x, &y)
		xm := natOf(new(big.Int).Mod(toBig(&x), toBig(&mm.m)))
		checkProducts(t, mm, &xm, &y)
	})
}

func toBig(x *nat) *big.Int { return limbsBig(x[:]) }

// limbsBig is the number whose limbs, least significant first, are x.
func limbsBig(x []uint64) *big.Int {
	z := new(big.Int)
	for i := len(x) - 1; i >= 0; i-- {
		z.Lsh(z, 64).Or(z, new(big.Int).SetUint64(x[i]))
	}
	return z
}

// checkRow holds z + x·y from addMulRow16Generic and, where the CPU has
// MULX/ADX, addMulRow16ADX to math/big: the sixteen limbs written over z
// and the carry-out limb above them.
func checkRow(t testing.TB, z, x *wide, y uint64) {
	t.Helper()
	want := new(big.Int).Mul(limbsBig(x[:]), new(big.Int).SetUint64(y))
	want.Add(want, limbsBig(z[:]))
	rows := []struct {
		name string
		adx  bool
		row  func(z, x *wide, y uint64) uint64
	}{{"addMulRow16Generic", false, addMulRow16Generic}, {"addMulRow16ADX", true, addMulRow16ADX}}
	for _, r := range rows {
		if r.adx && !adxAvailable {
			continue
		}
		got := *z
		carry := r.row(&got, x, y)
		if sum := limbsBig(append(got[:], carry)); sum.Cmp(want) != 0 {
			t.Fatalf("%s(%x, %x, %x) = %x carry %x, want %x", r.name, *z, *x, y, got, carry, want)
		}
	}
}

// BenchmarkRSASign times the kernel on a three-prime key, on each
// implementation of its products, against crypto/rsa on a two-prime key
// of the same size (crypto/rsa signs a three-prime key without CRT).
func BenchmarkRSASign(b *testing.B) {
	s := fixedKey(b, "bench", primeOrders[0])
	two := builtKey(b, "bench", []int{512, 512}, verifyExponent)
	msg := make([]byte, 40) // an authenticator body: seq plus chain hash
	defer func(v bool) { useADX = v }(useADX)
	for _, p := range kernelPaths {
		if p.adx && !adxAvailable {
			continue
		}
		b.Run("kernel/"+p.name, func(b *testing.B) {
			useADX = p.adx
			for i := 0; i < b.N; i++ {
				s.Sign(msg)
			}
		})
	}
	b.Run("stdlib", func(b *testing.B) {
		digest := sha256.Sum256(msg)
		for i := 0; i < b.N; i++ {
			rsa.SignPKCS1v15(nil, two, crypto.SHA256, digest[:])
		}
	})
}
