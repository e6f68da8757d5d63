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

// fixedKey builds a 1024-bit signer from seed alone, set up as GenerateRSA
// sets up its keys: unlike GenerateRSA, whose keys crypto/rsa randomizes,
// the same seed gives the same key on every run, so a fuzz input that fails
// keeps failing. With swap the smaller prime is Primes[0], the order in
// which m₂ ≥ p can happen.
func fixedKey(t testing.TB, seed string, swap bool) *RSASigner {
	t.Helper()
	return newRSASigner(NodeID(seed), fixedPrivateKey(t, seed, swap, verifyExponent))
}

// fixedPrivateKey is fixedKey's private key, with public exponent e.
func fixedPrivateKey(t testing.TB, seed string, swap bool, e64 int64) *rsa.PrivateKey {
	t.Helper()
	r := newDetReader(seed)
	one := big.NewInt(1)
	e := big.NewInt(e64)
	prime := func() *big.Int {
		b := make([]byte, crtPrimeBits/8)
		for {
			r.Read(b)
			b[0] |= 0xc0 // two top bits: p·q is a full 1024 bits
			b[len(b)-1] |= 1
			p := new(big.Int).SetBytes(b)
			pm1 := new(big.Int).Sub(p, one)
			if p.ProbablyPrime(20) && new(big.Int).GCD(nil, nil, e, pm1).Cmp(one) == 0 {
				return p
			}
		}
	}
	p, q := prime(), prime()
	if (p.Cmp(q) < 0) != swap {
		p, q = q, p
	}
	phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
	key := &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: new(big.Int).Mul(p, q), E: int(e.Int64())},
		D:         new(big.Int).ModInverse(e, phi),
		Primes:    []*big.Int{p, q},
	}
	key.Precompute()
	if err := key.Validate(); err != nil {
		t.Fatalf("fixed key %q: %v", seed, err)
	}
	return key
}

// requireStdlibSignature fails unless s signs msg with exactly the bytes
// rsa.SignPKCS1v15 produces, and they verify.
func requireStdlibSignature(t testing.TB, s *RSASigner, msg []byte) {
	t.Helper()
	digest := sha256.Sum256(msg)
	want, err := rsa.SignPKCS1v15(nil, s.key, crypto.SHA256, digest[:])
	if err != nil {
		t.Fatal(err)
	}
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

// TestRSASignMatchesStdlib: the kernel signs every 1024-bit key, with the
// primes in either order, byte for byte as crypto/rsa does, on both
// implementations of its products; other key sizes are signed by
// crypto/rsa itself.
func TestRSASignMatchesStdlib(t *testing.T) {
	ids := make([]NodeID, 20)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("k%d", i))
	}
	signers := MustGenerateRSAAll(ids, DefaultKeyBits, "stdlib")
	signers = append(signers, fixedKey(t, "fixed-p>q", false), fixedKey(t, "fixed-p<q", true))
	onEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, s := range signers {
			if s.crt == nil {
				t.Fatalf("%s: a 1024-bit key is not signed by the kernel", s.id)
			}
			requireStdlibSignature(t, s, nil)
			for j := 0; j < 50; j++ {
				msg := make([]byte, rng.Intn(100))
				rng.Read(msg)
				requireStdlibSignature(t, s, msg)
			}
		}
	})

	other := MustGenerateRSA("wide", crtKeyBits+8, "stdlib")
	if other.crt != nil {
		t.Fatal("a 1032-bit key is signed by the 1024-bit kernel")
	}
	requireStdlibSignature(t, other, []byte("m"))
}

var fuzzKeys struct {
	once sync.Once
	keys []*RSASigner
}

// FuzzRSASign: whatever the message, the kernel's signature under each of
// a few fixed keys is crypto/rsa's, on both implementations of its
// products.
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
			fuzzKeys.keys = []*RSASigner{fixedKey(t, "fuzz-0", false), fixedKey(t, "fuzz-1", true), fixedKey(t, "fuzz-2", false)}
		})
		for _, p := range kernelPaths {
			if p.adx && !adxAvailable {
				continue
			}
			useADX = p.adx
			for _, s := range fuzzKeys.keys {
				requireStdlibSignature(t, s, msg)
			}
		}
	})
}

// TestRSASignFaultCheck: a kernel with one constant wrong computes a wrong
// signature, and Sign panics rather than return it, on both implementations
// of its products.
func TestRSASignFaultCheck(t *testing.T) {
	onEachPath(t, testRSASignFaultCheck)
}

func testRSASignFaultCheck(t *testing.T) {
	good := fixedKey(t, "fault", false)
	corruptions := []struct {
		name string
		flip func(k *crtKey)
	}{
		{"q⁻¹·R mod p", func(k *crtKey) { k.qInvR[3] ^= 1 << 17 }},
		{"R² mod p", func(k *crtKey) { k.p.rr[0] ^= 1 }},
		{"−q⁻¹ mod 2⁶⁴", func(k *crtKey) { k.q.m0inv ^= 1 << 40 }},
		{"R mod q", func(k *crtKey) { k.q.one[7] ^= 1 << 5 }},
		{"dP", func(k *crtKey) { k.p.exp[63] ^= 2 }},
		{"dQ", func(k *crtKey) { k.q.exp[0] ^= 1 }},
		{"q", func(k *crtKey) { k.qNat[1] ^= 1 << 63 }},
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
					t.Errorf("%s corrupted: Sign returned", c.name)
				} else if m := fmt.Sprint(r); !strings.HasPrefix(m, "sig: RSA signing failed") {
					t.Errorf("%s corrupted: panic %q", c.name, m)
				}
			}()
			signature := bad.Sign(msg)
			if !good.Public().Verify(msg, signature) {
				t.Errorf("%s corrupted: Sign returned a signature that does not verify", c.name)
			}
		}()
	}
	requireStdlibSignature(t, good, []byte("the key itself is untouched"))
}

// TestRSASignConcurrent: one signer used from several goroutines at once,
// as the logging daemon's workers use it, signs every message as crypto/rsa
// does.
func TestRSASignConcurrent(t *testing.T) {
	s := fixedKey(t, "concurrent", false)
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
	built := fixedKey(t, "arith", false)
	rng := rand.New(rand.NewSource(2))
	for _, mm := range []*montModulus{&generated.crt.p, &generated.crt.q, &built.crt.p, &built.crt.q} {
		m := toBig(&mm.m)
		below := func(bound *big.Int) nat {
			return natOf(new(big.Int).Rand(rng, bound))
		}
		mMinus1 := natOf(new(big.Int).Sub(m, big.NewInt(1)))
		rMinus1 := nat{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		var z nat
		condSub(&z, &rMinus1, &mm.m)
		if want := new(big.Int).Sub(toBig(&rMinus1), m); toBig(&z).Cmp(want) != 0 {
			t.Fatalf("condSub(R−1) = %x, want %x", z, want)
		}
		edges := []nat{{}, {1}, mMinus1, mm.one, mm.rr}
		xs := append([]nat(nil), edges...)
		for i := 0; i < 500; i++ {
			xs = append(xs, below(m))
		}
		for _, x := range append(edges, rMinus1) {
			for _, y := range edges {
				checkProducts(t, mm, &x, &y)
			}
		}
		for i, x := range xs {
			y := xs[(i*7+3)%len(xs)]
			checkProducts(t, mm, &x, &y)
			// mul takes any x < R.
			checkProducts(t, mm, &rMinus1, &y)
			want := new(big.Int)
			addMod(&z, &x, &y, &mm.m)
			if want.Add(toBig(&x), toBig(&y)).Mod(want, m); toBig(&z).Cmp(want) != 0 {
				t.Fatalf("addMod(%x, %x) = %x, want %x", x, y, z, want)
			}
			subMod(&z, &x, &y, &mm.m)
			if want.Sub(toBig(&x), toBig(&y)).Mod(want, m); toBig(&z).Cmp(want) != 0 {
				t.Fatalf("subMod(%x, %x) = %x, want %x", x, y, z, want)
			}
			// condSub takes any x < 2m.
			if sum := new(big.Int).Add(toBig(&x), m); sum.BitLen() <= crtPrimeBits {
				x2 := natOf(sum)
				condSub(&z, &x2, &mm.m)
				if z != x {
					t.Fatalf("condSub(%x + m) = %x, want %x", x, z, x)
				}
			}
			condSub(&z, &x, &mm.m)
			if z != x {
				t.Fatalf("condSub(%x) = %x, want it unchanged", x, z)
			}
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
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), crtPrimeBits), m)
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
	f.Add(make([]byte, 128))
	f.Add(bytes.Repeat([]byte{0xff}, 128))
	f.Add(append(bytes.Repeat([]byte{0xff}, 64), make([]byte, 64)...))
	if !adxAvailable {
		f.Log("the CPU has no MULX/ADX: only the Go products are fuzzed against math/big")
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzModulus.once.Do(func() { fuzzModulus.mm = &fixedKey(t, "fuzz-mont", false).crt.p })
		mm := fuzzModulus.mm
		var in [128]byte
		copy(in[:], b)
		x := natOf(new(big.Int).SetBytes(in[:64]))
		y := natOf(new(big.Int).Mod(new(big.Int).SetBytes(in[64:]), toBig(&mm.m)))
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

func BenchmarkRSASign(b *testing.B) {
	s := fixedKey(b, "bench", false)
	msg := make([]byte, 40) // an authenticator body: seq plus chain hash
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Sign(msg)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		digest := sha256.Sum256(msg)
		for i := 0; i < b.N; i++ {
			rsa.SignPKCS1v15(nil, s.key, crypto.SHA256, digest[:])
		}
	})
}
