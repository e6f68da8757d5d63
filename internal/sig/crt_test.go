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

// fixedKey builds a 1024-bit signer from seed alone: unlike GenerateRSA,
// whose keys crypto/rsa randomizes, the same seed gives the same key on
// every run, so a fuzz input that fails keeps failing. With swap the
// smaller prime is Primes[0], the order in which m₂ ≥ p can happen.
func fixedKey(t testing.TB, seed string, swap bool) *RSASigner {
	t.Helper()
	r := newDetReader(seed)
	one := big.NewInt(1)
	e := big.NewInt(65537)
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
	return &RSASigner{id: NodeID(seed), key: key, bits: crtKeyBits, crt: newCRTKey(key)}
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

// TestRSASignMatchesStdlib: the kernel signs every 1024-bit key, with the
// primes in either order, byte for byte as crypto/rsa does; other key sizes
// are signed by crypto/rsa itself.
func TestRSASignMatchesStdlib(t *testing.T) {
	ids := make([]NodeID, 20)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("k%d", i))
	}
	signers := MustGenerateRSAAll(ids, DefaultKeyBits, "stdlib")
	signers = append(signers, fixedKey(t, "fixed-p>q", false), fixedKey(t, "fixed-p<q", true))
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
// a few fixed keys is crypto/rsa's.
func FuzzRSASign(f *testing.F) {
	for _, seed := range []string{"", "m", "\x00\x01\xff", strings.Repeat("authenticator", 10)} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, msg []byte) {
		fuzzKeys.once.Do(func() {
			fuzzKeys.keys = []*RSASigner{fixedKey(t, "fuzz-0", false), fixedKey(t, "fuzz-1", true), fixedKey(t, "fuzz-2", false)}
		})
		for _, s := range fuzzKeys.keys {
			requireStdlibSignature(t, s, msg)
		}
	})
}

// TestRSASignFaultCheck: a kernel with one constant wrong computes a wrong
// signature, and Sign panics rather than return it.
func TestRSASignFaultCheck(t *testing.T) {
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

// TestMontArithmeticMatchesBig holds mul, sqr and the modular helpers to
// math/big, on random operands and the edges of their ranges.
func TestMontArithmeticMatchesBig(t *testing.T) {
	s := fixedKey(t, "arith", false)
	rng := rand.New(rand.NewSource(2))
	for _, mm := range []*montModulus{&s.crt.p, &s.crt.q} {
		m := toBig(&mm.m)
		rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), crtPrimeBits), m)
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
		xs := []nat{{}, {1}, mMinus1, mm.one, mm.rr}
		for i := 0; i < 500; i++ {
			xs = append(xs, below(m))
		}
		for i, x := range xs {
			y := xs[(i*7+3)%len(xs)]
			want := new(big.Int).Mul(toBig(&x), toBig(&y))
			want.Mul(want, rInv).Mod(want, m)
			mm.mul(&z, &x, &y)
			if toBig(&z).Cmp(want) != 0 {
				t.Fatalf("mul(%x, %x) = %x, want %x", x, y, z, want)
			}
			wantSq := new(big.Int).Mul(toBig(&x), toBig(&x))
			wantSq.Mul(wantSq, rInv).Mod(wantSq, m)
			mm.sqr(&z, &x)
			if toBig(&z).Cmp(wantSq) != 0 {
				t.Fatalf("sqr(%x) = %x, want %x", x, z, wantSq)
			}
			// mul takes any x < R.
			mm.mul(&z, &rMinus1, &y)
			want.Mul(toBig(&rMinus1), toBig(&y)).Mul(want, rInv).Mod(want, m)
			if toBig(&z).Cmp(want) != 0 {
				t.Fatalf("mul(R−1, %x) = %x, want %x", y, z, want)
			}
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

func toBig(x *nat) *big.Int {
	z := new(big.Int)
	for i := len(x) - 1; i >= 0; i-- {
		z.Lsh(z, 64).Or(z, new(big.Int).SetUint64(x[i]))
	}
	return z
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
