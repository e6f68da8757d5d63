package sig

import (
	"bytes"
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// requireStdlibVerdict fails unless v, which must verify on its own
// Montgomery context, accepts signature over msg exactly when
// rsa.VerifyPKCS1v15 does, and returns that verdict.
func requireStdlibVerdict(t testing.TB, v *RSAVerifier, msg, signature []byte) bool {
	t.Helper()
	if v.mont == nil {
		t.Fatalf("%s: a 1024-bit key with e = 65537 has no Montgomery context", v.id)
	}
	digest := sha256.Sum256(msg)
	want := rsa.VerifyPKCS1v15(v.key, crypto.SHA256, digest[:], signature) == nil
	if got := v.Verify(msg, signature); got != want {
		t.Fatalf("%s: Verify(%x, %x) = %v, crypto/rsa says %v", v.id, msg, signature, got, want)
	}
	return want
}

// bytesOf is x as a 128-byte big-endian signature; x must be below 2¹⁰²⁴.
func bytesOf(x *big.Int) []byte {
	return x.FillBytes(make([]byte, crtKeyBits/8))
}

// TestRSAVerifyMatchesStdlib: the package's own verify accepts exactly what
// rsa.VerifyPKCS1v15 accepts, on both implementations of its row: genuine
// signatures, each of their single-bit flips, the edges of the signature's
// range, wrong lengths, the wrong message and another key's signature.
func TestRSAVerifyMatchesStdlib(t *testing.T) {
	signers := MustGenerateRSAAll([]NodeID{"v0", "v1"}, DefaultKeyBits, "verify")
	signers = append(signers, fixedKey(t, "verify-0", primeOrders[0]), fixedKey(t, "verify-1", primeOrders[5]))
	onEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for i, s := range signers {
			v := s.Public().(*RSAVerifier)
			msg := []byte("an authenticator")
			genuine := s.Sign(msg)
			if !requireStdlibVerdict(t, v, msg, genuine) {
				t.Fatalf("%s: genuine signature rejected", s.id)
			}
			for j := 0; j < 10; j++ {
				m := make([]byte, rng.Intn(100))
				rng.Read(m)
				if !requireStdlibVerdict(t, v, m, s.Sign(m)) {
					t.Fatalf("%s: genuine signature over %x rejected", s.id, m)
				}
			}
			for bit := 0; bit < 8*len(genuine); bit++ {
				flipped := bytes.Clone(genuine)
				flipped[bit/8] ^= 1 << (bit % 8)
				requireStdlibVerdict(t, v, msg, flipped)
			}

			n := v.key.N
			one := big.NewInt(1)
			edges := map[string]*big.Int{
				"0":       new(big.Int),
				"1":       one,
				"N−1":     new(big.Int).Sub(n, one),
				"N":       n,
				"N+1":     new(big.Int).Add(n, one),
				"2¹⁰²⁴−1": new(big.Int).Sub(new(big.Int).Lsh(one, crtKeyBits), one),
			}
			if plusN := new(big.Int).Add(new(big.Int).SetBytes(genuine), n); plusN.BitLen() <= crtKeyBits {
				edges["genuine+N"] = plusN
			}
			for name, x := range edges {
				if requireStdlibVerdict(t, v, msg, bytesOf(x)) {
					t.Fatalf("%s: s = %s accepted", s.id, name)
				}
			}

			for _, bad := range [][]byte{genuine[1:], append([]byte{0}, genuine...), genuine[:127], append(bytes.Clone(genuine), 0), nil} {
				if requireStdlibVerdict(t, v, msg, bad) {
					t.Fatalf("%s: a %d-byte signature accepted", s.id, len(bad))
				}
			}
			if requireStdlibVerdict(t, v, []byte("another authenticator"), genuine) {
				t.Fatalf("%s: signature accepted over the wrong message", s.id)
			}
			other := signers[(i+1)%len(signers)]
			if requireStdlibVerdict(t, v, msg, other.Sign(msg)) {
				t.Fatalf("%s: %s's signature accepted", s.id, other.id)
			}
		}
	})
}

var fuzzVerifyKeys struct {
	once sync.Once
	keys []*RSASigner
}

// FuzzRSAVerify: whatever the signature and the message, the package's own
// verify under each of two fixed keys says what rsa.VerifyPKCS1v15 says, on
// both implementations of its row. The seeds include genuine signatures, so
// mutations start from the accepting side too.
func FuzzRSAVerify(f *testing.F) {
	fuzzVerifyKeys.once.Do(func() {
		fuzzVerifyKeys.keys = []*RSASigner{fixedKey(f, "fuzz-verify-0", primeOrders[0]), fixedKey(f, "fuzz-verify-1", primeOrders[5])}
	})
	for _, s := range fuzzVerifyKeys.keys {
		for _, msg := range []string{"", "m", "an authenticator"} {
			f.Add(s.Sign([]byte(msg)), []byte(msg))
		}
	}
	f.Add(make([]byte, 128), []byte("m"))
	f.Add(bytes.Repeat([]byte{0xff}, 128), []byte("m"))
	if !adxAvailable {
		f.Log("the CPU has no MULX/ADX: only the Go row is fuzzed")
	}
	defer func(v bool) { useADX = v }(useADX)
	f.Fuzz(func(t *testing.T, signature, msg []byte) {
		for _, p := range kernelPaths {
			if p.adx && !adxAvailable {
				continue
			}
			useADX = p.adx
			for _, s := range fuzzVerifyKeys.keys {
				requireStdlibVerdict(t, s.pub, msg, signature)
			}
		}
	})
}

func BenchmarkRSAVerify(b *testing.B) {
	s := fixedKey(b, "bench", primeOrders[0])
	msg := make([]byte, 40) // an authenticator body: seq plus chain hash
	signature := s.Sign(msg)
	defer func(v bool) { useADX = v }(useADX)
	for _, p := range kernelPaths {
		if p.adx && !adxAvailable {
			continue
		}
		b.Run("own/"+p.name, func(b *testing.B) {
			useADX = p.adx
			for i := 0; i < b.N; i++ {
				s.pub.Verify(msg, signature)
			}
		})
	}
	b.Run("stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			digest := sha256.Sum256(msg)
			rsa.VerifyPKCS1v15(&s.key.PublicKey, crypto.SHA256, digest[:], signature)
		}
	})
}
