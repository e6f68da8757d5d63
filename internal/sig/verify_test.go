package sig

import (
	"bytes"
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
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
		t.Fatalf("%s: a 1024-bit key with e = %d has no Montgomery context", v.id, v.key.E)
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
// rsa.VerifyPKCS1v15 accepts, on both implementations of its row and under
// keys with e = 3 and e = 65537: genuine signatures, each of their
// single-bit flips, the edges of the signature's range, wrong lengths, the
// wrong message, another key's signature, and true e-th roots of blocks
// that are not the expected encoding but that a verifier parsing the
// padding could take for it. The last are what makes e = 3 safe here, and
// both verifies must reject every one.
func TestRSAVerifyMatchesStdlib(t *testing.T) {
	signers := MustGenerateRSAAll([]NodeID{"v0", "v1"}, DefaultKeyBits, "verify")
	for _, e := range keyExponents {
		signers = append(signers, fixedKeyE(t, "verify-0", primeOrders[0], e), fixedKeyE(t, "verify-1", primeOrders[5], e))
	}
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

			digest := sha256.Sum256(msg)
			if !bytes.Equal(rawSign(s.key, pkcs1Block(&digest)), genuine) {
				t.Fatalf("%s: the raw root of the expected block is not the signature", s.id)
			}
			for _, c := range laxBlocks(&digest) {
				if requireStdlibVerdict(t, v, msg, rawSign(s.key, c.em)) {
					t.Fatalf("%s: the root of a block with %s accepted", s.id, c.name)
				}
			}
		}
	})
}

// pkcs1Block is the PKCS#1 v1.5 block a 1024-bit signature over digest is
// the e-th root of: 00 01 FF… 00 DigestInfo digest.
func pkcs1Block(digest *[32]byte) []byte {
	em := encodeEM(digest)
	b := make([]byte, crtKeyBits/8)
	for i, limb := range em {
		binary.BigEndian.PutUint64(b[len(b)-8*(i+1):], limb)
	}
	return b
}

// laxBlock is a block that is not the PKCS#1 v1.5 block of a digest but
// that a verifier which parses the padding instead of comparing the whole
// block could accept: Bleichenbacher's e = 3 forgery needs one such
// verifier, since it can only choose the block's top bytes.
type laxBlock struct {
	name string
	em   []byte
}

// laxBlocks are the lax blocks around digest the verify tests reject.
func laxBlocks(digest *[32]byte) []laxBlock {
	em := pkcs1Block(digest)
	t := len(em) - len(digest) - len(sha256DigestInfo) // where DigestInfo starts
	garbage := bytes.Repeat([]byte{0x5a}, 16)
	// shifted moves DigestInfo and digest n bytes up, into the FF run, and
	// fills the n bytes after them with tail.
	shifted := func(n int, tail []byte) []byte {
		b := bytes.Clone(em)
		copy(b[t-1-n:], em[t-1:])
		copy(b[len(b)-n:], tail[:n])
		return b
	}
	edit := func(f func(b []byte)) []byte {
		b := bytes.Clone(em)
		f(b)
		return b
	}
	return []laxBlock{
		{"garbage after the digest and a shorter FF run", shifted(16, garbage)},
		{"one byte after the digest", shifted(1, garbage)},
		{"zeros after the digest", shifted(16, make([]byte, 16))},
		{"eight FF bytes, the least a parser asks for, then garbage after the digest", shifted(t-1-2-8, bytes.Repeat([]byte{0xa5}, t-1-2-8))},
		{"SHA-512's OID in DigestInfo", edit(func(b []byte) { b[t+14] = 0x03 })},
		{"a DigestInfo without the NULL parameters", edit(func(b []byte) {
			info := []byte{0x30, 0x2f, 0x30, 0x0b}
			info = append(info, sha256DigestInfo[4:15]...)
			info = append(info, 0x04, 0x20)
			copy(b[t-1:], append([]byte{0xff, 0xff, 0x00}, info...))
		})},
		{"a DigestInfo length one too long", edit(func(b []byte) { b[t+1]++ })},
		{"block type 2", edit(func(b []byte) { b[1] = 2 })},
		{"a nonzero first byte", edit(func(b []byte) { b[0] = 1 })},
		{"a nonzero byte in the FF run", edit(func(b []byte) { b[40] = 0x7f })},
		{"no zero before DigestInfo", edit(func(b []byte) { b[t-1] = 0xff })},
	}
}

// rawSign is em^d mod N: the signature over a block of the test's choosing,
// made with the private key, as no signer of the package would make it.
func rawSign(key *rsa.PrivateKey, em []byte) []byte {
	return bytesOf(new(big.Int).Exp(new(big.Int).SetBytes(em), key.D, key.N))
}

var fuzzVerifyKeys struct {
	once sync.Once
	keys []*RSASigner
}

// FuzzRSAVerify: whatever the signature and the message, the package's own
// verify under each of four fixed keys, two with e = 3 and two with
// e = 65537, says what rsa.VerifyPKCS1v15 says, on both implementations of
// its row. The seeds include genuine signatures, so mutations start from
// the accepting side too.
func FuzzRSAVerify(f *testing.F) {
	fuzzVerifyKeys.once.Do(func() {
		for _, e := range keyExponents {
			fuzzVerifyKeys.keys = append(fuzzVerifyKeys.keys,
				fixedKeyE(f, "fuzz-verify-0", primeOrders[0], e), fixedKeyE(f, "fuzz-verify-1", primeOrders[5], e))
		}
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

// BenchmarkRSAVerify times the package's own verify, on each
// implementation of its row, against crypto/rsa, under a key with e = 3 and
// one with e = 65537.
func BenchmarkRSAVerify(b *testing.B) {
	msg := make([]byte, 40) // an authenticator body: seq plus chain hash
	defer func(v bool) { useADX = v }(useADX)
	for _, e := range keyExponents {
		s := fixedKeyE(b, "bench", primeOrders[0], e)
		signature := s.Sign(msg)
		for _, p := range kernelPaths {
			if p.adx && !adxAvailable {
				continue
			}
			b.Run(fmt.Sprintf("e=%d/own/%s", e, p.name), func(b *testing.B) {
				useADX = p.adx
				for i := 0; i < b.N; i++ {
					s.pub.Verify(msg, signature)
				}
			})
		}
		b.Run(fmt.Sprintf("e=%d/stdlib", e), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				digest := sha256.Sum256(msg)
				rsa.VerifyPKCS1v15(&s.key.PublicKey, crypto.SHA256, digest[:], signature)
			}
		})
	}
}
