package sig

import (
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"
)

func TestRSASignVerify(t *testing.T) {
	s := MustGenerateRSA("alice", DefaultKeyBits, "test")
	msg := []byte("the quick brown fox")
	signature := s.Sign(msg)
	if len(signature) != s.SigLen() {
		t.Fatalf("signature length %d != SigLen %d", len(signature), s.SigLen())
	}
	v := s.Public()
	if !v.Verify(msg, signature) {
		t.Fatal("genuine signature rejected")
	}
	if v.Verify([]byte("other message"), signature) {
		t.Fatal("signature accepted for wrong message")
	}
	signature[0] ^= 0xFF
	if v.Verify(msg, signature) {
		t.Fatal("corrupted signature accepted")
	}
}

func TestKeyGenerationDistinctness(t *testing.T) {
	// Distinct principals and seeds never collide (a 1024-bit key is a
	// function of seed and id: TestGenerateRSAReproducible).
	a := MustGenerateRSA("alice", DefaultKeyBits, "seed1")
	b := MustGenerateRSA("alice", DefaultKeyBits, "seed2")
	c := MustGenerateRSA("bob", DefaultKeyBits, "seed1")
	if string(a.Public().Marshal()) == string(b.Public().Marshal()) {
		t.Fatal("different seeds produced same key")
	}
	if string(a.Public().Marshal()) == string(c.Public().Marshal()) {
		t.Fatal("different ids produced same key")
	}
}

// TestGenerateRSAReproducible: a 1024-bit key is a function of the seed and
// the id — the same modulus on every call — with three primes of 342, 341
// and 341 bits, which the kernel signs for, and e = 3.
func TestGenerateRSAReproducible(t *testing.T) {
	a := MustGenerateRSA("alice", DefaultKeyBits, "seed1")
	b := MustGenerateRSA("alice", DefaultKeyBits, "seed1")
	if a.key.N.Cmp(b.key.N) != 0 {
		t.Fatalf("the same seed and id gave two moduli:\n%x\n%x", a.key.N, b.key.N)
	}
	if a.key.N.BitLen() != DefaultKeyBits || len(a.key.Primes) != len(crtPrimeSizes) {
		t.Fatalf("a %d-bit key of %d primes", a.key.N.BitLen(), len(a.key.Primes))
	}
	for i, p := range a.key.Primes {
		if p.BitLen() != crtPrimeSizes[i] {
			t.Fatalf("prime %d has %d bits, want %d", i, p.BitLen(), crtPrimeSizes[i])
		}
	}
	if a.crt == nil {
		t.Fatal("a generated 1024-bit key is not signed by the kernel")
	}
	if a.key.E != 3 || a.pub.mont == nil || a.pub.mont.squarings != 1 {
		t.Fatalf("a generated 1024-bit key has e = %d", a.key.E)
	}
}

// TestGenerateRSAExponent: every 1024-bit key GenerateRSA makes has e = 3
// and three primes ≡ 2 (mod 3), so that 3 is prime to each p−1.
func TestGenerateRSAExponent(t *testing.T) {
	ids := make([]NodeID, 12)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("e%d", i))
	}
	three := big.NewInt(3)
	for _, s := range MustGenerateRSAAll(ids, DefaultKeyBits, "exponent") {
		if s.key.E != 3 {
			t.Fatalf("%s: e = %d", s.id, s.key.E)
		}
		if len(s.key.Primes) != crtPrimes {
			t.Fatalf("%s: %d primes", s.id, len(s.key.Primes))
		}
		for i, p := range s.key.Primes {
			if r := new(big.Int).Mod(p, three); r.Int64() != 2 {
				t.Fatalf("%s: prime %d is %d (mod 3)", s.id, i, r)
			}
		}
	}
}

func TestGenerateRSARejectsTinyKeys(t *testing.T) {
	if _, err := GenerateRSA("x", 128, "s"); err == nil {
		t.Fatal("128-bit key accepted")
	}
}

func TestCrossPrincipalRejection(t *testing.T) {
	alice := MustGenerateRSA("alice", DefaultKeyBits, "t")
	bob := MustGenerateRSA("bob", DefaultKeyBits, "t")
	msg := []byte("hello")
	if bob.Public().Verify(msg, alice.Sign(msg)) {
		t.Fatal("bob's verifier accepted alice's signature")
	}
}

func TestVerifierMarshalRoundTrip(t *testing.T) {
	s := MustGenerateRSA("alice", DefaultKeyBits, "t")
	der := s.Public().Marshal()
	v, err := ParseRSAVerifier("alice", der)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("round trip")
	if !v.Verify(msg, s.Sign(msg)) {
		t.Fatal("parsed verifier rejects genuine signature")
	}
	if _, err := ParseRSAVerifier("alice", []byte("junk")); err == nil {
		t.Fatal("junk key parsed")
	}
	if v.mont == nil || v.mont.squarings != 1 {
		t.Fatal("a parsed RSA-1024, e = 3 key has no Montgomery context of one squaring")
	}
	old := fixedKeyE(t, "e = 65537", primeOrders[0], oldExponent)
	if v, err := ParseRSAVerifier(old.id, old.Public().Marshal()); err != nil || v.mont == nil || v.mont.squarings != 16 || !v.Verify(msg, old.Sign(msg)) {
		t.Fatalf("a parsed RSA-1024, e = 65537 key: %v, no Montgomery context of sixteen squarings, or a genuine signature rejected", err)
	}

	// Keys of any other shape round-trip too, and verify through crypto/rsa:
	// a 1032-bit key, and a 1024-bit one with e = 7, neither 3 nor 65537
	// nor any 2ᵏ + 1.
	wider := MustGenerateRSA("wide", crtKeyBits+8, "t")
	e7key := fixedPrivateKey(t, "e = 7", primeOrders[0], 7)
	e7 := newRSASigner("e = 7", e7key)
	if e := e7key.E; e == keyExponent || e == oldExponent {
		t.Fatalf("the key not served has e = %d, one the package serves", e)
	}
	if e7.crt != nil {
		t.Fatal("a key with e = 7 is signed by the kernel")
	}
	digest := sha256.Sum256(msg)
	e7sig, err := rsa.SignPKCS1v15(nil, e7key, crypto.SHA256, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s         *RSASigner
		signature []byte
	}{{wider, wider.Sign(msg)}, {e7, e7sig}} {
		v, err := ParseRSAVerifier(c.s.id, c.s.Public().Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if v.mont != nil || c.s.pub.mont != nil {
			t.Fatalf("%s: a key of %d bits with e = %d has a Montgomery context", c.s.id, v.key.N.BitLen(), v.key.E)
		}
		if !v.Verify(msg, c.signature) || !c.s.Public().Verify(msg, c.signature) {
			t.Fatalf("%s: genuine signature rejected", c.s.id)
		}
		if v.Verify([]byte("other"), c.signature) {
			t.Fatalf("%s: signature accepted over the wrong message", c.s.id)
		}
	}
}

func TestNullSigner(t *testing.T) {
	n := NullSigner{Node: "x"}
	if n.SigLen() != 0 || n.Sign([]byte("m")) != nil {
		t.Fatal("null signer produced bytes")
	}
	if !n.Public().Verify([]byte("anything"), nil) {
		t.Fatal("null verifier rejected")
	}
}

func TestSizedSigner(t *testing.T) {
	s := SizedSigner{Node: "x", Size: 96}
	msg := []byte("m")
	signature := s.Sign(msg)
	if len(signature) != 96 || s.SigLen() != 96 {
		t.Fatalf("size = %d, want 96", len(signature))
	}
	if !s.Public().Verify(msg, signature) {
		t.Fatal("sized signature rejected")
	}
	if s.Public().Verify([]byte("other"), signature) {
		t.Fatal("sized signature accepted for wrong message")
	}
	if s.Public().Verify(msg, signature[:95]) {
		t.Fatal("short signature accepted")
	}
	other := SizedSigner{Node: "y", Size: 96}
	if other.Public().Verify(msg, signature) {
		t.Fatal("sized signature transferred between principals")
	}
}

func TestKeyStore(t *testing.T) {
	ks := NewKeyStore()
	alice := MustGenerateRSA("alice", DefaultKeyBits, "t")
	bob := MustGenerateRSA("bob", DefaultKeyBits, "t")
	ks.Add(alice.Public())
	ks.Add(bob.Public())
	msg := []byte("m")
	if !ks.Verify("alice", msg, alice.Sign(msg)) {
		t.Fatal("keystore rejected genuine signature")
	}
	if ks.Verify("bob", msg, alice.Sign(msg)) {
		t.Fatal("keystore verified wrong principal")
	}
	if ks.Verify("carol", msg, alice.Sign(msg)) {
		t.Fatal("unknown principal verified (fake identities must fail)")
	}
	ids := ks.IDs()
	if len(ids) != 2 || ids[0] != "alice" || ids[1] != "bob" {
		t.Fatalf("IDs = %v", ids)
	}
	if _, ok := ks.Lookup("alice"); !ok {
		t.Fatal("lookup failed")
	}
}

func TestCertificates(t *testing.T) {
	ca := MustGenerateRSA("admin", DefaultKeyBits, "ca")
	node := MustGenerateRSA("m1", DefaultKeyBits, "ca")
	cert := Issue(ca, node.Public())
	v, err := VerifyCertificate(ca.Public(), cert)
	if err != nil {
		t.Fatalf("genuine certificate rejected: %v", err)
	}
	msg := []byte("m")
	if !v.Verify(msg, node.Sign(msg)) {
		t.Fatal("certified key does not verify node signatures")
	}
	// Tampered subject.
	bad := cert
	bad.Subject = "mallory"
	if _, err := VerifyCertificate(ca.Public(), bad); err == nil {
		t.Fatal("certificate with altered subject accepted")
	}
	// Wrong issuer.
	other := MustGenerateRSA("other-ca", DefaultKeyBits, "ca")
	if _, err := VerifyCertificate(other.Public(), cert); err == nil {
		t.Fatal("certificate accepted under wrong authority")
	}
	// Corrupted signature.
	bad2 := cert
	bad2.Sig = append([]byte(nil), cert.Sig...)
	bad2.Sig[0] ^= 1
	if _, err := VerifyCertificate(ca.Public(), bad2); err == nil {
		t.Fatal("certificate with corrupted signature accepted")
	}
}

// TestPropertySignVerify: signatures verify for the signed message only.
func TestPropertySignVerify(t *testing.T) {
	s := MustGenerateRSA("p", DefaultKeyBits, "prop")
	v := s.Public()
	f := func(msg []byte, tweak byte) bool {
		signature := s.Sign(msg)
		if !v.Verify(msg, signature) {
			return false
		}
		altered := append(append([]byte(nil), msg...), tweak)
		return !v.Verify(altered, signature)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDetReaderIsDeterministicStream(t *testing.T) {
	r1 := newDetReader("s")
	r2 := newDetReader("s")
	a := make([]byte, 100)
	b := make([]byte, 100)
	if _, err := r1.Read(a); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Read(b); err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("det reader not deterministic")
	}
	r3 := newDetReader("other")
	c := make([]byte, 100)
	if _, err := r3.Read(c); err != nil {
		t.Fatal(err)
	}
	if string(a) == string(c) {
		t.Fatal("different seeds produced same stream")
	}
}

// BenchmarkGenerateRSA times building one 1024-bit key, as every scenario's
// set-up does for each principal: each iteration draws a key for another id.
func BenchmarkGenerateRSA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MustGenerateRSA(NodeID(fmt.Sprintf("k%d", i)), DefaultKeyBits, "bench")
	}
}
