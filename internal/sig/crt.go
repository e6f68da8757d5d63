package sig

import (
	"crypto/rsa"
	"encoding/binary"
	"errors"
	"math/big"
)

// crtKeyBits is the one modulus size the CRT kernel signs for: a key of
// crtPrimes primes, as GenerateRSA makes them (crtPrimeSizes), each at most
// crtPrimeBits long — the fixed width of the kernel's exponents.
const (
	crtKeyBits   = 1024
	crtPrimes    = 3
	crtPrimeBits = 344
)

// crtPrimeSizes are the bit lengths of the primes GenerateRSA draws for a
// key of crtKeyBits (the package comment says why three).
var crtPrimeSizes = []int{342, 341, 341}

// nat is a number below 2³⁸⁴ as six 64-bit limbs, least significant
// first. R is 2³⁸⁴.
type nat [6]uint64

// natBits is the width of a nat: R = 2^natBits.
const natBits = 64 * uint(len(nat{}))

// wide is a number below 2¹⁰²⁴, least significant limb first.
type wide [16]uint64

// montModulus is one prime of a key, of at most crtPrimeBits, with
// everything Montgomery multiplication modulo it needs, and the CRT
// exponent that goes with it.
type montModulus struct {
	m     nat
	m0inv uint64                 // −m⁻¹ mod 2⁶⁴
	one   nat                    // R mod m: 1 in Montgomery form
	rr    nat                    // R² mod m
	r3    nat                    // R³ mod m
	r4    nat                    // R⁴ mod m
	exp   [crtPrimeBits / 8]byte // d mod (m−1), big-endian at the fixed width
}

// crtKey signs for a 1024-bit three-prime key on the 6-limb kernel: one
// third of the exponentiation modulo each prime, then Garner's
// recombination.
type crtKey struct {
	thirds [crtPrimes]montModulus // modulo p₁, p₂, p₃, the key's primes in order
	inv12  nat                    // p₁⁻¹·R mod p₂
	inv13  nat                    // p₁⁻¹·R mod p₃
	inv23  nat                    // p₂⁻¹·R mod p₃
	pub    *montPublic            // the public key, which every signature is verified under
}

// errSignatureFault is what the kernel returns when its result does not
// verify under the public key: a fault in the computation, which must not
// leave the signer (the result of a faulty CRT third factors the modulus).
var errSignatureFault = errors.New("signature does not verify under the public key")

// newCRTKey returns the kernel for key, whose public key's Montgomery
// context is pub, or nil — the key then keeps crypto/rsa — unless pub is
// set (a 1024-bit N, e = 2ᵏ + 1: 3, or 65537 for keys made before
// GenerateRSA took 3) and key has three distinct primes, each at most
// crtPrimeBits long. Everything here runs once per key, with
// math/big, and may take variable time.
func newCRTKey(key *rsa.PrivateKey, pub *montPublic) *crtKey {
	if pub == nil || len(key.Primes) != crtPrimes {
		return nil
	}
	for _, p := range key.Primes {
		if p.BitLen() > crtPrimeBits {
			return nil
		}
	}
	p1, p2, p3 := key.Primes[0], key.Primes[1], key.Primes[2]
	k := &crtKey{pub: pub}
	for _, c := range []struct {
		z    *nat
		a, m *big.Int
	}{{&k.inv12, p1, p2}, {&k.inv13, p1, p3}, {&k.inv23, p2, p3}} {
		inv := new(big.Int).ModInverse(c.a, c.m)
		if inv == nil {
			return nil
		}
		*c.z = natOf(inv.Lsh(inv, natBits).Mod(inv, c.m))
	}
	for i, p := range key.Primes {
		k.thirds[i].init(p, new(big.Int).Mod(key.D, new(big.Int).Sub(p, big.NewInt(1))))
	}
	return k
}

func (mm *montModulus) init(m, d *big.Int) {
	mm.m = natOf(m)
	mm.m0inv = negInv(mm.m[0])
	r := new(big.Int).Lsh(big.NewInt(1), natBits)
	rk := new(big.Int).Mod(r, m)
	for _, z := range []*nat{&mm.one, &mm.rr, &mm.r3, &mm.r4} {
		*z = natOf(rk)
		rk.Mul(rk, r).Mod(rk, m)
	}
	d.FillBytes(mm.exp[:])
}

// negInv returns −m⁻¹ mod 2⁶⁴ for an odd m. Newton's iteration doubles the
// correct low bits of an inverse mod 2⁶⁴; an odd m is its own inverse to
// three bits.
func negInv(m uint64) uint64 {
	inv := m
	for i := 0; i < 5; i++ {
		inv *= 2 - m*inv
	}
	return -inv
}

// natOf converts x, which must be below R.
func natOf(x *big.Int) nat {
	var b [8 * len(nat{})]byte
	x.FillBytes(b[:])
	var z nat
	for i := range z {
		z[i] = binary.BigEndian.Uint64(b[len(b)-8*(i+1):])
	}
	return z
}

// sha256DigestInfo is the DER prefix PKCS#1 v1.5 puts before a SHA-256
// digest (RFC 8017 §9.2, note 1).
var sha256DigestInfo = [...]byte{0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20}

// encodeEM returns the PKCS#1 v1.5 encoding of a SHA-256 digest for a
// 1024-bit modulus, EM = 0x00 ‖ 0x01 ‖ 0xff… ‖ 0x00 ‖ DigestInfo ‖ digest,
// as a number: what a signature is the e-th root of.
func encodeEM(digest *[32]byte) wide {
	var em [crtKeyBits / 8]byte
	em[1] = 1
	t := len(em) - len(digest) - len(sha256DigestInfo)
	for i := 2; i < t-1; i++ {
		em[i] = 0xff
	}
	copy(em[t:], sha256DigestInfo[:])
	copy(em[len(em)-len(digest):], digest[:])
	return wideOf(&em)
}

// wideOf reads a 128-byte big-endian number.
func wideOf(b *[crtKeyBits / 8]byte) wide {
	var z wide
	for i := range z {
		z[i] = binary.BigEndian.Uint64(b[len(b)-8*(i+1):])
	}
	return z
}

// sign returns the PKCS#1 v1.5 signature over a SHA-256 digest, the same
// bytes rsa.SignPKCS1v15 returns, or errSignatureFault.
func (k *crtKey) sign(digest *[32]byte) ([]byte, error) {
	c := encodeEM(digest)

	// mᵢ = c^dᵢ mod pᵢ, one third at a time.
	var m [crtPrimes]nat
	for i := range k.thirds {
		k.thirds[i].power(&m[i], &c)
	}

	// Garner: s = m₁ + p₁·(v₂ + p₂·v₃) with
	//   v₂ = (m₂ − m₁)·p₁⁻¹ mod p₂,
	//   v₃ = ((m₃ − m₁)·p₁⁻¹ − v₂)·p₂⁻¹ mod p₃.
	// A Montgomery product with a⁻¹·R mod p is x·a⁻¹ mod p, below p, for any
	// x < R: so mᵢ and v₂ need no reducing modulo another prime, whichever
	// of the primes is the larger.
	t1, t2, t3 := &k.thirds[0], &k.thirds[1], &k.thirds[2]
	var a, b, v2, v3 nat
	t2.mul(&a, &m[1], &k.inv12)
	t2.mul(&b, &m[0], &k.inv12)
	subMod(&v2, &a, &b, &t2.m)
	t3.mul(&a, &m[2], &k.inv13)
	t3.mul(&b, &m[0], &k.inv13)
	subMod(&a, &a, &b, &t3.m)
	t3.mul(&a, &a, &k.inv23)
	t3.mul(&b, &v2, &k.inv23)
	subMod(&v3, &a, &b, &t3.m)

	// s = m₁ + p₁·(v₂ + p₂·v₃) < p₁·p₂·p₃.
	var s wide
	copy(s[:], v3[:])
	mulAddWide(&s, &s, &t2.m, &v2)
	mulAddWide(&s, &s, &t1.m, &m[0])
	signature := make([]byte, crtKeyBits/8)
	for i := range s {
		binary.BigEndian.PutUint64(signature[len(signature)-8*(i+1):], s[i])
	}

	// The check crypto/rsa makes before it returns a signature.
	if !k.pub.verify(digest, signature) {
		return nil, errSignatureFault
	}
	return signature, nil
}

// power sets z = c^exp mod m, with a fixed 4-bit window over all
// crtPrimeBits bits of the exponent.
func (mm *montModulus) power(z *nat, c *wide) {
	// c·R mod m, c in Montgomery form, from c = c₀ + c₁·R + c₂·R²: three
	// Montgomery products, cᵢ·Rⁱ⁺² · R⁻¹ mod m, each below m whatever cᵢ < R.
	var c0, c1, c2, x, t nat
	copy(c0[:], c[0:6])
	copy(c1[:], c[6:12])
	copy(c2[:], c[12:16])
	mm.mul(&x, &c0, &mm.rr)
	mm.mul(&t, &c1, &mm.r3)
	addMod(&x, &x, &t, &mm.m)
	mm.mul(&t, &c2, &mm.r4)
	addMod(&x, &x, &t, &mm.m)

	var table [16]nat
	table[0] = mm.one
	table[1] = x
	for i := 2; i < len(table); i++ {
		mm.mul(&table[i], &table[i-1], &x)
	}

	acc := mm.one
	var v nat
	for _, b := range mm.exp {
		for _, w := range [2]uint64{uint64(b >> 4), uint64(b & 0x0f)} {
			mm.sqr(&acc, &acc)
			mm.sqr(&acc, &acc)
			mm.sqr(&acc, &acc)
			mm.sqr(&acc, &acc)
			lookup(&v, &table, w)
			mm.mul(&acc, &acc, &v)
		}
	}
	// Out of Montgomery form: acc·1·R⁻¹.
	mm.mul(z, &acc, &nat{1})
}
