package sig

import (
	"crypto/rsa"
	"encoding/binary"
	"errors"
	"math/big"
	"math/bits"
)

// crtKeyBits is the one modulus size the CRT kernel signs for: a two-prime
// key whose primes are both crtPrimeBits long.
const (
	crtKeyBits   = 1024
	crtPrimeBits = 512
)

// nat is a number below 2⁵¹² as eight 64-bit limbs, least significant
// first. R is 2⁵¹².
type nat [8]uint64

// wide is a number below 2¹⁰²⁴, least significant limb first.
type wide [16]uint64

// montModulus is one 512-bit prime of a key with everything Montgomery
// multiplication modulo it needs, and the CRT exponent that goes with it.
type montModulus struct {
	m     nat
	m0inv uint64   // −m⁻¹ mod 2⁶⁴
	rr    nat      // R² mod m
	one   nat      // R mod m: 1 in Montgomery form
	exp   [64]byte // d mod (m−1), big-endian at the full width of m
}

// crtKey signs for a 1024-bit two-prime key on the 8-limb kernel.
type crtKey struct {
	p, q  montModulus
	qInvR nat         // q⁻¹·R mod p
	qNat  nat         // q itself, for s = h·q + m₂
	pub   *montPublic // the public key, which every signature is verified under
}

// errSignatureFault is what the kernel returns when its result does not
// verify under the public key: a fault in the computation, which must not
// leave the signer (the result of a faulty CRT half factors the modulus).
var errSignatureFault = errors.New("signature does not verify under the public key")

// newCRTKey returns the kernel for key, whose public key's Montgomery
// context is pub, or nil when key is not a two-prime key of crtKeyBits with
// two crtPrimeBits primes and a context (e = 65537): those keep crypto/rsa.
// key must carry its precomputed CRT values, as rsa.GenerateKey's keys do.
// Everything here runs once per key and may take variable time.
func newCRTKey(key *rsa.PrivateKey, pub *montPublic) *crtKey {
	if pub == nil || len(key.Primes) != 2 ||
		key.Primes[0].BitLen() != crtPrimeBits || key.Primes[1].BitLen() != crtPrimeBits {
		return nil
	}
	p, q := key.Primes[0], key.Primes[1]
	pre := &key.Precomputed
	k := &crtKey{pub: pub, qNat: natOf(q)}
	k.p.init(p, pre.Dp)
	k.q.init(q, pre.Dq)
	k.qInvR = natOf(new(big.Int).Mod(new(big.Int).Lsh(pre.Qinv, crtPrimeBits), p))
	return k
}

func (mm *montModulus) init(m, d *big.Int) {
	mm.m = natOf(m)
	mm.m0inv = negInv(mm.m[0])
	r := new(big.Int).Lsh(big.NewInt(1), crtPrimeBits)
	mm.one = natOf(new(big.Int).Mod(r, m))
	mm.rr = natOf(new(big.Int).Mod(new(big.Int).Mul(r, r), m))
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
	var b [64]byte
	x.FillBytes(b[:])
	var z nat
	for i := range z {
		z[i] = binary.BigEndian.Uint64(b[64-8*(i+1):])
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

	// m₁ = c^dP mod p and m₂ = c^dQ mod q.
	var m1, m2 nat
	k.p.crtHalf(&m1, &c)
	k.q.crtHalf(&m2, &c)

	// h = (m₁ − m₂)·q⁻¹ mod p; m₂ < q < 2p, so one subtraction reduces it.
	var m2p, h nat
	condSub(&m2p, &m2, &k.p.m)
	subMod(&h, &m1, &m2p, &k.p.m)
	k.p.mul(&h, &h, &k.qInvR)

	// s = h·q + m₂ < p·q.
	var s wide
	mulWide(&s, &h, &k.qNat)
	var carry uint64
	for i := range m2 {
		s[i], carry = bits.Add64(s[i], m2[i], carry)
	}
	for i := len(m2); i < len(s); i++ {
		s[i], carry = bits.Add64(s[i], 0, carry)
	}
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

// crtHalf sets z = c^exp mod m, with a fixed 4-bit window over all 512
// bits of the exponent.
func (mm *montModulus) crtHalf(z *nat, c *wide) {
	// c mod m = c_lo + c_hi·R mod m: c_hi·R is one Montgomery product with
	// R², and c_lo < R ≤ 2m needs one subtraction. One more product with R²
	// puts c into Montgomery form, c·R mod m.
	var lo, hi, x nat
	copy(lo[:], c[:8])
	copy(hi[:], c[8:])
	mm.mul(&hi, &hi, &mm.rr)
	condSub(&lo, &lo, &mm.m)
	addMod(&x, &lo, &hi, &mm.m)
	mm.mul(&x, &x, &mm.rr)

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
