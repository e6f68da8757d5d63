package sig

import (
	"crypto/rsa"
	"math/big"
	"math/bits"
)

// montPublic is a 1024-bit public modulus N with everything Montgomery
// multiplication modulo it needs, and the public exponent as the k of
// e = 2ᵏ + 1. R is 2¹⁰²⁴ here.
type montPublic struct {
	n         wide
	n0inv     uint64 // −N⁻¹ mod 2⁶⁴
	rr        wide   // R² mod N
	squarings int    // k: 1 for e = 3, 16 for e = 65537
}

// newMontPublic returns the Montgomery context of pub, or nil when pub is
// not an odd 1024-bit modulus with e = 2ᵏ + 1 below 2³¹ (e = 3 and e = 65537
// among them): those keys verify through crypto/rsa. It runs once per key,
// with math/big.
func newMontPublic(pub *rsa.PublicKey) *montPublic {
	e := pub.E
	if e < 3 || e > 1<<31-1 || (e-1)&(e-2) != 0 || pub.N.BitLen() != crtKeyBits || pub.N.Bit(0) == 0 {
		return nil
	}
	var b [crtKeyBits / 8]byte
	pub.N.FillBytes(b[:])
	k := &montPublic{n: wideOf(&b), squarings: bits.TrailingZeros(uint(e - 1))}
	k.n0inv = negInv(k.n[0])
	rr := new(big.Int).Lsh(big.NewInt(1), 2*crtKeyBits)
	rr.Mod(rr, pub.N).FillBytes(b[:])
	k.rr = wideOf(&b)
	return k
}

// verify reports whether signature is the PKCS#1 v1.5 signature over a
// SHA-256 digest under the key: exactly when rsa.VerifyPKCS1v15 accepts it.
// Like crypto/rsa it rejects a signature of any length but the modulus's
// and any s ≥ N, and compares s^e mod N with the expected encoding, every
// byte of it. Past those two checks it takes the same time whatever the
// signature.
func (k *montPublic) verify(digest *[32]byte, signature []byte) bool {
	if len(signature) != crtKeyBits/8 {
		return false
	}
	s := wideOf((*[crtKeyBits / 8]byte)(signature))
	if !less(&s, &k.n) {
		return false
	}
	// s^(2ᵏ+1) = s^(2ᵏ)·s: s·R² puts s into Montgomery form, k squarings
	// raise it, and the product with s itself takes the result out of the
	// form again — three products for e = 3, eighteen for e = 65537.
	var x wide
	k.mul(&x, &s, &k.rr)
	for i := 0; i < k.squarings; i++ {
		k.mul(&x, &x, &x)
	}
	k.mul(&x, &x, &s)
	em := encodeEM(digest)
	var diff uint64
	for i := range x {
		diff |= x[i] ^ em[i]
	}
	return diff == 0
}

// mul sets z = x·y·R⁻¹ mod N for x, y < N; z may alias x or y. Row i adds
// x·y[i] and then u·N, u chosen to clear limb i, into a 32-limb window
// (separated operand scanning, as crypto/internal/fips140/bigmod does it):
// limbs 16–31 end up holding the product, below 2N with c its top bit. The
// final subtraction is a mask, as the kernel's is: see the package comment
// for why a verify runs the same instructions whatever its operands.
func (k *montPublic) mul(z, x, y *wide) {
	var t [2 * len(wide{})]uint64
	var c uint64
	for i, yi := range y {
		row := (*wide)(t[i:])
		c1 := addMulRow16(row, x, yi)
		c2 := addMulRow16(row, &k.n, t[i]*k.n0inv)
		t[len(wide{})+i], c = bits.Add64(c1, c2, c)
	}
	var d wide
	var b uint64
	for i := range d {
		d[i], b = bits.Sub64(t[len(wide{})+i], k.n[i], b)
	}
	_, b = bits.Sub64(c, 0, b)
	keep := -b // all ones when the product is already below N
	for i := range z {
		z[i] = t[len(wide{})+i]&keep | d[i]&^keep
	}
}

// less reports whether x < y.
func less(x, y *wide) bool {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// addMulRow16 sets z = z + x·y mod 2¹⁰²⁴ and returns the carry-out limb. It
// runs addMulRow16ADX (mont_amd64.s) where the CPU has MULX and ADX, and
// addMulRow16Generic everywhere else.
func addMulRow16(z, x *wide, y uint64) uint64 {
	if useADX {
		return addMulRow16ADX(z, x, y)
	}
	return addMulRow16Generic(z, x, y)
}

// addMulRow16Generic is addMulRow16 in Go, the reference the assembly is
// tested against. It is written out limb by limb, as mulGeneric is: with the
// same steps as a loop over the limbs a verify took 20–30 % longer.
func addMulRow16Generic(z, x *wide, y uint64) uint64 {
	var hi, lo, c, carry uint64
	hi, lo = bits.Mul64(x[0], y)
	lo, c = bits.Add64(lo, z[0], 0)
	hi += c
	z[0], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[1], y)
	lo, c = bits.Add64(lo, z[1], 0)
	hi += c
	z[1], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[2], y)
	lo, c = bits.Add64(lo, z[2], 0)
	hi += c
	z[2], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[3], y)
	lo, c = bits.Add64(lo, z[3], 0)
	hi += c
	z[3], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[4], y)
	lo, c = bits.Add64(lo, z[4], 0)
	hi += c
	z[4], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[5], y)
	lo, c = bits.Add64(lo, z[5], 0)
	hi += c
	z[5], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[6], y)
	lo, c = bits.Add64(lo, z[6], 0)
	hi += c
	z[6], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[7], y)
	lo, c = bits.Add64(lo, z[7], 0)
	hi += c
	z[7], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[8], y)
	lo, c = bits.Add64(lo, z[8], 0)
	hi += c
	z[8], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[9], y)
	lo, c = bits.Add64(lo, z[9], 0)
	hi += c
	z[9], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[10], y)
	lo, c = bits.Add64(lo, z[10], 0)
	hi += c
	z[10], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[11], y)
	lo, c = bits.Add64(lo, z[11], 0)
	hi += c
	z[11], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[12], y)
	lo, c = bits.Add64(lo, z[12], 0)
	hi += c
	z[12], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[13], y)
	lo, c = bits.Add64(lo, z[13], 0)
	hi += c
	z[13], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[14], y)
	lo, c = bits.Add64(lo, z[14], 0)
	hi += c
	z[14], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[15], y)
	lo, c = bits.Add64(lo, z[15], 0)
	hi += c
	z[15], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	return carry
}
