package sig

import "math/bits"

// The 8-limb arithmetic of the CRT kernel. Nothing here branches on,
// indexes by or stops early on a value: every function runs the same
// instructions whatever its operands (bits.Mul64, Add64 and Sub64 compile
// to multiply and add-with-carry instructions, without branches, on amd64
// and arm64), and a choice between two results is made with a mask; mul
// and sqr branch only on useADX, a property of the CPU. mulGeneric and
// sqrGeneric are written out limb by limb because the compiler keeps the
// limbs in registers then: the same rounds as loops over arrays ran 25–40 %
// slower.

// lookup sets z = table[w], reading every entry.
func lookup(z *nat, table *[16]nat, w uint64) {
	var v0, v1, v2, v3, v4, v5, v6, v7 uint64
	for i := range table {
		d := uint64(i) ^ w
		mask := ((d | -d) >> 63) - 1 // all ones when d == 0
		e := &table[i]
		v0 |= e[0] & mask
		v1 |= e[1] & mask
		v2 |= e[2] & mask
		v3 |= e[3] & mask
		v4 |= e[4] & mask
		v5 |= e[5] & mask
		v6 |= e[6] & mask
		v7 |= e[7] & mask
	}
	*z = nat{v0, v1, v2, v3, v4, v5, v6, v7}
}

// condSub sets z = x − m if x ≥ m, else x; x must be below 2m.
func condSub(z, x, m *nat) {
	var d nat
	var b uint64
	for j := range d {
		d[j], b = bits.Sub64(x[j], m[j], b)
	}
	keep := -b
	for j := range z {
		z[j] = x[j]&keep | d[j]&^keep
	}
}

// addMod sets z = x + y mod m for x, y < m.
func addMod(z, x, y, m *nat) {
	var s, d nat
	var c, b uint64
	for j := range s {
		s[j], c = bits.Add64(x[j], y[j], c)
	}
	for j := range d {
		d[j], b = bits.Sub64(s[j], m[j], b)
	}
	_, b = bits.Sub64(c, 0, b)
	keep := -b
	for j := range z {
		z[j] = s[j]&keep | d[j]&^keep
	}
}

// subMod sets z = x − y mod m for x, y < m.
func subMod(z, x, y, m *nat) {
	var d, e nat
	var b, c uint64
	for j := range d {
		d[j], b = bits.Sub64(x[j], y[j], b)
	}
	for j := range e {
		e[j], c = bits.Add64(d[j], m[j], c)
	}
	keep := b - 1 // all ones when x ≥ y
	for j := range z {
		z[j] = d[j]&keep | e[j]&^keep
	}
}

// mulWide sets z = x·y.
func mulWide(z *wide, x, y *nat) {
	*z = wide{}
	for i := range y {
		var c uint64
		for j := range x {
			hi, lo := bits.Mul64(x[j], y[i])
			var cc uint64
			lo, cc = bits.Add64(lo, z[i+j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			z[i+j], c = lo, hi
		}
		z[i+8] = c
	}
}

// mul sets z = x·y·R⁻¹ mod m, for x < R and y < m; z may alias x or y.
// It runs mulADX (mont_amd64.s) where the CPU has MULX and ADX, and
// mulGeneric everywhere else.
func (mm *montModulus) mul(z, x, y *nat) {
	if useADX {
		mulADX(z, x, y, &mm.m, mm.m0inv)
		return
	}
	mm.mulGeneric(z, x, y)
}

// sqr sets z = x·x·R⁻¹ mod m, for x < m; z may alias x. Where the CPU has
// MULX and ADX it is mulADX(x, x): an assembly squaring of its own (the
// cross products once, doubled) signed 5–10 % faster but did not show end
// to end (minisql record_s_per_vs 0.108 → 0.102, 7 of 8 interleaved
// pairs, inside their spread), so there is one assembly product.
func (mm *montModulus) sqr(z, x *nat) {
	if useADX {
		mulADX(z, x, x, &mm.m, mm.m0inv)
		return
	}
	mm.sqrGeneric(z, x)
}

// mulGeneric is mul in Go, the reference the assembly is tested against.
// Each of the eight rounds adds x·y[i] and u·m, u chosen to clear the low
// limb, and shifts one limb down (finely integrated operand scanning).
// The result is below 2m before the masked final subtraction.
func (mm *montModulus) mulGeneric(z, x, y *nat) {
	m := &mm.m
	var t0, t1, t2, t3, t4, t5, t6, t7, t8 uint64
	var hi, lo, hi2, lo2, c, c1, c2 uint64
	for i := 0; i < 8; i++ {
		yi := y[i]
		hi, lo = bits.Mul64(x[0], yi)
		lo, c = bits.Add64(lo, t0, 0)
		c1 = hi + c
		u := lo * mm.m0inv
		hi2, lo2 = bits.Mul64(u, m[0])
		_, c = bits.Add64(lo2, lo, 0)
		c2 = hi2 + c
		hi, lo = bits.Mul64(x[1], yi)
		lo, c = bits.Add64(lo, t1, 0)
		hi += c
		lo, c = bits.Add64(lo, c1, 0)
		c1 = hi + c
		hi2, lo2 = bits.Mul64(u, m[1])
		lo2, c = bits.Add64(lo2, lo, 0)
		hi2 += c
		t0, c = bits.Add64(lo2, c2, 0)
		c2 = hi2 + c
		hi, lo = bits.Mul64(x[2], yi)
		lo, c = bits.Add64(lo, t2, 0)
		hi += c
		lo, c = bits.Add64(lo, c1, 0)
		c1 = hi + c
		hi2, lo2 = bits.Mul64(u, m[2])
		lo2, c = bits.Add64(lo2, lo, 0)
		hi2 += c
		t1, c = bits.Add64(lo2, c2, 0)
		c2 = hi2 + c
		hi, lo = bits.Mul64(x[3], yi)
		lo, c = bits.Add64(lo, t3, 0)
		hi += c
		lo, c = bits.Add64(lo, c1, 0)
		c1 = hi + c
		hi2, lo2 = bits.Mul64(u, m[3])
		lo2, c = bits.Add64(lo2, lo, 0)
		hi2 += c
		t2, c = bits.Add64(lo2, c2, 0)
		c2 = hi2 + c
		hi, lo = bits.Mul64(x[4], yi)
		lo, c = bits.Add64(lo, t4, 0)
		hi += c
		lo, c = bits.Add64(lo, c1, 0)
		c1 = hi + c
		hi2, lo2 = bits.Mul64(u, m[4])
		lo2, c = bits.Add64(lo2, lo, 0)
		hi2 += c
		t3, c = bits.Add64(lo2, c2, 0)
		c2 = hi2 + c
		hi, lo = bits.Mul64(x[5], yi)
		lo, c = bits.Add64(lo, t5, 0)
		hi += c
		lo, c = bits.Add64(lo, c1, 0)
		c1 = hi + c
		hi2, lo2 = bits.Mul64(u, m[5])
		lo2, c = bits.Add64(lo2, lo, 0)
		hi2 += c
		t4, c = bits.Add64(lo2, c2, 0)
		c2 = hi2 + c
		hi, lo = bits.Mul64(x[6], yi)
		lo, c = bits.Add64(lo, t6, 0)
		hi += c
		lo, c = bits.Add64(lo, c1, 0)
		c1 = hi + c
		hi2, lo2 = bits.Mul64(u, m[6])
		lo2, c = bits.Add64(lo2, lo, 0)
		hi2 += c
		t5, c = bits.Add64(lo2, c2, 0)
		c2 = hi2 + c
		hi, lo = bits.Mul64(x[7], yi)
		lo, c = bits.Add64(lo, t7, 0)
		hi += c
		lo, c = bits.Add64(lo, c1, 0)
		c1 = hi + c
		hi2, lo2 = bits.Mul64(u, m[7])
		lo2, c = bits.Add64(lo2, lo, 0)
		hi2 += c
		t6, c = bits.Add64(lo2, c2, 0)
		c2 = hi2 + c
		t7, t8 = bits.Add64(t8, c1, 0)
		t7, c = bits.Add64(t7, c2, 0)
		t8 += c
	}
	var d nat
	var b uint64
	d[0], b = bits.Sub64(t0, m[0], b)
	d[1], b = bits.Sub64(t1, m[1], b)
	d[2], b = bits.Sub64(t2, m[2], b)
	d[3], b = bits.Sub64(t3, m[3], b)
	d[4], b = bits.Sub64(t4, m[4], b)
	d[5], b = bits.Sub64(t5, m[5], b)
	d[6], b = bits.Sub64(t6, m[6], b)
	d[7], b = bits.Sub64(t7, m[7], b)
	_, b = bits.Sub64(t8, 0, b)
	keep := -b // all ones when the result is already below m
	z[0] = t0&keep | d[0]&^keep
	z[1] = t1&keep | d[1]&^keep
	z[2] = t2&keep | d[2]&^keep
	z[3] = t3&keep | d[3]&^keep
	z[4] = t4&keep | d[4]&^keep
	z[5] = t5&keep | d[5]&^keep
	z[6] = t6&keep | d[6]&^keep
	z[7] = t7&keep | d[7]&^keep
}

// sqrGeneric is sqr in Go. The square is formed first, each cross product
// once and doubled, then reduced a limb at a time: 100 limb products where
// mul takes 128. With sqr for the exponentiation's squarings instead of
// mul, minisql recorded 14 % faster (9 of 10 interleaved benchmark pairs on
// a 2-vCPU Xeon VM).
func (mm *montModulus) sqrGeneric(z, x *nat) {
	m := &mm.m
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	var r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15 uint64
	var hi, lo, c, carry uint64

	// The cross products x_i·x_j, i < j.
	carry = 0
	hi, lo = bits.Mul64(x0, x1)
	lo, c = bits.Add64(lo, r1, 0)
	hi += c
	r1, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x0, x2)
	lo, c = bits.Add64(lo, r2, 0)
	hi += c
	r2, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x0, x3)
	lo, c = bits.Add64(lo, r3, 0)
	hi += c
	r3, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x0, x4)
	lo, c = bits.Add64(lo, r4, 0)
	hi += c
	r4, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x0, x5)
	lo, c = bits.Add64(lo, r5, 0)
	hi += c
	r5, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x0, x6)
	lo, c = bits.Add64(lo, r6, 0)
	hi += c
	r6, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x0, x7)
	lo, c = bits.Add64(lo, r7, 0)
	hi += c
	r7, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	r8 = carry
	carry = 0
	hi, lo = bits.Mul64(x1, x2)
	lo, c = bits.Add64(lo, r3, 0)
	hi += c
	r3, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x1, x3)
	lo, c = bits.Add64(lo, r4, 0)
	hi += c
	r4, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x1, x4)
	lo, c = bits.Add64(lo, r5, 0)
	hi += c
	r5, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x1, x5)
	lo, c = bits.Add64(lo, r6, 0)
	hi += c
	r6, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x1, x6)
	lo, c = bits.Add64(lo, r7, 0)
	hi += c
	r7, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x1, x7)
	lo, c = bits.Add64(lo, r8, 0)
	hi += c
	r8, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	r9 = carry
	carry = 0
	hi, lo = bits.Mul64(x2, x3)
	lo, c = bits.Add64(lo, r5, 0)
	hi += c
	r5, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x2, x4)
	lo, c = bits.Add64(lo, r6, 0)
	hi += c
	r6, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x2, x5)
	lo, c = bits.Add64(lo, r7, 0)
	hi += c
	r7, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x2, x6)
	lo, c = bits.Add64(lo, r8, 0)
	hi += c
	r8, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x2, x7)
	lo, c = bits.Add64(lo, r9, 0)
	hi += c
	r9, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	r10 = carry
	carry = 0
	hi, lo = bits.Mul64(x3, x4)
	lo, c = bits.Add64(lo, r7, 0)
	hi += c
	r7, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x3, x5)
	lo, c = bits.Add64(lo, r8, 0)
	hi += c
	r8, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x3, x6)
	lo, c = bits.Add64(lo, r9, 0)
	hi += c
	r9, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x3, x7)
	lo, c = bits.Add64(lo, r10, 0)
	hi += c
	r10, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	r11 = carry
	carry = 0
	hi, lo = bits.Mul64(x4, x5)
	lo, c = bits.Add64(lo, r9, 0)
	hi += c
	r9, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x4, x6)
	lo, c = bits.Add64(lo, r10, 0)
	hi += c
	r10, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x4, x7)
	lo, c = bits.Add64(lo, r11, 0)
	hi += c
	r11, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	r12 = carry
	carry = 0
	hi, lo = bits.Mul64(x5, x6)
	lo, c = bits.Add64(lo, r11, 0)
	hi += c
	r11, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x5, x7)
	lo, c = bits.Add64(lo, r12, 0)
	hi += c
	r12, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	r13 = carry
	carry = 0
	hi, lo = bits.Mul64(x6, x7)
	lo, c = bits.Add64(lo, r13, 0)
	hi += c
	r13, c = bits.Add64(lo, carry, 0)
	carry = hi + c
	r14 = carry

	// Doubled, plus the squares x_i·x_i.
	r15 = r14 >> 63
	r14 = r14<<1 | r13>>63
	r13 = r13<<1 | r12>>63
	r12 = r12<<1 | r11>>63
	r11 = r11<<1 | r10>>63
	r10 = r10<<1 | r9>>63
	r9 = r9<<1 | r8>>63
	r8 = r8<<1 | r7>>63
	r7 = r7<<1 | r6>>63
	r6 = r6<<1 | r5>>63
	r5 = r5<<1 | r4>>63
	r4 = r4<<1 | r3>>63
	r3 = r3<<1 | r2>>63
	r2 = r2<<1 | r1>>63
	r1 = r1<<1 | r0>>63
	c = 0
	hi, lo = bits.Mul64(x0, x0)
	r0, c = bits.Add64(r0, lo, c)
	r1, c = bits.Add64(r1, hi, c)
	hi, lo = bits.Mul64(x1, x1)
	r2, c = bits.Add64(r2, lo, c)
	r3, c = bits.Add64(r3, hi, c)
	hi, lo = bits.Mul64(x2, x2)
	r4, c = bits.Add64(r4, lo, c)
	r5, c = bits.Add64(r5, hi, c)
	hi, lo = bits.Mul64(x3, x3)
	r6, c = bits.Add64(r6, lo, c)
	r7, c = bits.Add64(r7, hi, c)
	hi, lo = bits.Mul64(x4, x4)
	r8, c = bits.Add64(r8, lo, c)
	r9, c = bits.Add64(r9, hi, c)
	hi, lo = bits.Mul64(x5, x5)
	r10, c = bits.Add64(r10, lo, c)
	r11, c = bits.Add64(r11, hi, c)
	hi, lo = bits.Mul64(x6, x6)
	r12, c = bits.Add64(r12, lo, c)
	r13, c = bits.Add64(r13, hi, c)
	hi, lo = bits.Mul64(x7, x7)
	r14, c = bits.Add64(r14, lo, c)
	r15, c = bits.Add64(r15, hi, c)

	// Montgomery reduction, eight rounds: add u·m with u clearing r0, and
	// shift everything one limb down. top is the carry out of r7, which
	// belongs to the limb r8 becomes next round.
	var top uint64
	for i := 0; i < 8; i++ {
		u := r0 * mm.m0inv
		hi, lo = bits.Mul64(u, m[0])
		_, c = bits.Add64(lo, r0, 0)
		carry = hi + c
		hi, lo = bits.Mul64(u, m[1])
		lo, c = bits.Add64(lo, r1, 0)
		hi += c
		r0, c = bits.Add64(lo, carry, 0)
		carry = hi + c
		hi, lo = bits.Mul64(u, m[2])
		lo, c = bits.Add64(lo, r2, 0)
		hi += c
		r1, c = bits.Add64(lo, carry, 0)
		carry = hi + c
		hi, lo = bits.Mul64(u, m[3])
		lo, c = bits.Add64(lo, r3, 0)
		hi += c
		r2, c = bits.Add64(lo, carry, 0)
		carry = hi + c
		hi, lo = bits.Mul64(u, m[4])
		lo, c = bits.Add64(lo, r4, 0)
		hi += c
		r3, c = bits.Add64(lo, carry, 0)
		carry = hi + c
		hi, lo = bits.Mul64(u, m[5])
		lo, c = bits.Add64(lo, r5, 0)
		hi += c
		r4, c = bits.Add64(lo, carry, 0)
		carry = hi + c
		hi, lo = bits.Mul64(u, m[6])
		lo, c = bits.Add64(lo, r6, 0)
		hi += c
		r5, c = bits.Add64(lo, carry, 0)
		carry = hi + c
		hi, lo = bits.Mul64(u, m[7])
		lo, c = bits.Add64(lo, r7, 0)
		hi += c
		r6, c = bits.Add64(lo, carry, 0)
		carry = hi + c
		r7, top = bits.Add64(r8, carry, top)
		r8, r9, r10, r11, r12, r13, r14, r15 = r9, r10, r11, r12, r13, r14, r15, 0
	}
	var d nat
	var b uint64
	d[0], b = bits.Sub64(r0, m[0], b)
	d[1], b = bits.Sub64(r1, m[1], b)
	d[2], b = bits.Sub64(r2, m[2], b)
	d[3], b = bits.Sub64(r3, m[3], b)
	d[4], b = bits.Sub64(r4, m[4], b)
	d[5], b = bits.Sub64(r5, m[5], b)
	d[6], b = bits.Sub64(r6, m[6], b)
	d[7], b = bits.Sub64(r7, m[7], b)
	_, b = bits.Sub64(top, 0, b)
	keep := -b // all ones when the result is already below m
	z[0] = r0&keep | d[0]&^keep
	z[1] = r1&keep | d[1]&^keep
	z[2] = r2&keep | d[2]&^keep
	z[3] = r3&keep | d[3]&^keep
	z[4] = r4&keep | d[4]&^keep
	z[5] = r5&keep | d[5]&^keep
	z[6] = r6&keep | d[6]&^keep
	z[7] = r7&keep | d[7]&^keep
}
