package sig

//go:generate go run mont_amd64_gen.go

// useADX selects the assembly of mont_amd64.s: the signing kernel's product
// and the verify's row. It is decided once, by the CPU, never by a key.
var useADX = hasBMI2ADX()

// hasBMI2ADX reports whether CPUID leaf 7 lists BMI2 (MULX) and ADX (ADCX,
// ADOX).
func hasBMI2ADX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const bmi2, adx = 1 << 8, 1 << 19
	return ebx&bmi2 != 0 && ebx&adx != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// mulADX sets z = x·y·R⁻¹ mod m; see montModulus.mul.
//
//go:noescape
func mulADX(z, x, y, m *nat, m0inv uint64)

// addMulRow16ADX sets z = z + x·y mod 2¹⁰²⁴ and returns the carry-out limb;
// see addMulRow16.
//
//go:noescape
func addMulRow16ADX(z, x *wide, y uint64) (carry uint64)
