//go:build !amd64

package sig

// useADX is false off amd64: mul, sqr and addMulRow16 run their Go limb
// code.
var useADX = false

func mulADX(z, x, y, m *nat, m0inv uint64) { panic("sig: no assembly Montgomery product") }

func addMulRow16ADX(z, x *wide, y uint64) uint64 { panic("sig: no assembly row") }
