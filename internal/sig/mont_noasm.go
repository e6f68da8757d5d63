//go:build !amd64

package sig

// useADX is false off amd64: mul and sqr run their Go limb code.
var useADX = false

func mulADX(z, x, y, m *nat, m0inv uint64) { panic("sig: no assembly Montgomery product") }
