//go:build ignore

// This program writes mont_amd64.s, the MULX/ADCX/ADOX Montgomery product
// of the RSA-1024 kernel, the row of the RSA-1024 verify and the CPUID stub
// that selects them:
//
//	go generate ./internal/sig
//
// mulADX, for operands of limbs 64-bit limbs (six: the kernel's nat), forms
// the full product of 2·limbs limbs (limbs² limb products), the finished
// low limbs in the frame. Its low half alone is then reduced, limbs rounds
// each adding the u·m that clears the lowest limb: (lo + U·m)/R + hi is the
// Montgomery product, below 2m, so the high half is added afterwards and t
// or t − m kept by CMOV on the borrow. ADOX and ADCX keep the two carry
// chains of a row apart — the low and the high halves of its limb
// products — so a row adds them without the compiler's materialized carry
// words.
//
// addMulRow16ADX adds x·y, sixteen limbs times one, into sixteen limbs of z
// and returns the carry-out limb: crypto/internal/fips140/bigmod's
// addMulVVW1024 pattern, where ADCX carries each limb product's high half
// into the next limb's low half and ADOX adds z's limb, two chains that one
// XOR starts clear and two instructions at the end fold into the carry-out.
//
// Every instruction of either function is emitted unconditionally: there is
// no branch.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
)

const header = `// Code generated by mont_amd64_gen.go; DO NOT EDIT.

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET
`

// limbs is the length of the kernel's nat, the operands of mulADX.
const limbs = 6

// The limb registers: a row's window of limbs+1 partial-product limbs, then
// the reduction's window and its carry. AX and R15 take the low and high
// halves of one MULX, DX its implicit operand, SI and DI the operand
// pointers.
var pool = []string{"BX", "CX", "R8", "R9", "R10", "R11", "R12", "R13", "R14"}[:limbs+1]

const (
	lo = "AX"
	hi = "R15"
)

type gen struct{ bytes.Buffer }

func (g *gen) op(format string, args ...any) {
	fmt.Fprintf(g, "\t"+format+"\n", args...)
}

func (g *gen) comment(format string, args ...any) {
	fmt.Fprintf(g, "\n\t// "+format+"\n", args...)
}

// mulRow adds DX times the limbs of x (from SI) into w, the window's limbs
// at the row's positions, and leaves the carry-out limb in top: ADOX adds
// each low half, ADCX each high half one limb up.
func (g *gen) mulRow(w []string, top string) {
	g.op("XORQ %s, %s", lo, lo)
	for j := 0; j < limbs-1; j++ {
		g.op("MULXQ %d(SI), %s, %s", 8*j, lo, hi)
		g.op("ADOXQ %s, %s", lo, w[j])
		g.op("ADCXQ %s, %s", hi, w[j+1])
	}
	g.op("MULXQ %d(SI), %s, %s", 8*(limbs-1), lo, top)
	g.op("ADOXQ %s, %s", lo, w[limbs-1])
	g.op("MOVQ $0, %s", lo)
	g.op("ADCXQ %s, %s", lo, top)
	g.op("ADOXQ %s, %s", lo, top)
}

// reduce turns the product — its low limbs in w, its high limbs in the
// frame from 8·limbs(SP) — into the product times R⁻¹ mod m, and stores
// it at z. SI must point at m; DI holds −m⁻¹ mod 2⁶⁴; c is a free register.
func (g *gen) reduce(w []string, c, zArg string) {
	w = append([]string(nil), w...)
	for k := 0; k < limbs; k++ {
		g.comment("Reduction round %d: add u·m, u = limb 0 · −m⁻¹, so limb 0 becomes zero; shift down.", k)
		g.op("MOVQ DI, DX")
		g.op("IMULQ %s, DX", w[0])
		g.op("XORQ %s, %s", lo, lo)
		g.op("MULXQ 0(SI), %s, %s", lo, hi)
		g.op("ADCXQ %s, %s", w[0], lo)
		g.op("ADOXQ %s, %s", hi, w[1])
		for j := 1; j < limbs-1; j++ {
			g.op("MULXQ %d(SI), %s, %s", 8*j, lo, hi)
			g.op("ADCXQ %s, %s", lo, w[j])
			g.op("ADOXQ %s, %s", hi, w[j+1])
		}
		// Limb 0 is spent; its register takes the new top limb.
		g.op("MULXQ %d(SI), %s, %s", 8*(limbs-1), lo, w[0])
		g.op("ADCXQ %s, %s", lo, w[limbs-1])
		g.op("MOVQ $0, %s", lo)
		g.op("ADCXQ %s, %s", lo, w[0])
		g.op("ADOXQ %s, %s", lo, w[0])
		w = append(w[1:], w[0])
	}
	// The reduced low half is at most m and the high half below m: their
	// sum, below 2m, needs one more limb for its carry.
	g.comment("Add the high half, its carry into %s.", c)
	g.op("MOVQ $0, %s", c)
	for j := 0; j < limbs; j++ {
		ins := "ADCQ"
		if j == 0 {
			ins = "ADDQ"
		}
		g.op("%s %d(SP), %s", ins, 8*(limbs+j), w[j])
	}
	g.op("ADCQ $0, %s", c)
	g.comment("z = t − m unless that borrows, chosen by CMOV on the borrow.")
	g.op("MOVQ %s, DI", zArg)
	for j := 0; j < limbs; j++ {
		g.op("MOVQ %s, %d(DI)", w[j], 8*j)
	}
	for j := 0; j < limbs; j++ {
		ins := "SBBQ"
		if j == 0 {
			ins = "SUBQ"
		}
		g.op("%s %d(SI), %s", ins, 8*j, w[j])
	}
	g.op("SBBQ $0, %s", c)
	for j := 0; j < limbs; j++ {
		g.op("CMOVQCS %d(DI), %s", 8*j, w[j])
	}
	for j := 0; j < limbs; j++ {
		g.op("MOVQ %s, %d(DI)", w[j], 8*j)
	}
	g.op("RET")
}

func (g *gen) mul() {
	fmt.Fprintf(g, `
// func mulADX(z, x, y, m *nat, m0inv uint64)
TEXT ·mulADX(SB), NOSPLIT, $%d-40
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
`, 16*limbs)
	w := append([]string(nil), pool...)
	g.comment("Row 0: x·y[0], one carry chain.")
	g.op("MOVQ 0(DI), DX")
	g.op("MULXQ 0(SI), %s, %s", w[0], w[1])
	for j := 1; j < limbs; j++ {
		ins := "ADCQ"
		if j == 1 {
			ins = "ADDQ"
		}
		g.op("MULXQ %d(SI), %s, %s", 8*j, lo, w[j+1])
		g.op("%s %s, %s", ins, lo, w[j])
	}
	g.op("ADCQ $0, %s", w[limbs])
	g.op("MOVQ %s, 0(SP)", w[0])
	w = append(w[1:], w[0])
	for i := 1; i < limbs; i++ {
		g.comment("Row %d: add x·y[%d] to limbs %d–%d; limb %d is final.", i, i, i, i+limbs, i)
		g.op("MOVQ %d(DI), DX", 8*i)
		g.mulRow(w[:limbs], w[limbs])
		g.op("MOVQ %s, %d(SP)", w[0], 8*i)
		w = append(w[1:], w[0])
	}
	g.comment("Park the high half in the frame, bring the low half back.")
	for j := 0; j < limbs; j++ {
		g.op("MOVQ %s, %d(SP)", w[j], 8*(limbs+j))
	}
	for j := 0; j < limbs; j++ {
		g.op("MOVQ %d(SP), %s", 8*j, w[j])
	}
	g.op("MOVQ m+24(FP), SI")
	g.op("MOVQ m0inv+32(FP), DI")
	g.reduce(w[:limbs], w[limbs], "z+0(FP)")
}

func (g *gen) row() {
	g.WriteString(`
// func addMulRow16ADX(z, x *wide, y uint64) (carry uint64)
TEXT ·addMulRow16ADX(SB), NOSPLIT, $0-32
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
`)
	// A limb's high half is carried into the next limb, so the two carry
	// registers take turns: one is read while the next MULX writes the other.
	carry := [2]string{"BX", "CX"}
	g.op("XORQ BX, BX")
	for j := 0; j < 16; j++ {
		g.comment("Limb %d.", j)
		g.op("MULXQ %d(SI), %s, %s", 8*j, lo, carry[(j+1)%2])
		g.op("ADCXQ %s, %s", carry[j%2], lo)
		g.op("ADOXQ %d(DI), %s", 8*j, lo)
		g.op("MOVQ %s, %d(DI)", lo, 8*j)
	}
	g.comment("The carry-out: the last high half plus both chains' carries.")
	g.op("MOVQ $0, %s", lo)
	g.op("ADCXQ %s, %s", lo, carry[0])
	g.op("ADOXQ %s, %s", lo, carry[0])
	g.op("MOVQ %s, carry+24(FP)", carry[0])
	g.op("RET")
}

func main() {
	var g gen
	g.WriteString(header)
	g.mul()
	g.row()
	if err := os.WriteFile("mont_amd64.s", g.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}
