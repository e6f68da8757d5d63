package sig

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// The assembly's part of the package comment's checklist, as a test: every
// instruction of mont_amd64.s is one the checklist names, nothing jumps, and
// every memory operand is an argument slot, the frame, or an argument's
// pointer plus a constant inside what it points at. CI's generated-assembly
// check keeps the file equal to what mont_amd64_gen.go writes, so this test
// holds the generator to the checklist too.

// pointees are the sizes of what the assembly's pointer arguments point at.
var pointees = map[string]int{
	"nat":  int(unsafe.Sizeof(nat{})),
	"wide": int(unsafe.Sizeof(wide{})),
}

// stubOnly are the instructions the CPUID stub may use besides the list.
var stubOnly = map[string]bool{"MOVL": true, "CPUID": true}

var (
	textLine  = regexp.MustCompile(`^TEXT ·(\w+)\(SB\), \w+, \$(\d+)-(\d+)$`)
	declLine  = regexp.MustCompile(`^// (func \w+\(.*)$`)
	argSlot   = regexp.MustCompile(`^(\w+)\+(\d+)\(FP\)$`)
	frameSlot = regexp.MustCompile(`^(\d+)\(SP\)$`)
	pointed   = regexp.MustCompile(`^(\d+)\((\w+)\)$`)
)

// checklistMnemonics reads the instructions the package comment allows
// from its sentence "The assembly uses A, B, … and Z (…) only".
func checklistMnemonics(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "sig.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join(strings.Fields(f.Doc.Text()), " ")
	const lead = "The assembly uses "
	i := strings.Index(doc, lead)
	if i < 0 {
		t.Fatalf("the package comment has no %q sentence", lead)
	}
	list := doc[i+len(lead):]
	list = list[:strings.IndexAny(list, "(.")]
	names := map[string]bool{}
	for _, name := range strings.FieldsFunc(strings.ReplaceAll(list, " and ", ","), func(r rune) bool { return r == ',' || r == ' ' }) {
		names[name] = true
	}
	if len(names) == 0 {
		t.Fatal("the package comment lists no instruction")
	}
	return names
}

// allowed reports whether a Go assembler mnemonic is one of names: the
// 64-bit form of a listed instruction, or a CMOV with any condition.
func allowed(names map[string]bool, mnemonic string) bool {
	if names["CMOV"] && strings.HasPrefix(mnemonic, "CMOVQ") {
		return true
	}
	base, ok := strings.CutSuffix(mnemonic, "Q")
	return ok && names[base]
}

// asmFunc is one TEXT block of the assembly and what its memory operands
// may refer to.
type asmFunc struct {
	name     string
	frame    int
	params   map[string]string // parameter or result name → pointee type, "" if not a pointer
	pointers map[string]int    // register → size of what it points at, while it holds an argument pointer
	last     string            // the block's last instruction
}

// parseDecl reads the parameters of a "// func f(…) (…)" line.
func parseDecl(t *testing.T, decl string) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "decl.go", "package p\n"+decl, 0)
	if err != nil {
		t.Fatalf("declaration %q: %v", decl, err)
	}
	fn := f.Decls[0].(*ast.FuncDecl)
	params := map[string]string{}
	fields := fn.Type.Params.List
	if fn.Type.Results != nil {
		fields = append(fields, fn.Type.Results.List...)
	}
	for _, field := range fields {
		pointee := ""
		if star, ok := field.Type.(*ast.StarExpr); ok {
			pointee = star.X.(*ast.Ident).Name
			if _, ok := pointees[pointee]; !ok {
				t.Fatalf("declaration %q: a pointer to %s, whose size the test does not know", decl, pointee)
			}
		}
		for _, name := range field.Names {
			params[name.Name] = pointee
		}
	}
	return params
}

// checkAssembly returns the checklist's violations in the assembly src.
func checkAssembly(t *testing.T, names map[string]bool, src string) []string {
	var bad []string
	var fn *asmFunc
	var decl string
	endFunc := func() {
		if fn != nil && fn.last != "RET" {
			bad = append(bad, fn.name+": does not end in RET")
		}
	}
	for n, raw := range strings.Split(src, "\n") {
		where := "mont_amd64.s:" + strconv.Itoa(n+1)
		line := strings.TrimSpace(raw)
		if m := declLine.FindStringSubmatch(line); m != nil {
			decl = m[1]
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" || strings.HasPrefix(line, "#include") {
			continue
		}
		if m := textLine.FindStringSubmatch(line); m != nil {
			endFunc()
			if decl == "" {
				t.Fatalf("%s: TEXT ·%s without a // func declaration above it", where, m[1])
			}
			frame, _ := strconv.Atoi(m[2])
			fn = &asmFunc{name: m[1], frame: frame, params: parseDecl(t, decl), pointers: map[string]int{}}
			decl = ""
			continue
		}
		if fn == nil {
			bad = append(bad, where+": "+line+": outside a TEXT block")
			continue
		}
		if strings.HasSuffix(line, ":") {
			bad = append(bad, where+": label "+strings.TrimSuffix(line, ":")+": a jump target")
			continue
		}
		mnemonic, rest, _ := strings.Cut(line, " ")
		var operands []string
		for _, op := range strings.Split(rest, ",") {
			if op = strings.TrimSpace(op); op != "" {
				operands = append(operands, op)
			}
		}
		switch {
		case fn.last == "RET":
			bad = append(bad, where+": "+line+": after a RET, an early return")
		case strings.HasPrefix(mnemonic, "J") || mnemonic == "CALL" || mnemonic == "LOOP":
			bad = append(bad, where+": "+line+": a jump")
		case mnemonic == "RET" || allowed(names, mnemonic) || fn.name == "cpuid" && stubOnly[mnemonic]:
		default:
			bad = append(bad, where+": "+line+": "+mnemonic+" is not in the package comment's list")
		}
		fn.last = mnemonic
		for _, op := range operands {
			if !strings.Contains(op, "(") {
				continue
			}
			if why := fn.memoryOperand(op); why != "" {
				bad = append(bad, where+": "+line+": memory operand "+op+": "+why)
			}
		}
		// What the instruction writes: the last operand, both outputs of a
		// MULX, and CPUID's four registers. A register holds an argument
		// pointer only from a load of that argument to its next write.
		written := operands[max(len(operands)-1, 0):]
		switch mnemonic {
		case "MULXQ":
			written = operands[max(len(operands)-2, 0):]
		case "CPUID":
			written = []string{"AX", "BX", "CX", "DX"}
		}
		for _, reg := range written {
			delete(fn.pointers, reg)
		}
		if mnemonic == "MOVQ" && len(operands) == 2 {
			if m := argSlot.FindStringSubmatch(operands[0]); m != nil && fn.params[m[1]] != "" {
				fn.pointers[operands[1]] = pointees[fn.params[m[1]]]
			}
		}
	}
	endFunc()
	return bad
}

// memoryOperand returns why op may not be read or written, or "".
func (fn *asmFunc) memoryOperand(op string) string {
	if m := argSlot.FindStringSubmatch(op); m != nil {
		if _, ok := fn.params[m[1]]; !ok {
			return m[1] + " is not an argument of " + fn.name
		}
		return ""
	}
	if m := frameSlot.FindStringSubmatch(op); m != nil {
		if off, _ := strconv.Atoi(m[1]); off+8 > fn.frame {
			return "outside the " + strconv.Itoa(fn.frame) + "-byte frame"
		}
		return ""
	}
	if m := pointed.FindStringSubmatch(op); m != nil {
		size, ok := fn.pointers[m[2]]
		if !ok {
			return m[2] + " does not hold an argument pointer here"
		}
		if off, _ := strconv.Atoi(m[1]); off+8 > size {
			return "past the " + strconv.Itoa(size) + " bytes " + m[2] + " points at"
		}
		return ""
	}
	return "not a constant offset from an argument pointer or the frame"
}

// TestAssemblyChecklist: mont_amd64.s keeps the package comment's
// checklist for assembly.
func TestAssemblyChecklist(t *testing.T) {
	src, err := os.ReadFile("mont_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	names := checklistMnemonics(t)
	for _, v := range checkAssembly(t, names, string(src)) {
		t.Error(v)
	}
}

// TestAssemblyChecklistCatches: the check itself fails on each kind of
// violation, put into a copy of a function that keeps the list.
func TestAssemblyChecklistCatches(t *testing.T) {
	names := checklistMnemonics(t)
	const head = "// func addMulRow16ADX(z, x *wide, y uint64) (carry uint64)\nTEXT ·addMulRow16ADX(SB), NOSPLIT, $16-32\n\tMOVQ z+0(FP), DI\n\tMOVQ y+16(FP), DX\n"
	cases := map[string]string{
		"clean":                  "\tMOVQ 120(DI), AX\n\tMOVQ AX, 8(SP)\n\tMOVQ AX, carry+24(FP)\n\tRET\n",
		"a jump":                 "\tJCS done\n\tRET\n",
		"a label":                "done:\n\tRET\n",
		"an early return":        "\tRET\n\tMOVQ AX, 0(DI)\n\tRET\n",
		"no RET":                 "\tMOVQ AX, 0(DI)\n",
		"an unlisted mnemonic":   "\tMULQ DX\n\tRET\n",
		"CPUID outside the stub": "\tCPUID\n\tRET\n",
		"an index register":      "\tMOVQ 0(DI)(DX*8), AX\n\tRET\n",
		"a non-pointer base":     "\tMOVQ 0(DX), AX\n\tRET\n",
		"a rewritten pointer":    "\tADDQ $8, DI\n\tMOVQ 0(DI), AX\n\tRET\n",
		"past the pointee":       "\tMOVQ 128(DI), AX\n\tRET\n",
		"past the frame":         "\tMOVQ AX, 16(SP)\n\tRET\n",
		"a global":               "\tMOVQ ·useADX(SB), AX\n\tRET\n",
		"an unknown argument":    "\tMOVQ m+24(FP), AX\n\tRET\n",
	}
	for name, body := range cases {
		bad := checkAssembly(t, names, head+body)
		if (name == "clean") != (len(bad) == 0) {
			t.Errorf("%s: violations %q", name, bad)
		}
	}
}
