package sig

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The Go path's part of the package comment's checklist, as a test over
// what the compiler made of it: the kernel functions below, as
// `go build -gcflags=-S` lists them for amd64, hold a conditional jump only
//   - in a stack-check prologue (JLS after the compare with the goroutine's
//     stack guard, 16(R14)),
//   - as a bounds check, a jump to or around a call of a runtime panic (the
//     indices are loop counters; the panic is never taken),
//   - or on a source line kernelBranches lists for the function: a `for`
//     header with a fixed count, the kernelTrace and useADX guards, and a
//     copy's test whether source and destination are the same address.
//
// A comparison of secret data that compiles to a branch is none of these.

// kernelBranches are, per kernel function, the source lines (trimmed) that
// may hold a conditional jump besides stack checks and bounds checks.
var kernelBranches = map[string][]string{
	"lookup": {"for i := range table {", "if kernelTrace != nil {"},
	"addMod": {"for j := range s {", "for j := range d {", "for j := range z {"},
	"subMod": {"for j := range d {", "for j := range e {", "for j := range z {"},
	"mulAddWide": {
		"copy(t[:], a[:])",
		"for i := range y {",
		"for j := 0; i+j < len(t); j++ {",
	},
	"(*montModulus).mul":        {"if kernelTrace != nil {", "if useADX {"},
	"(*montModulus).sqr":        {"if kernelTrace != nil {", "if useADX {"},
	"(*montModulus).mulGeneric": {"for i := 0; i < 6; i++ {"},
	"(*montModulus).sqrGeneric": {"for i := 0; i < 6; i++ {"},
	"(*montModulus).power": {
		"copy(c0[:], c[0:6])",
		"copy(c1[:], c[6:12])",
		"copy(c2[:], c[12:16])",
		"for i := 2; i < len(table); i++ {",
		"for _, b := range mm.exp {",
		"for _, w := range [2]uint64{uint64(b >> 4), uint64(b & 0x0f)} {",
	},
}

var (
	// listedFunc is a function's header in the listing; listedInstr one of
	// its instructions: offset, source position, mnemonic, operands.
	listedFunc  = regexp.MustCompile(`^\S*/sig\.(\S+) STEXT`)
	listedInstr = regexp.MustCompile(`^\t0x[0-9a-f]+ (\d+) \((.+):(\d+)\)\t(\S+)(?:\t(.*))?$`)
	// boundsPanic is what a failed index or slice bounds check calls.
	boundsPanic = regexp.MustCompile(`^runtime\.panic(Index|Slice|Bounds)`)
)

// listedInstruction is one instruction of the compiler's listing.
type listedInstruction struct {
	offset   int
	file     string
	line     int
	mnemonic string
	args     string
}

// kernelListing compiles the package with -S and returns the instructions
// of the functions kernelBranches names, by function.
func kernelListing(t *testing.T) map[string][]listedInstruction {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to compile the package with: ", err)
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-S", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-S: %v\n%s", err, out)
	}
	funcs := map[string][]listedInstruction{}
	var fn string
	for _, line := range strings.Split(string(out), "\n") {
		if m := listedFunc.FindStringSubmatch(line); m != nil {
			fn = m[1]
			if _, ok := kernelBranches[fn]; !ok {
				fn = ""
			}
			continue
		}
		m := listedInstr.FindStringSubmatch(line)
		if fn == "" || m == nil || m[4] == "PCDATA" || m[4] == "FUNCDATA" {
			continue
		}
		offset, _ := strconv.Atoi(m[1])
		n, _ := strconv.Atoi(m[3])
		funcs[fn] = append(funcs[fn], listedInstruction{offset, m[2], n, m[4], m[5]})
	}
	return funcs
}

// conditional reports whether an amd64 mnemonic is a conditional jump.
func conditional(mnemonic string) bool {
	return strings.HasPrefix(mnemonic, "J") && mnemonic != "JMP"
}

// guardsPanic reports whether the jump at fn[i] is a bounds check: its
// target or its fall-through reaches a runtime panic call within a few
// instructions, with no other control transfer on the way.
func guardsPanic(fn []listedInstruction, i int) bool {
	reachesPanic := func(k int) bool {
		for end := min(k+4, len(fn)); k >= 0 && k < end; k++ {
			switch in := fn[k]; {
			case in.mnemonic == "CALL":
				return boundsPanic.MatchString(in.args)
			case strings.HasPrefix(in.mnemonic, "J"), in.mnemonic == "RET":
				return false
			}
		}
		return false
	}
	target, err := strconv.Atoi(fn[i].args)
	if err != nil {
		return false
	}
	at := -1
	for k, in := range fn {
		if in.offset == target {
			at = k
		}
	}
	return reachesPanic(at) || reachesPanic(i+1)
}

// stackCheck reports whether the jump at fn[i] is the prologue's: JLS
// after the compare with the goroutine's stack guard.
func stackCheck(fn []listedInstruction, i int) bool {
	return fn[i].mnemonic == "JLS" && i > 0 && fn[i-1].mnemonic == "CMPQ" && strings.HasSuffix(fn[i-1].args, "16(R14)")
}

func TestKernelBranches(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the listing is read as amd64 assembly")
	}
	funcs := kernelListing(t)
	// Every function listed is in this directory; the listing's path may be
	// trimmed.
	sources := map[string][]string{}
	text := func(file string, line int) string {
		file = filepath.Base(file)
		if _, ok := sources[file]; !ok {
			b, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			sources[file] = strings.Split(string(b), "\n")
		}
		if line < 1 || line > len(sources[file]) {
			return ""
		}
		return strings.TrimSpace(sources[file][line-1])
	}
	jumps := 0
	for name, lines := range kernelBranches {
		fn := funcs[name]
		if len(fn) == 0 {
			t.Errorf("%s: not in the compiler's listing", name)
			continue
		}
		for i, in := range fn {
			if !conditional(in.mnemonic) {
				continue
			}
			jumps++
			src := text(in.file, in.line)
			if stackCheck(fn, i) || guardsPanic(fn, i) || slices.Contains(lines, src) {
				continue
			}
			t.Errorf("%s: %s at %s:%d (%q) is a conditional jump the checklist does not allow",
				name, in.mnemonic, in.file, in.line, src)
		}
	}
	if jumps == 0 {
		t.Fatal("no conditional jump found in the listing: the test read nothing")
	}
}
