// Package lang implements MiniC, a small C-like language compiled to
// internal/vm images. Guest programs (the game client and server, the
// database server, the benchmark clients) are written in MiniC; cheats are
// derived by transforming their source or patching their compiled images,
// exactly as real cheats patch a game binary.
//
// The language is deliberately tiny: one data type (32-bit words), global
// scalars and arrays, functions, interrupt handlers, and intrinsics for
// port I/O. That is enough to express real interactive programs while
// keeping compilation — and therefore the reproduction — self-contained.
package lang

import (
	"fmt"
	"strconv"
	"strings"
)

// tokKind classifies tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // operators and delimiters
)

type token struct {
	kind tokKind
	text string
	num  uint32 // value for tokNumber
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokNumber:
		return fmt.Sprintf("number %d", t.num)
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// CompileError is a source-level error with a line number.
type CompileError struct {
	Name string
	Line int
	Msg  string
}

// Error formats the error as name:line: message.
func (e *CompileError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.Name, e.Line, e.Msg)
}

type lexer struct {
	name string
	src  string
	pos  int
	line int
	toks []token
}

// punctuation tokens, longest first so that ">>" wins over ">".
var puncts = []string{
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
	"(", ")", "{", "}", "[", "]", ",", ";",
}

func lex(name, src string) ([]token, error) {
	l := &lexer{name: name, src: src, line: 1}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, line: l.line})
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case isIdentStart(c):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos], line: l.line})
		case c >= '0' && c <= '9':
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case c == '\'':
			if err := l.lexChar(); err != nil {
				return nil, err
			}
		case c == '"':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		default:
			if !l.lexPunct() {
				return nil, &CompileError{Name: name, Line: l.line, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

func (l *lexer) lexNumber() error {
	start := l.pos
	base := 10
	if strings.HasPrefix(l.src[l.pos:], "0x") || strings.HasPrefix(l.src[l.pos:], "0X") {
		base = 16
		l.pos += 2
	}
	for l.pos < len(l.src) && (isHexDigit(l.src[l.pos])) {
		l.pos++
	}
	text := l.src[start:l.pos]
	digits := text
	if base == 16 {
		digits = text[2:]
	}
	v, err := strconv.ParseUint(digits, base, 64)
	if err != nil || v > 0xFFFFFFFF {
		return &CompileError{Name: l.name, Line: l.line, Msg: fmt.Sprintf("bad number %q", text)}
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: text, num: uint32(v), line: l.line})
	return nil
}

func (l *lexer) lexChar() error {
	// 'c' or '\n' style character literal → number token.
	if l.pos+2 >= len(l.src) {
		return &CompileError{Name: l.name, Line: l.line, Msg: "unterminated character literal"}
	}
	l.pos++ // opening quote
	var v byte
	if l.src[l.pos] == '\\' {
		l.pos++
		switch l.src[l.pos] {
		case 'n':
			v = '\n'
		case 't':
			v = '\t'
		case '\\':
			v = '\\'
		case '\'':
			v = '\''
		case '0':
			v = 0
		default:
			return &CompileError{Name: l.name, Line: l.line, Msg: fmt.Sprintf("bad escape \\%c", l.src[l.pos])}
		}
	} else {
		v = l.src[l.pos]
	}
	l.pos++
	if l.pos >= len(l.src) || l.src[l.pos] != '\'' {
		return &CompileError{Name: l.name, Line: l.line, Msg: "unterminated character literal"}
	}
	l.pos++
	l.toks = append(l.toks, token{kind: tokNumber, num: uint32(v), text: string(v), line: l.line})
	return nil
}

func (l *lexer) lexString() error {
	l.pos++ // opening quote
	var sb strings.Builder
	for {
		if l.pos >= len(l.src) {
			return &CompileError{Name: l.name, Line: l.line, Msg: "unterminated string literal"}
		}
		c := l.src[l.pos]
		if c == '"' {
			l.pos++
			break
		}
		if c == '\n' {
			return &CompileError{Name: l.name, Line: l.line, Msg: "newline in string literal"}
		}
		if c == '\\' {
			l.pos++
			if l.pos >= len(l.src) {
				return &CompileError{Name: l.name, Line: l.line, Msg: "unterminated escape"}
			}
			switch l.src[l.pos] {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '"':
				sb.WriteByte('"')
			case '\\':
				sb.WriteByte('\\')
			default:
				return &CompileError{Name: l.name, Line: l.line, Msg: fmt.Sprintf("bad escape \\%c", l.src[l.pos])}
			}
			l.pos++
			continue
		}
		sb.WriteByte(c)
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokString, text: sb.String(), line: l.line})
	return nil
}

func (l *lexer) lexPunct() bool {
	for _, p := range puncts {
		if strings.HasPrefix(l.src[l.pos:], p) {
			l.toks = append(l.toks, token{kind: tokPunct, text: p, line: l.line})
			l.pos += len(p)
			return true
		}
	}
	return false
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isHexDigit(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
