// Package minic compiles a C subset to WebAssembly, standing in for the
// paper's Emscripten toolchain. It produces exactly the module shape
// Emscripten produces: linear memory with globals and string literals in
// data segments, a shadow-stack pointer in wasm global 0, a function table
// for address-taken functions, and Browsix syscall imports.
//
// The target ABI is parameterized by pointer size: browsers compile the
// 4-byte-pointer (wasm32) build, the native backend compiles an 8-byte-
// pointer build — reproducing the pointer-density effects behind the
// paper's 429.mcf/433.milc anomaly.
package minic

import (
	"fmt"
	"strconv"
	"strings"
)

// tokKind classifies tokens.
type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tInt    // integer literal
	tFloat  // floating literal
	tString // string literal
	tChar   // character literal
	tPunct  // operators and punctuation
	tKeyword
)

var keywords = map[string]bool{
	"int": true, "long": true, "char": true, "double": true, "float": true,
	"void": true, "unsigned": true, "struct": true, "if": true, "else": true,
	"while": true, "for": true, "do": true, "return": true, "break": true,
	"continue": true, "sizeof": true, "static": true, "const": true,
	"switch": true, "case": true, "default": true,
}

// token is one lexeme.
type token struct {
	kind tokKind
	text string
	ival int64
	fval float64
	line int
}

func (t token) String() string {
	if t.kind == tEOF {
		return "<eof>"
	}
	return t.text
}

// lexer tokenizes mini-C source.
type lexer struct {
	src  string
	pos  int
	line int
	toks []token
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]token, error) {
	lx := &lexer{src: src, line: 1}
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		lx.toks = append(lx.toks, t)
		if t.kind == tEOF {
			return lx.toks, nil
		}
	}
}

func (lx *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("minic: line %d: %s", lx.line, fmt.Sprintf(format, args...))
}

func (lx *lexer) peekc() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) at(i int) byte {
	if lx.pos+i >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+i]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func (lx *lexer) next() (token, error) {
	// Skip whitespace and comments.
	for {
		c := lx.peekc()
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '\n':
			lx.pos++
			lx.line++
		case c == '/' && lx.at(1) == '/':
			for lx.peekc() != '\n' && lx.peekc() != 0 {
				lx.pos++
			}
		case c == '/' && lx.at(1) == '*':
			lx.pos += 2
			for !(lx.peekc() == '*' && lx.at(1) == '/') {
				if lx.peekc() == 0 {
					return token{}, lx.errf("unterminated comment")
				}
				if lx.peekc() == '\n' {
					lx.line++
				}
				lx.pos++
			}
			lx.pos += 2
		case c == '#':
			// Preprocessor lines are ignored (workload sources use none).
			for lx.peekc() != '\n' && lx.peekc() != 0 {
				lx.pos++
			}
		default:
			goto lexed
		}
	}
lexed:
	c := lx.peekc()
	if c == 0 {
		return token{kind: tEOF, line: lx.line}, nil
	}

	// Identifiers / keywords.
	if isAlpha(c) {
		start := lx.pos
		for isAlpha(lx.peekc()) || isDigit(lx.peekc()) {
			lx.pos++
		}
		text := lx.src[start:lx.pos]
		k := tIdent
		if keywords[text] {
			k = tKeyword
		}
		return token{kind: k, text: text, line: lx.line}, nil
	}

	// Numbers.
	if isDigit(c) || (c == '.' && isDigit(lx.at(1))) {
		return lx.lexNumber()
	}

	// Strings.
	if c == '"' {
		return lx.lexString()
	}
	if c == '\'' {
		return lx.lexChar()
	}

	// Punctuation: longest match first.
	for _, p := range punct3 {
		if strings.HasPrefix(lx.src[lx.pos:], p) {
			lx.pos += 3
			return token{kind: tPunct, text: p, line: lx.line}, nil
		}
	}
	for _, p := range punct2 {
		if strings.HasPrefix(lx.src[lx.pos:], p) {
			lx.pos += 2
			return token{kind: tPunct, text: p, line: lx.line}, nil
		}
	}
	lx.pos++
	return token{kind: tPunct, text: lx.src[lx.pos-1 : lx.pos], line: lx.line}, nil
}

// Multi-character punctuation, matched longest first.
var (
	punct3 = []string{"<<=", ">>=", "..."}
	punct2 = []string{
		"<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "->",
		"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
	}
)

func (lx *lexer) lexNumber() (token, error) {
	start := lx.pos
	isFloat := false
	if lx.peekc() == '0' && (lx.at(1) == 'x' || lx.at(1) == 'X') {
		lx.pos += 2
		for isHex(lx.peekc()) {
			lx.pos++
		}
		// ParseInt, not ParseUint: literals past MaxInt64 are rejected.
		v, err := strconv.ParseInt(lx.src[start+2:lx.pos], 16, 64)
		if err != nil {
			return token{}, lx.errf("bad hex literal %q", lx.src[start:lx.pos])
		}
		lx.skipIntSuffix()
		return token{kind: tInt, text: lx.src[start:lx.pos], ival: v, line: lx.line}, nil
	}
	for isDigit(lx.peekc()) {
		lx.pos++
	}
	if lx.peekc() == '.' {
		isFloat = true
		lx.pos++
		for isDigit(lx.peekc()) {
			lx.pos++
		}
	}
	if lx.peekc() == 'e' || lx.peekc() == 'E' {
		isFloat = true
		lx.pos++
		if lx.peekc() == '+' || lx.peekc() == '-' {
			lx.pos++
		}
		for isDigit(lx.peekc()) {
			lx.pos++
		}
	}
	text := lx.src[start:lx.pos]
	if isFloat || lx.peekc() == 'f' || lx.peekc() == 'F' {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, lx.errf("bad float literal %q", text)
		}
		if lx.peekc() == 'f' || lx.peekc() == 'F' {
			lx.pos++
		}
		return token{kind: tFloat, text: text, fval: f, line: lx.line}, nil
	}
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return token{}, lx.errf("bad int literal %q", text)
	}
	lx.skipIntSuffix()
	return token{kind: tInt, text: text, ival: v, line: lx.line}, nil
}

func (lx *lexer) skipIntSuffix() {
	for lx.peekc() == 'l' || lx.peekc() == 'L' || lx.peekc() == 'u' || lx.peekc() == 'U' {
		lx.pos++
	}
}

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (lx *lexer) lexString() (token, error) {
	lx.pos++ // opening quote
	var sb strings.Builder
	for {
		c := lx.peekc()
		if c == 0 || c == '\n' {
			return token{}, lx.errf("unterminated string")
		}
		if c == '"' {
			lx.pos++
			break
		}
		if c == '\\' {
			lx.pos++
			e, err := lx.escape()
			if err != nil {
				return token{}, err
			}
			sb.WriteByte(e)
			continue
		}
		sb.WriteByte(c)
		lx.pos++
	}
	return token{kind: tString, text: sb.String(), line: lx.line}, nil
}

func (lx *lexer) lexChar() (token, error) {
	lx.pos++ // opening quote
	var v byte
	c := lx.peekc()
	if c == '\\' {
		lx.pos++
		e, err := lx.escape()
		if err != nil {
			return token{}, err
		}
		v = e
	} else {
		v = c
		lx.pos++
	}
	if lx.peekc() != '\'' {
		return token{}, lx.errf("unterminated char literal")
	}
	lx.pos++
	return token{kind: tChar, ival: int64(v), text: string(v), line: lx.line}, nil
}

func (lx *lexer) escape() (byte, error) {
	c := lx.peekc()
	lx.pos++
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	}
	return 0, lx.errf("unknown escape \\%c", c)
}
