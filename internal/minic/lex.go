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
	"sync"
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

// isKeyword reports whether an identifier-shaped word is a keyword. A
// switch compiles to a length-then-content search, which is cheaper than
// hashing every identifier into a map.
func isKeyword(s string) bool {
	switch s {
	case "int", "long", "char", "double", "float", "void", "unsigned", "struct",
		"if", "else", "while", "for", "do", "return", "break", "continue",
		"sizeof", "static", "const", "switch", "case", "default":
		return true
	}
	return false
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

// bytesPerToken presizes token slices: the catalogue sources average 2.5
// source bytes per token and the densest has 2, so a slice of len/2 tokens
// almost never regrows.
const bytesPerToken = 2

// lexAll tokenizes the whole input.
func lexAll(src string) ([]token, error) {
	lx := &lexer{src: src, line: 1, toks: make([]token, 0, len(src)/bytesPerToken+1)}
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

// tokens is a token stream in two parts: head, then tail with every line
// shifted by tailLine. A program's stream is its own tokens followed by the
// shared runtime tokens, read in place rather than copied per compile.
type tokens struct {
	head     []token // no EOF token
	tail     []token // ends with the EOF token; read-only
	tailLine int
}

// at returns token i; past the end it returns the EOF token.
func (ts *tokens) at(i int) token {
	if i < len(ts.head) {
		return ts.head[i]
	}
	i -= len(ts.head)
	if i >= len(ts.tail) {
		i = len(ts.tail) - 1
	}
	t := ts.tail[i]
	t.line += ts.tailLine
	return t
}

// runtimeToks holds the runtime prelude's tokens, lexed once and shared
// read-only by every compile.
var runtimeToks = sync.OnceValue(func() []token {
	toks, err := lexAll(runtimeSource)
	if err != nil {
		panic("minic: runtime prelude: " + err.Error())
	}
	return toks
})

// lexProgram tokenizes src followed by the runtime prelude. The stream
// equals lexAll(src + "\n" + runtimeSource) token for token: no token of src
// reaches past its end, so the runtime lexes alone the same way, one line
// below src's EOF line. A source that fails to lex, or holds a NUL byte
// (which the lexer reads as end of input), is lexed concatenated instead,
// so its errors and truncation stay the same.
func lexProgram(src string) (tokens, error) {
	toks, err := lexAll(src)
	if err != nil || strings.IndexByte(src, 0) >= 0 {
		toks, err := lexAll(src + "\n" + runtimeSource)
		return tokens{tail: toks}, err
	}
	eof := toks[len(toks)-1]
	return tokens{head: toks[:len(toks)-1], tail: runtimeToks(), tailLine: eof.line}, nil
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
		if isKeyword(text) {
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

	return lx.punct(c), nil
}

// punct lexes an operator or punctuation token starting with c, longest
// match first, dispatching on c rather than scanning a list of operators.
func (lx *lexer) punct(c byte) token {
	n := 1
	c1 := lx.at(1)
	switch c {
	case '<', '>': // << <<= <= and >> >>= >=
		if c1 == c {
			n = 2
			if lx.at(2) == '=' {
				n = 3
			}
		} else if c1 == '=' {
			n = 2
		}
	case '.': // ...
		if c1 == '.' && lx.at(2) == '.' {
			n = 3
		}
	case '=', '!', '*', '/', '%', '^': // == != *= /= %= ^=
		if c1 == '=' {
			n = 2
		}
	case '&', '|', '+': // && &= || |= ++ +=
		if c1 == c || c1 == '=' {
			n = 2
		}
	case '-': // -- -= ->
		if c1 == '-' || c1 == '=' || c1 == '>' {
			n = 2
		}
	}
	t := token{kind: tPunct, text: lx.src[lx.pos : lx.pos+n], line: lx.line}
	lx.pos += n
	return t
}

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
	start := lx.pos
	// A literal without escapes is a slice of the source; sb builds the
	// text only once an escape is seen.
	var sb strings.Builder
	escaped := false
	for {
		c := lx.peekc()
		if c == 0 || c == '\n' {
			return token{}, lx.errf("unterminated string")
		}
		if c == '"' {
			break
		}
		if c == '\\' {
			if !escaped {
				sb.WriteString(lx.src[start:lx.pos])
				escaped = true
			}
			lx.pos++
			e, err := lx.escape()
			if err != nil {
				return token{}, err
			}
			sb.WriteByte(e)
			continue
		}
		if escaped {
			sb.WriteByte(c)
		}
		lx.pos++
	}
	text := lx.src[start:lx.pos]
	if escaped {
		text = sb.String()
	}
	lx.pos++ // closing quote
	return token{kind: tString, text: text, line: lx.line}, nil
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
