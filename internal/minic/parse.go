package minic

import "fmt"

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks    tokens
	pos     int
	structs map[string]*StructType
	prog    *Program
}

// Parse builds the AST for a translation unit.
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	return parseTokens(tokens{tail: toks})
}

// parseProgram builds the AST for src linked with the runtime prelude, as
// Parse(src + "\n" + runtimeSource) would, without re-lexing the runtime.
func parseProgram(src string) (*Program, error) {
	toks, err := lexProgram(src)
	if err != nil {
		return nil, err
	}
	return parseTokens(toks)
}

func parseTokens(toks tokens) (*Program, error) {
	p := &parser{
		toks:    toks,
		structs: map[string]*StructType{},
		prog:    &Program{Structs: map[string]*StructType{}},
	}
	if err := p.parseUnit(); err != nil {
		return nil, err
	}
	p.prog.Structs = p.structs
	return p.prog, nil
}

func (p *parser) tok() token       { return p.toks.at(p.pos) }
func (p *parser) peek(i int) token { return p.toks.at(p.pos + i) }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("minic: line %d: near %q: %s", p.tok().line, p.tok().String(), fmt.Sprintf(format, args...))
}

func (p *parser) accept(text string) bool {
	t := p.tok()
	if (t.kind == tPunct || t.kind == tKeyword) && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q", text)
	}
	return nil
}

// isTypeStart reports whether the current token begins a type.
func (p *parser) isTypeStart() bool {
	t := p.tok()
	if t.kind != tKeyword {
		return false
	}
	switch t.text {
	case "int", "long", "char", "double", "float", "void", "unsigned", "struct", "const", "static":
		return true
	}
	return false
}

// parseBaseType parses a type specifier (no declarator).
func (p *parser) parseBaseType() (*Type, error) {
	for p.accept("const") || p.accept("static") {
	}
	t := p.tok()
	if t.kind != tKeyword {
		return nil, p.errf("expected type")
	}
	switch t.text {
	case "void":
		p.pos++
		return tyVoid, nil
	case "char":
		p.pos++
		return tyChar, nil
	case "int":
		p.pos++
		return tyInt, nil
	case "float":
		p.pos++
		return tyFloat, nil
	case "double":
		p.pos++
		return tyDouble, nil
	case "long":
		p.pos++
		p.accept("long")
		p.accept("int")
		return tyLong, nil
	case "unsigned":
		p.pos++
		switch {
		case p.accept("long"):
			p.accept("long")
			p.accept("int")
			return tyULong, nil
		case p.accept("char"):
			return tyChar, nil // treated as char (signedness simplified)
		default:
			p.accept("int")
			return tyUint, nil
		}
	case "struct":
		p.pos++
		name := p.tok()
		if name.kind != tIdent {
			return nil, p.errf("expected struct name")
		}
		p.pos++
		st, ok := p.structs[name.text]
		if !ok {
			st = &StructType{Name: name.text}
			p.structs[name.text] = st
		}
		return &Type{Kind: TStruct, S: st}, nil
	}
	return nil, p.errf("expected type")
}

// parseDeclarator parses pointer stars, a name, optional function-pointer
// form (*name)(params), and array suffixes.
func (p *parser) parseDeclarator(base *Type) (string, *Type, error) {
	t := base
	for p.accept("*") {
		t = ptrTo(t)
	}
	// Function pointer: (*name)(params)
	if p.tok().kind == tPunct && p.tok().text == "(" && p.peek(1).text == "*" {
		p.pos += 2
		name := p.tok()
		if name.kind != tIdent {
			return "", nil, p.errf("expected function pointer name")
		}
		p.pos++
		if err := p.expect(")"); err != nil {
			return "", nil, err
		}
		sig, err := p.parseParamSig(t)
		if err != nil {
			return "", nil, err
		}
		return name.text, &Type{Kind: TPtr, Fn: sig}, nil
	}
	name := p.tok()
	if name.kind != tIdent {
		return "", nil, p.errf("expected identifier in declarator")
	}
	p.pos++
	// Array suffixes (possibly multi-dimensional).
	var dims []int
	for p.accept("[") {
		n := p.tok()
		if n.kind != tInt {
			return "", nil, p.errf("array length must be an integer literal")
		}
		p.pos++
		if err := p.expect("]"); err != nil {
			return "", nil, err
		}
		dims = append(dims, int(n.ival))
	}
	for i := len(dims) - 1; i >= 0; i-- {
		t = &Type{Kind: TArray, Elem: t, N: dims[i]}
	}
	return name.text, t, nil
}

// parseParamSig parses "(T a, T b)" after a function-pointer declarator.
func (p *parser) parseParamSig(ret *Type) (*FuncSig, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	sig := &FuncSig{Ret: ret}
	if p.accept(")") {
		return sig, nil
	}
	if p.tok().kind == tKeyword && p.tok().text == "void" && p.peek(1).text == ")" {
		p.pos += 2
		return sig, nil
	}
	for {
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		t := base
		for p.accept("*") {
			t = ptrTo(t)
		}
		// Parameter name optional in signatures.
		if p.tok().kind == tIdent {
			p.pos++
		}
		sig.Params = append(sig.Params, t)
		if !p.accept(",") {
			break
		}
	}
	return sig, p.expect(")")
}

// parseUnit parses top-level declarations.
func (p *parser) parseUnit() error {
	for p.tok().kind != tEOF {
		// struct S { ... };
		if p.tok().kind == tKeyword && p.tok().text == "struct" && p.peek(2).text == "{" {
			if err := p.parseStructDef(); err != nil {
				return err
			}
			continue
		}
		base, err := p.parseBaseType()
		if err != nil {
			return err
		}
		if p.accept(";") {
			continue // bare struct declaration
		}
		name, t, err := p.parseDeclarator(base)
		if err != nil {
			return err
		}
		// Function definition?
		if p.tok().kind == tPunct && p.tok().text == "(" && t.Kind != TPtr || (t.Kind == TPtr && t.Fn == nil && p.tok().text == "(") {
			if p.tok().text == "(" {
				if err := p.parseFunc(name, t); err != nil {
					return err
				}
				continue
			}
		}
		// Global variable(s).
		for {
			g := &GlobalDecl{Name: name, Type: t, Line: p.tok().line}
			if p.accept("=") {
				if p.tok().text == "{" {
					lst, err := p.parseInitList()
					if err != nil {
						return err
					}
					g.InitList = lst
				} else {
					e, err := p.parseAssign()
					if err != nil {
						return err
					}
					g.Init = e
				}
			}
			p.prog.Globals = append(p.prog.Globals, g)
			if p.accept(",") {
				name, t, err = p.parseDeclarator(base)
				if err != nil {
					return err
				}
				continue
			}
			break
		}
		if err := p.expect(";"); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseInitList() ([]*Expr, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var out []*Expr
	for !p.accept("}") {
		e, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.accept(",") {
			if err := p.expect("}"); err != nil {
				return nil, err
			}
			break
		}
	}
	return out, nil
}

func (p *parser) parseStructDef() error {
	p.pos++ // struct
	name := p.tok().text
	p.pos++
	st, ok := p.structs[name]
	if !ok {
		st = &StructType{Name: name}
		p.structs[name] = st
	}
	if len(st.Fields) > 0 {
		return p.errf("struct %s redefined", name)
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	for !p.accept("}") {
		base, err := p.parseBaseType()
		if err != nil {
			return err
		}
		for {
			fname, ft, err := p.parseDeclarator(base)
			if err != nil {
				return err
			}
			st.Fields = append(st.Fields, Field{Name: fname, Type: ft})
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(";"); err != nil {
			return err
		}
	}
	return p.expect(";")
}

func (p *parser) parseFunc(name string, ret *Type) error {
	fd := &FuncDecl{Name: name, Ret: ret, Line: p.tok().line}
	if err := p.expect("("); err != nil {
		return err
	}
	if !p.accept(")") {
		if p.tok().kind == tKeyword && p.tok().text == "void" && p.peek(1).text == ")" {
			p.pos += 2
		} else {
			for {
				base, err := p.parseBaseType()
				if err != nil {
					return err
				}
				pname, pt, err := p.parseDeclarator(base)
				if err != nil {
					return err
				}
				if pt.Kind == TArray {
					pt = ptrTo(pt.Elem) // arrays decay in params
				}
				fd.Params = append(fd.Params, Param{Name: pname, Type: pt})
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return err
			}
		}
	}
	// Prototype only?
	if p.accept(";") {
		return nil
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	fd.Body = body
	p.prog.Funcs = append(p.prog.Funcs, fd)
	return nil
}

func (p *parser) parseBlock() (*Stmt, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	blk := &Stmt{Op: "block", Line: p.tok().line}
	for !p.accept("}") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	return blk, nil
}

func (p *parser) parseStmt() (*Stmt, error) {
	t := p.tok()
	line := t.line
	switch {
	case t.kind == tPunct && t.text == "{":
		return p.parseBlock()
	case t.kind == tKeyword && t.text == "if":
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s := &Stmt{Op: "if", Cond: cond, Body: body, Line: line}
		if p.accept("else") {
			s.Else, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return s, nil
	case t.kind == tKeyword && t.text == "while":
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &Stmt{Op: "while", Cond: cond, Body: body, Line: line}, nil
	case t.kind == tKeyword && t.text == "do":
		p.pos++
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expect("while"); err != nil {
			return nil, err
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &Stmt{Op: "do", Cond: cond, Body: body, Line: line}, nil
	case t.kind == tKeyword && t.text == "for":
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		s := &Stmt{Op: "for", Line: line}
		if !p.accept(";") {
			init, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			s.Init = init
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
		if !p.accept(";") {
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Cond = cond
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
		if !p.accept(")") {
			post, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Post = post
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s.Body = body
		return s, nil
	case t.kind == tKeyword && t.text == "return":
		p.pos++
		s := &Stmt{Op: "return", Line: line}
		if !p.accept(";") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.E = e
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
		return s, nil
	case t.kind == tKeyword && t.text == "break":
		p.pos++
		return &Stmt{Op: "break", Line: line}, p.expect(";")
	case t.kind == tKeyword && t.text == "continue":
		p.pos++
		return &Stmt{Op: "continue", Line: line}, p.expect(";")
	case t.kind == tKeyword && t.text == "switch":
		return p.parseSwitch()
	case t.kind == tPunct && t.text == ";":
		p.pos++
		return &Stmt{Op: "block", Line: line}, nil
	}
	s, err := p.parseSimpleStmt()
	if err != nil {
		return nil, err
	}
	return s, p.expect(";")
}

// parseSimpleStmt parses a declaration or expression statement (no
// terminating semicolon).
func (p *parser) parseSimpleStmt() (*Stmt, error) {
	if p.isTypeStart() {
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		blk := &Stmt{Op: "block", Line: p.tok().line}
		for {
			name, t, err := p.parseDeclarator(base)
			if err != nil {
				return nil, err
			}
			d := &Stmt{Op: "decl", DeclName: name, DeclType: t, Line: p.tok().line}
			if p.accept("=") {
				e, err := p.parseAssign()
				if err != nil {
					return nil, err
				}
				d.DeclInit = e
			}
			blk.Stmts = append(blk.Stmts, d)
			if !p.accept(",") {
				break
			}
		}
		if len(blk.Stmts) == 1 {
			return blk.Stmts[0], nil
		}
		return blk, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Stmt{Op: "expr", E: e, Line: e.Line}, nil
}

func (p *parser) parseSwitch() (*Stmt, error) {
	line := p.tok().line
	p.pos++ // switch
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	s := &Stmt{Op: "switch", Cond: cond, Line: line}
	var cur *SwitchCase
	for !p.accept("}") {
		switch {
		case p.accept("case"):
			neg := p.accept("-")
			v := p.tok()
			if v.kind != tInt && v.kind != tChar {
				return nil, p.errf("case value must be an integer literal")
			}
			p.pos++
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			val := v.ival
			if neg {
				val = -val
			}
			cur = &SwitchCase{Val: val}
			s.Cases = append(s.Cases, cur)
		case p.accept("default"):
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			cur = &SwitchCase{IsDefault: true}
			s.Cases = append(s.Cases, cur)
		default:
			if cur == nil {
				return nil, p.errf("statement before first case")
			}
			st, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			cur.Stmts = append(cur.Stmts, st)
		}
	}
	return s, nil
}
