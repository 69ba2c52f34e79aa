package minic

// resolve types e and every node below it in the current scope, setting
// each node's typ once, and reports the first type error. A statement
// resolves each of its expressions just before emitting it; the emitters
// then read types from the nodes. Resolving only reads the module being
// built: string literals, table slots and scratch locals are taken by the
// emitters, in emission order. The callee name of a direct call is not a
// value and stays untyped.
func (fg *fgen) resolve(e *Expr) error {
	t, err := fg.typeNode(e)
	e.typ = t
	return err
}

// resolveAll resolves each expression in order.
func (fg *fgen) resolveAll(es ...*Expr) error {
	for _, x := range es {
		if err := fg.resolve(x); err != nil {
			return err
		}
	}
	return nil
}

// resolveLvalue resolves e, which must designate an object.
func (fg *fgen) resolveLvalue(e *Expr) error {
	if err := fg.resolve(e); err != nil {
		return err
	}
	switch e.Op {
	case "var":
		if e.typ.Kind != TFunc {
			return nil
		}
	case "un":
		if e.Tok == "*" {
			return nil
		}
	case "index", "member":
		return nil
	}
	return fg.errf(e.Line, "not an lvalue")
}

// typeNode returns e's object type, resolving its operands first.
func (fg *fgen) typeNode(e *Expr) (*Type, error) {
	switch e.Op {
	case "num":
		if e.Ival > 0x7fffffff || e.Ival < -0x80000000 {
			return tyLong, nil
		}
		return tyInt, nil
	case "fnum":
		return tyDouble, nil
	case "str":
		return &Type{Kind: TArray, Elem: tyChar, N: len(e.Sval) + 1}, nil
	case "sizeof":
		if e.X == nil {
			return tyInt, nil
		}
		if err := fg.resolve(e.X); err != nil {
			return nil, err
		}
		if e.X.typ.Kind == TFunc {
			return nil, fg.errf(e.Line, "sizeof of a function")
		}
		return tyInt, nil
	case "cast":
		return e.T, fg.resolve(e.X)
	case "var":
		if li, ok := fg.lookup(e.Name); ok {
			return li.t, nil
		}
		if t, ok := fg.g.globalType[e.Name]; ok {
			return t, nil
		}
		if fi, ok := fg.g.funcs[e.Name]; ok {
			return &Type{Kind: TFunc, Fn: fi.sig}, nil
		}
		return nil, fg.errf(e.Line, "undefined identifier %q", e.Name)
	case "call":
		sig, direct := fg.g.directCall(e)
		if !direct {
			if err := fg.resolve(e.X); err != nil {
				return nil, err
			}
			ft := e.X.value()
			if ft.Kind != TPtr || ft.Fn == nil {
				return nil, fg.errf(e.Line, "call of non-function %s", ft)
			}
			sig = ft.Fn
		}
		if len(e.Args) != len(sig.Params) {
			return nil, fg.errf(e.Line, "wrong argument count: got %d, want %d", len(e.Args), len(sig.Params))
		}
		return sig.Ret, fg.resolveAll(e.Args...)
	case "assign", "post":
		if err := fg.resolveLvalue(e.X); err != nil {
			return nil, err
		}
		if (e.Tok[0] == '+' || e.Tok[0] == '-') && e.X.typ.Fn != nil {
			return nil, fg.errf(e.Line, "arithmetic on function pointer")
		}
		if e.Y != nil {
			return e.X.typ, fg.resolve(e.Y)
		}
		return e.X.typ, nil
	case "cond":
		if err := fg.resolveAll(e.X, e.Y, e.Z); err != nil {
			return nil, err
		}
		at, bt := e.Y.value(), e.Z.value()
		switch {
		case sameType(at, bt):
			return at, nil
		case at.Kind == TPtr && isNullConst(e.Z):
			return at, nil
		case bt.Kind == TPtr && isNullConst(e.Y):
			return bt, nil
		}
		return commonType(at, bt), nil
	case "bin":
		if err := fg.resolveAll(e.X, e.Y); err != nil {
			return nil, err
		}
		if (e.Tok == "+" || e.Tok == "-") && (e.X.typ.Fn != nil || e.Y.typ.Fn != nil) {
			return nil, fg.errf(e.Line, "arithmetic on function pointer")
		}
		return binaryType(e), nil
	case "un":
		if e.Tok == "&" {
			if err := fg.resolveLvalue(e.X); err != nil {
				return nil, err
			}
			return ptrTo(e.X.typ), nil
		}
		if err := fg.resolve(e.X); err != nil {
			return nil, err
		}
		t := e.X.typ
		switch e.Tok {
		case "-":
			if t.isFloat() || t.is64() {
				return t, nil
			}
		case "~":
			if t.isFloat() {
				return nil, fg.errf(e.Line, "~ on %s", t)
			}
			if t.is64() {
				return t, nil
			}
		case "*":
			p := e.X.value()
			if p.Kind != TPtr || p.Elem == nil {
				return nil, fg.errf(e.Line, "dereference of non-pointer %s", p)
			}
			return p.Elem, nil
		}
		return tyInt, nil
	case "index":
		if err := fg.resolveAll(e.X, e.Y); err != nil {
			return nil, err
		}
		p := e.X.value()
		if p.Kind != TPtr || p.Elem == nil {
			return nil, fg.errf(e.Line, "indexing non-pointer %s", p)
		}
		if !e.Y.typ.isInt() {
			return nil, fg.errf(e.Line, "non-integer index")
		}
		return p.Elem, nil
	case "member":
		st, err := fg.memberStruct(e)
		if err != nil {
			return nil, err
		}
		_, ft, ok := st.S.fieldOffset(e.Name, fg.g.abi.PtrSize)
		if !ok {
			return nil, fg.errf(e.Line, "no field %q in struct %s", e.Name, st.S.Name)
		}
		return ft, nil
	}
	return nil, fg.errf(e.Line, "cannot type expression %q", e.Op)
}

// memberStruct resolves the operand of x.f or p->f and returns the struct
// type it selects from. A "." needs a struct object: p.f on a struct
// pointer is an error, not sugar for p->f.
func (fg *fgen) memberStruct(e *Expr) (*Type, error) {
	if e.Tok == "->" {
		if err := fg.resolve(e.X); err != nil {
			return nil, err
		}
		p := e.X.value()
		if p.Kind != TPtr || p.Elem == nil || p.Elem.Kind != TStruct {
			return nil, fg.errf(e.Line, "-> on non-struct-pointer %s", p)
		}
		return p.Elem, nil
	}
	if err := fg.resolveLvalue(e.X); err != nil {
		return nil, err
	}
	st := e.X.typ
	if st.Kind == TPtr && st.Elem != nil && st.Elem.Kind == TStruct {
		return nil, fg.errf(e.Line, ". on pointer; use ->")
	}
	if st.Kind != TStruct {
		return nil, fg.errf(e.Line, ". on non-struct %s", st)
	}
	return st, nil
}

// binaryType is the type of a binary expression over resolved operands.
func binaryType(e *Expr) *Type {
	switch e.Tok {
	case ",":
		return e.Y.value()
	case "&&", "||", "==", "!=", "<", ">", "<=", ">=":
		return tyInt
	}
	at, bt := e.X.value(), e.Y.value()
	switch {
	case (e.Tok == "+" || e.Tok == "-") && at.Kind == TPtr && bt.isInt():
		return at
	case e.Tok == "+" && at.isInt() && bt.Kind == TPtr:
		return bt
	case e.Tok == "-" && at.Kind == TPtr && bt.Kind == TPtr:
		return tyInt
	}
	return commonType(at, bt)
}

// value returns the type of the value a resolved expression evaluates to:
// an array or struct object evaluates to its address, a function name to a
// pointer to the function, anything else to its own type.
func (e *Expr) value() *Type {
	switch t := e.typ; t.Kind {
	case TArray:
		return ptrTo(t.Elem)
	case TStruct:
		return ptrTo(t)
	case TFunc:
		return &Type{Kind: TPtr, Fn: t.Fn}
	}
	return e.typ
}

// directCall returns the signature of the function a call names directly:
// a heap global reader, an intrinsic, a syscall or a defined function, which
// take precedence in that order over one another and over variables of the
// same name.
func (g *gen) directCall(e *Expr) (*FuncSig, bool) {
	if e.X.Op != "var" {
		return nil, false
	}
	if e.X.Name == "heap_base" || e.X.Name == "heap_end" {
		return sigInt, true
	}
	if in, ok := intrinsics[e.X.Name]; ok {
		return in.sig, true
	}
	if fi, ok := g.imports[e.X.Name]; ok {
		return fi.sig, true
	}
	if fi, ok := g.funcs[e.X.Name]; ok {
		return fi.sig, true
	}
	return nil, false
}

// isNullConst reports whether e is the literal 0, which a ?: arm opposite a
// pointer arm takes as that pointer type's null.
func isNullConst(e *Expr) bool { return e.Op == "num" && e.Ival == 0 }
