package minic

import "fmt"

// TypeKind classifies mini-C types.
type TypeKind int

// Type kinds.
const (
	TVoid   TypeKind = iota
	TChar            // 1 byte, signed
	TInt             // 4 bytes, signed
	TUint            // 4 bytes, unsigned
	TLong            // 8 bytes, signed
	TULong           // 8 bytes, unsigned
	TFloat           // 4 bytes
	TDouble          // 8 bytes
	TPtr
	TArray
	TStruct
	TFunc // function designator (not an object type)
)

// Type is a mini-C type.
type Type struct {
	Kind TypeKind
	Elem *Type // pointee / element
	N    int   // array length
	S    *StructType
	Fn   *FuncSig // for TPtr-to-func (Elem nil, Fn set) and TFunc
}

// FuncSig is a function signature.
type FuncSig struct {
	Params []*Type
	Ret    *Type
}

// StructType is a struct definition.
type StructType struct {
	Name   string
	Fields []Field
	// size/align are computed per ABI at layout time.
	size  map[int]int // ptrSize -> size
	offs  map[int][]int
	align map[int]int
}

// Field is one struct member.
type Field struct {
	Name string
	Type *Type
}

// Singleton basic types.
var (
	tyVoid   = &Type{Kind: TVoid}
	tyChar   = &Type{Kind: TChar}
	tyInt    = &Type{Kind: TInt}
	tyUint   = &Type{Kind: TUint}
	tyLong   = &Type{Kind: TLong}
	tyULong  = &Type{Kind: TULong}
	tyFloat  = &Type{Kind: TFloat}
	tyDouble = &Type{Kind: TDouble}
)

func ptrTo(t *Type) *Type { return &Type{Kind: TPtr, Elem: t} }

func (t *Type) String() string {
	switch t.Kind {
	case TVoid:
		return "void"
	case TChar:
		return "char"
	case TInt:
		return "int"
	case TUint:
		return "unsigned"
	case TLong:
		return "long"
	case TULong:
		return "unsigned long"
	case TFloat:
		return "float"
	case TDouble:
		return "double"
	case TPtr:
		if t.Fn != nil {
			return "fnptr"
		}
		return t.Elem.String() + "*"
	case TArray:
		return fmt.Sprintf("%s[%d]", t.Elem, t.N)
	case TStruct:
		return "struct " + t.S.Name
	case TFunc:
		return "func"
	}
	return "?"
}

// isInt reports whether t is an integer type (incl. char, excl. pointers).
func (t *Type) isInt() bool {
	switch t.Kind {
	case TChar, TInt, TUint, TLong, TULong:
		return true
	}
	return false
}

// isFloat reports float/double.
func (t *Type) isFloat() bool { return t.Kind == TFloat || t.Kind == TDouble }

// isUnsigned reports unsigned integer types.
func (t *Type) isUnsigned() bool { return t.Kind == TUint || t.Kind == TULong }

// is64 reports 8-byte integer types.
func (t *Type) is64() bool { return t.Kind == TLong || t.Kind == TULong }

// isScalar reports types that fit a wasm value.
func (t *Type) isScalar() bool {
	return t.isInt() || t.isFloat() || t.Kind == TPtr
}

// isAggregate reports types whose objects evaluate to their address.
func (t *Type) isAggregate() bool { return t.Kind == TArray || t.Kind == TStruct }

// size returns the storage size under the given pointer size.
func (t *Type) size(ptrSize int) int {
	switch t.Kind {
	case TChar:
		return 1
	case TInt, TUint, TFloat:
		return 4
	case TLong, TULong, TDouble:
		return 8
	case TPtr:
		return ptrSize
	case TArray:
		return t.N * t.Elem.size(ptrSize)
	case TStruct:
		return t.S.layoutSize(ptrSize)
	}
	return 0
}

// alignof returns alignment under the given pointer size.
func (t *Type) alignof(ptrSize int) int {
	switch t.Kind {
	case TChar:
		return 1
	case TInt, TUint, TFloat:
		return 4
	case TLong, TULong, TDouble:
		return 8
	case TPtr:
		return ptrSize
	case TArray:
		return t.Elem.alignof(ptrSize)
	case TStruct:
		return t.S.layoutAlign(ptrSize)
	}
	return 1
}

func alignUp(n, a int) int { return (n + a - 1) &^ (a - 1) }

func (s *StructType) layout(ptrSize int) {
	if s.size == nil {
		s.size = map[int]int{}
		s.offs = map[int][]int{}
		s.align = map[int]int{}
	}
	if _, ok := s.size[ptrSize]; ok {
		return
	}
	off := 0
	maxAlign := 1
	offs := make([]int, len(s.Fields))
	for i, f := range s.Fields {
		a := f.Type.alignof(ptrSize)
		if a > maxAlign {
			maxAlign = a
		}
		off = alignUp(off, a)
		offs[i] = off
		off += f.Type.size(ptrSize)
	}
	s.size[ptrSize] = alignUp(off, maxAlign)
	s.offs[ptrSize] = offs
	s.align[ptrSize] = maxAlign
}

func (s *StructType) layoutSize(ptrSize int) int {
	s.layout(ptrSize)
	return s.size[ptrSize]
}

func (s *StructType) layoutAlign(ptrSize int) int {
	s.layout(ptrSize)
	return s.align[ptrSize]
}

// fieldOffset returns the byte offset and type of the named field.
func (s *StructType) fieldOffset(name string, ptrSize int) (int, *Type, bool) {
	s.layout(ptrSize)
	for i, f := range s.Fields {
		if f.Name == name {
			return s.offs[ptrSize][i], f.Type, true
		}
	}
	return 0, nil, false
}

// sameType reports structural type equality.
func sameType(a, b *Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case TPtr:
		if (a.Fn == nil) != (b.Fn == nil) {
			return false
		}
		if a.Fn != nil {
			return sameSig(a.Fn, b.Fn)
		}
		return sameType(a.Elem, b.Elem)
	case TArray:
		return a.N == b.N && sameType(a.Elem, b.Elem)
	case TStruct:
		return a.S == b.S
	}
	return true
}

func sameSig(a, b *FuncSig) bool {
	if len(a.Params) != len(b.Params) {
		return false
	}
	if !sameType(a.Ret, b.Ret) {
		return false
	}
	for i := range a.Params {
		if !sameType(a.Params[i], b.Params[i]) {
			return false
		}
	}
	return true
}
