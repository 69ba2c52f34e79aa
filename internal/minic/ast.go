package minic

// Expr is an expression node.
type Expr struct {
	Op   string // node kind: "num","fnum","str","var","call","bin","un","assign","cond","index","member","cast","sizeof","post"
	Line int

	// Literals.
	Ival int64
	Fval float64
	Sval string

	// Identifiers.
	Name string

	// Operator text for bin/un/assign/post.
	Tok string

	X, Y, Z *Expr
	Args    []*Expr

	// Cast / sizeof type.
	T *Type

	// The object type, set once by fgen.resolve: an array, struct or
	// function name keeps its own type, which sizeof and & read; value()
	// gives the type it evaluates to (the address of the aggregate, a
	// pointer to the function). Other nodes' value type is typ itself.
	typ *Type
}

// Stmt is a statement node.
type Stmt struct {
	Op   string // "expr","decl","if","while","do","for","return","break","continue","block","switch","case","default"
	Line int

	E          *Expr
	Init       *Stmt
	Cond, Post *Expr
	Body       *Stmt
	Else       *Stmt
	Stmts      []*Stmt

	// Declarations.
	DeclName string
	DeclType *Type
	DeclInit *Expr

	// Switch support.
	Cases   []*SwitchCase
	CaseVal int64
}

// SwitchCase is one case arm.
type SwitchCase struct {
	Val       int64
	IsDefault bool
	Stmts     []*Stmt
}

// Param is a function parameter.
type Param struct {
	Name string
	Type *Type
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Params []Param
	Ret    *Type
	Body   *Stmt
	Line   int
}

// GlobalDecl is a file-scope variable.
type GlobalDecl struct {
	Name string
	Type *Type
	Init *Expr // constant initializer or nil
	// InitList for arrays: constant element initializers.
	InitList []*Expr
	Line     int
}

// Program is a parsed translation unit.
type Program struct {
	Structs map[string]*StructType
	Globals []*GlobalDecl
	Funcs   []*FuncDecl
}
