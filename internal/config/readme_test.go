package config

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestReadmeKnobTableFresh pins README's "Runtime knobs" table to this
// registry: every Env* constant has a row, and every $REPRO_* name the
// table mentions is one of them.
func TestReadmeKnobTableFresh(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "config.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	registry := map[string]bool{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if i >= len(vs.Values) || !strings.HasPrefix(name.Name, "Env") {
					continue
				}
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok {
					v, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					registry[v] = true
				}
			}
		}
	}
	if len(registry) == 0 {
		t.Fatal("no Env* constants found in config.go")
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Runtime knobs\n")
	if !ok {
		t.Fatal(`README has no "## Runtime knobs" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	inTable := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "|") {
			for _, name := range regexp.MustCompile(`REPRO_[A-Z0-9_]+`).FindAllString(line, -1) {
				inTable[name] = true
			}
		}
	}
	for name := range registry {
		if !inTable[name] {
			t.Errorf("%s has no row in README's Runtime knobs table", name)
		}
	}
	for name := range inTable {
		if !registry[name] {
			t.Errorf("README's Runtime knobs table names %s, which internal/config does not define", name)
		}
	}
}
