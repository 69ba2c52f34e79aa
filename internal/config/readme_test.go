package config

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
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

	inTable := map[string]bool{}
	for _, row := range readmeKnobRows(t) {
		for _, name := range regexp.MustCompile(`REPRO_[A-Z0-9_]+`).FindAllString(row, -1) {
			inTable[name] = true
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

// readmeKnobRows returns the lines of README's "Runtime knobs" table.
func readmeKnobRows(t *testing.T) []string {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Runtime knobs\n")
	if !ok {
		t.Fatal(`README has no "## Runtime knobs" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		}
	}
	return rows
}

// TestReadmeKnobFlagsDefined pins the flag rows of README's "Runtime
// knobs" table to the commands: every `-name` in a row's Knob column must
// be a flag that each command its Kind column lists, "flag (`cmd`, ...)",
// defines.
func TestReadmeKnobFlagsDefined(t *testing.T) {
	flagRe := regexp.MustCompile("`-([a-z0-9-]+)`")
	cmdRe := regexp.MustCompile("`([a-z0-9-]+)`")
	defined := map[string]map[string]bool{} // command -> flag names
	for _, row := range readmeKnobRows(t) {
		cells := strings.Split(row, "|")
		if len(cells) < 3 {
			continue
		}
		flags := flagRe.FindAllStringSubmatch(cells[1], -1)
		if len(flags) == 0 {
			continue
		}
		_, cmds, _ := strings.Cut(cells[2], "flag (")
		cmds, _, _ = strings.Cut(cmds, ")")
		names := cmdRe.FindAllStringSubmatch(cmds, -1)
		if len(names) == 0 {
			t.Errorf("README knob row %q names a flag but lists no command in its Kind column", strings.TrimSpace(cells[1]))
		}
		for _, cmd := range names {
			if defined[cmd[1]] == nil {
				defined[cmd[1]] = commandFlags(t, cmd[1])
			}
			for _, f := range flags {
				if !defined[cmd[1]][f[1]] {
					t.Errorf("README's Runtime knobs table lists -%s for %s, which does not define it", f[1], cmd[1])
				}
			}
		}
	}
}

// flagDefiners are the flag package's defining functions and FlagSet
// methods; the flag's name is their first string-literal argument.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true,
	"IntVar": true, "Int64": true, "Int64Var": true, "String": true,
	"StringVar": true, "TextVar": true, "Uint": true, "UintVar": true,
	"Uint64": true, "Uint64Var": true, "Var": true,
}

// commandFlags returns the flag names cmd/<cmd>'s non-test sources define.
func commandFlags(t *testing.T, cmd string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob("../../cmd/" + cmd + "/*.go")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefiners[sel.Sel.Name] {
				return true
			}
			for _, arg := range call.Args[:min(2, len(call.Args))] {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err == nil {
						names[name] = true
					}
					break
				}
			}
			return true
		})
	}
	if len(names) == 0 {
		t.Fatalf("cmd/%s defines no flags", cmd)
	}
	return names
}
