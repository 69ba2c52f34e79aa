package minic_test

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/minic"
	"repro/internal/workloads"
)

// lexEdgeSources end where a token or comment could run into the runtime
// prelude that follows every program.
var lexEdgeSources = map[string]string{
	"empty":                "",
	"line comment no EOL":  "int main() { return 0; } // trailing",
	"hash line no EOL":     "int main() { return 0; }\n#define X 1",
	"unterminated block":   "int main() { return 0; } /* never closed",
	"unterminated string":  "char *s = \"abc",
	"quote at EOF":         "int c = '",
	"quote escape at EOF":  "int c = '\\",
	"NUL byte":             "int main() { return 0; }\x00 int x;",
	"NUL char literal":     "int c = '\x00'; int main() { return c; }",
	"escapes":              "char *s = \"a\\tb\\n\\\\\\\"\"; char *t = \"\"; int c = '\\n';",
	"operators":            "a<<=b>>=c...d<<e>>f<=g>=h==i!=j&&k||l->m+=n-=o*=p/=q%=r&=s|=t^=u++v--w<x>y.z",
	"numbers":              "1. .5 1e3 1.5e-3f 0x1f 10UL 3f 7",
	"trailing ident":       "int main() { return 0; } x",
	"trailing number":      "int main() { return 0; } 1.",
	"trailing slash":       "int main() { return 0; } /",
	"raw newline in char":  "int c = '\n';",
	"missing close brace":  "int main() { return 0;",
	"syntax error at line": "int main() {\n  return 0 0;\n}",
}

// TestLexProgramMatchesConcatenation checks that the spliced stream Compile
// parses (the program's tokens, then the shared runtime tokens shifted to
// the program's EOF line) equals the stream lexed from the concatenated
// text, token for token, and fails with the same error text.
func TestLexProgramMatchesConcatenation(t *testing.T) {
	srcs := maps.Clone(lexEdgeSources)
	for _, w := range append(workloads.SPECCPU(), workloads.Polybench()...) {
		srcs[w.Name] = w.Source
	}
	for name, src := range srcs {
		spliced, concat, sErr, cErr := minic.LexBothWays(src)
		if fmt.Sprint(sErr) != fmt.Sprint(cErr) {
			t.Errorf("%s: spliced error %v, concatenated error %v", name, sErr, cErr)
			continue
		}
		if !slices.Equal(spliced, concat) {
			t.Errorf("%s: spliced stream differs from the concatenated one:\n%v\n%v", name, spliced, concat)
			continue
		}
		// Parse errors, lines included, must not tell the two apart either.
		_, compErr := minic.Compile(src, minic.ABI32)
		_, parseErr := minic.Parse(src + "\n" + minic.RuntimeSource)
		if parseErr != nil && fmt.Sprint(compErr) != fmt.Sprint(parseErr) {
			t.Errorf("%s: Compile error %v, Parse of the concatenation %v", name, compErr, parseErr)
		}
	}
}
