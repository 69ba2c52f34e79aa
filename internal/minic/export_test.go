package minic

import (
	"fmt"
	"math"
)

// DataBase exposes the data image's base address to the external tests.
const DataBase = dataBase

// RuntimeSource exposes the runtime prelude to the external tests.
const RuntimeSource = runtimeSource

// LexBothWays lexes src linked with the runtime prelude twice: spliced, as
// Compile does, and from the concatenation src + "\n" + runtimeSource. Each
// token is rendered with its kind, text, ival, fval bits and line.
func LexBothWays(src string) (spliced, concat []string, splicedErr, concatErr error) {
	render := func(t token) string {
		return fmt.Sprintf("%d %q %d %#x %d", t.kind, t.text, t.ival, math.Float64bits(t.fval), t.line)
	}
	ts, splicedErr := lexProgram(src)
	if splicedErr == nil {
		for i := range len(ts.head) + len(ts.tail) {
			spliced = append(spliced, render(ts.at(i)))
		}
	}
	toks, concatErr := lexAll(src + "\n" + runtimeSource)
	for _, t := range toks {
		concat = append(concat, render(t))
	}
	return spliced, concat, splicedErr, concatErr
}
