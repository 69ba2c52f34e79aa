package minic

import (
	"math"
	"testing"
)

// TestLexLiterals pins numeric literal lexing: the values accepted, the
// literals rejected as out of range or malformed, and the consumed suffixes.
func TestLexLiterals(t *testing.T) {
	ints := []struct {
		src  string
		want int64
	}{
		{"007", 7},
		{"0", 0},
		{"9223372036854775807", math.MaxInt64},
		{"0x7fffffffffffffff", math.MaxInt64},
		{"0X1f", 31},
		{"10l", 10},
		{"10L", 10},
		{"10u", 10},
		{"10U", 10},
		{"10UL", 10},
		{"0x10lu", 16},
	}
	for _, c := range ints {
		toks, err := lexAll(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if len(toks) != 2 || toks[0].kind != tInt || toks[0].ival != c.want || toks[1].kind != tEOF {
			t.Errorf("%q: lexed %+v, want one int %d", c.src, toks, c.want)
		}
	}

	floats := []struct {
		src  string
		want float64
	}{
		{"1.", 1},
		{".5", 0.5},
		{"1.5e-3f", 1.5e-3},
		{"2.5F", 2.5},
		{"3f", 3},
		{"1e+2", 100},
		{"1e-400", 0},
	}
	for _, c := range floats {
		toks, err := lexAll(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if len(toks) != 2 || toks[0].kind != tFloat || toks[0].fval != c.want || toks[1].kind != tEOF {
			t.Errorf("%q: lexed %+v, want one float %g", c.src, toks, c.want)
		}
	}

	for _, src := range []string{
		"9223372036854775808",
		"0xffffffffffffffff",
		"0x",
		"1e",
		"1e+",
		"1e999",
	} {
		if toks, err := lexAll(src); err == nil {
			t.Errorf("%q: lexed %+v, want an error", src, toks)
		}
	}
}
