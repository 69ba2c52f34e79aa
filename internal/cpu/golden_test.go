package cpu

// Golden counter test: a small hand-built program exercising loads, stores,
// ALU ops, shifts, division, SSE arithmetic, conditional branches, calls,
// and the jump table. The final counter snapshot is pinned bit-for-bit, so
// any engine rewrite that perturbs counter semantics fails here in
// milliseconds instead of in the 40-second differential suites.

import (
	"fmt"
	"testing"

	"repro/internal/perf"
	"repro/internal/x86"
)

// buildGoldenProgram assembles:
//
//	main: sum = 0; for i in 0..63: mem[i*8] = i*3; sum += mem[i*8]
//	      sum += helper(sum)  (doubles its argument)
//	      plus one float accumulation loop and a 3-way jump table
func buildGoldenProgram() *x86.Program {
	p := x86.NewProgram()
	const (
		lMain = iota
		lLoop1
		lLoop1End
		lLoop2
		lLoop2End
		lHelper
		lCase0
		lCase1
		lCase2
		lDone
	)
	ap := func(in x86.Inst) { p.Append(in) }

	p.Bind(lMain)
	// rcx = i = 0, rbx = base addr 512
	ap(x86.Inst{Op: x86.OMovImm, W: 8, Dst: x86.R(x86.RCX), Src: x86.Imm(0)})
	ap(x86.Inst{Op: x86.OMovImm, W: 8, Dst: x86.R(x86.RBX), Src: x86.Imm(512)})
	ap(x86.Inst{Op: x86.OMovImm, W: 8, Dst: x86.R(x86.RSI), Src: x86.Imm(0)}) // sum

	p.Bind(lLoop1)
	ap(x86.Inst{Op: x86.OCmp, W: 8, Dst: x86.R(x86.RCX), Src: x86.Imm(64)})
	ap(x86.Inst{Op: x86.OJcc, CC: x86.CCGE, Target: lLoop1End})
	// rax = i*3 via lea [rcx + rcx*2]
	ap(x86.Inst{Op: x86.OLea, W: 8, Dst: x86.R(x86.RAX),
		Src: x86.M(x86.Mem{Base: x86.RCX, Index: x86.RCX, Scale: 2})})
	// mem[rbx + rcx*8] = rax
	ap(x86.Inst{Op: x86.OMov, W: 8,
		Dst: x86.M(x86.Mem{Base: x86.RBX, Index: x86.RCX, Scale: 8}),
		Src: x86.R(x86.RAX)})
	// sum += mem[rbx + rcx*8]  (RMW-style load)
	ap(x86.Inst{Op: x86.OAdd, W: 8, Dst: x86.R(x86.RSI),
		Src: x86.M(x86.Mem{Base: x86.RBX, Index: x86.RCX, Scale: 8})})
	// a 32-bit op, shift, and bit op for coverage
	ap(x86.Inst{Op: x86.OAdd, W: 4, Dst: x86.R(x86.RDI), Src: x86.R(x86.RCX)})
	ap(x86.Inst{Op: x86.OShl, W: 8, Dst: x86.R(x86.RDI), Src: x86.Imm(1)})
	ap(x86.Inst{Op: x86.OShr, W: 8, Dst: x86.R(x86.RDI), Src: x86.Imm(1)})
	ap(x86.Inst{Op: x86.OAdd, W: 8, Dst: x86.R(x86.RCX), Src: x86.Imm(1)})
	ap(x86.Inst{Op: x86.OJmp, Target: lLoop1})

	p.Bind(lLoop1End)
	// sum = helper(sum) twice: call overhead, stack traffic
	ap(x86.Inst{Op: x86.OMov, W: 8, Dst: x86.R(x86.RDI), Src: x86.R(x86.RSI)})
	ap(x86.Inst{Op: x86.OCall, Target: lHelper})
	ap(x86.Inst{Op: x86.OMov, W: 8, Dst: x86.R(x86.RDI), Src: x86.R(x86.RAX)})
	ap(x86.Inst{Op: x86.OCall, Target: lHelper})
	ap(x86.Inst{Op: x86.OMov, W: 8, Dst: x86.R(x86.RSI), Src: x86.R(x86.RAX)})

	// float loop: xmm0 = 0.0; for i in 0..15: xmm0 = (xmm0 + i) * 1.5ish
	ap(x86.Inst{Op: x86.OMovImm, W: 8, Dst: x86.R(x86.RCX), Src: x86.Imm(0)})
	ap(x86.Inst{Op: x86.OMovImm, W: 8, Dst: x86.R(x86.RAX), Src: x86.Imm(0)})
	ap(x86.Inst{Op: x86.OMovq, W: 8, Dst: x86.R(x86.XMM0), Src: x86.R(x86.RAX)})
	p.Bind(lLoop2)
	ap(x86.Inst{Op: x86.OCmp, W: 8, Dst: x86.R(x86.RCX), Src: x86.Imm(16)})
	ap(x86.Inst{Op: x86.OJcc, CC: x86.CCGE, Target: lLoop2End})
	ap(x86.Inst{Op: x86.OCvtsi2sd, W: 8, Dst: x86.R(x86.XMM1), Src: x86.R(x86.RCX)})
	ap(x86.Inst{Op: x86.OAddsd, W: 8, Dst: x86.R(x86.XMM0), Src: x86.R(x86.XMM1)})
	ap(x86.Inst{Op: x86.OMulsd, W: 8, Dst: x86.R(x86.XMM0), Src: x86.R(x86.XMM1)})
	ap(x86.Inst{Op: x86.OAdd, W: 8, Dst: x86.R(x86.RCX), Src: x86.Imm(1)})
	ap(x86.Inst{Op: x86.OJmp, Target: lLoop2})
	p.Bind(lLoop2End)
	ap(x86.Inst{Op: x86.OCvttsd2si, W: 8, Dst: x86.R(x86.RDX), Src: x86.R(x86.XMM0)})
	ap(x86.Inst{Op: x86.OAdd, W: 8, Dst: x86.R(x86.RSI), Src: x86.R(x86.RDX)})

	// sum %= 3 via div, then dispatch through a jump table
	ap(x86.Inst{Op: x86.OMov, W: 8, Dst: x86.R(x86.RAX), Src: x86.R(x86.RSI)})
	ap(x86.Inst{Op: x86.OMovImm, W: 8, Dst: x86.R(x86.RDX), Src: x86.Imm(0)})
	ap(x86.Inst{Op: x86.OMovImm, W: 8, Dst: x86.R(x86.R8), Src: x86.Imm(3)})
	ap(x86.Inst{Op: x86.ODiv, W: 8, Dst: x86.R(x86.R8)})
	p.AppendTable(x86.Inst{Op: x86.OJmpTable, Dst: x86.R(x86.RDX)}, []int{lCase0, lCase1, lCase2})
	p.Bind(lCase0)
	ap(x86.Inst{Op: x86.OAdd, W: 8, Dst: x86.R(x86.RSI), Src: x86.Imm(100)})
	ap(x86.Inst{Op: x86.OJmp, Target: lDone})
	p.Bind(lCase1)
	ap(x86.Inst{Op: x86.OAdd, W: 8, Dst: x86.R(x86.RSI), Src: x86.Imm(200)})
	ap(x86.Inst{Op: x86.OJmp, Target: lDone})
	p.Bind(lCase2)
	ap(x86.Inst{Op: x86.OAdd, W: 8, Dst: x86.R(x86.RSI), Src: x86.Imm(300)})
	p.Bind(lDone)
	ap(x86.Inst{Op: x86.OMov, W: 8, Dst: x86.R(x86.RAX), Src: x86.R(x86.RSI)})
	ap(x86.Inst{Op: x86.ORet})

	// helper(rdi) = rdi*2, with stack push/pop and a movzx for coverage
	p.Bind(lHelper)
	ap(x86.Inst{Op: x86.OPush, Dst: x86.R(x86.RBP)})
	ap(x86.Inst{Op: x86.OMov, W: 8, Dst: x86.R(x86.RAX), Src: x86.R(x86.RDI)})
	ap(x86.Inst{Op: x86.OMovZX8, W: 8, Dst: x86.R(x86.RBP), Src: x86.R(x86.RDI)})
	ap(x86.Inst{Op: x86.OImul, W: 8, Dst: x86.R(x86.RAX), Src: x86.Imm(2)})
	ap(x86.Inst{Op: x86.OPop, Dst: x86.R(x86.RBP)})
	ap(x86.Inst{Op: x86.ORet})

	p.Layout()
	if err := resolveLabels(p); err != nil {
		panic(err)
	}
	return p
}

// goldenCounters is the seed engine's counter snapshot for the program
// above. Any deviation means counter semantics changed.
var goldenCounters = perf.Counters{
	Loads:        70,
	Stores:       68,
	Branches:     169,
	CondBranches: 82,
	Instructions: 790,
	Cycles:       1612,
	L1IMisses:    4,
	L1DMisses:    9,
	L2Misses:     9,
	BranchMiss:   2,
}

func runGolden(t *testing.T, legacy bool) (uint64, perf.Counters) {
	t.Helper()
	m := NewMachine(buildGoldenProgram(), 1, 1)
	m.NoPredecode = legacy
	ret, err := m.Call(0)
	if err != nil {
		t.Fatalf("golden program trapped: %v", err)
	}
	return ret, m.Counters
}

func TestGoldenCounters(t *testing.T) {
	ret, got := runGolden(t, false)
	if want := uint64(7109254968427); ret != want {
		t.Errorf("golden program returned %d, want %d", ret, want)
	}
	if got != goldenCounters {
		t.Errorf("counters diverged:\n got:  %v\n want: %v", got.String(), goldenCounters.String())
	}
}

// TestPredecodeMatchesLegacy runs the program under both the pre-decoded
// micro-op engine and the legacy interpreter and demands identical results.
func TestPredecodeMatchesLegacy(t *testing.T) {
	r1, c1 := runGolden(t, false)
	r2, c2 := runGolden(t, true)
	if r1 != r2 {
		t.Errorf("return values differ: predecoded %d, legacy %d", r1, r2)
	}
	if c1 != c2 {
		t.Errorf("counters differ:\n predecoded: %v\n legacy:     %v", c1.String(), c2.String())
	}
}

// resolveLabels rewrites the label-id branch, call and jump-table targets of
// a hand-built program to instruction indices through LabelTarget, the
// lookup codegen's fragment merge resolves with.
func resolveLabels(p *x86.Program) error {
	resolve := func(t *int) error {
		idx, ok := p.LabelTarget(*t)
		if !ok {
			return fmt.Errorf("undefined label L%d", *t)
		}
		*t = idx
		return nil
	}
	for i := range p.Code {
		switch p.Code[i].Op {
		case x86.OJmp, x86.OJcc, x86.OCall:
			if err := resolve(&p.Code[i].Target); err != nil {
				return err
			}
		}
	}
	for _, table := range p.Tables {
		for k := range table {
			if err := resolve(&table[k]); err != nil {
				return err
			}
		}
	}
	return nil
}
