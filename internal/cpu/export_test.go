package cpu

import "repro/internal/x86"

// Materialized reports what m has materialized of its memory image so far:
// linear-memory bytes (both runs) and indirect-call table rows.
func (m *Machine) Materialized() (linear, tableRows int) {
	return len(m.Linear) + len(m.hi), len(m.tableMem) / x86.TableEntrySize
}

// PredecodedKinds returns the micro-op kind of each instruction of p as the
// dispatch loop sees it, after fusion, in the order of decode.go's uopKind
// constants (0 is uSlow).
func PredecodedKinds(p *x86.Program) []uint8 {
	ops := predecode(p)
	kinds := make([]uint8, len(ops))
	for i := range ops {
		kinds[i] = uint8(ops[i].kind)
	}
	return kinds
}
