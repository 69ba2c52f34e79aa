package cpu

import "repro/internal/x86"

// Materialized reports what m has materialized of its memory image so far:
// linear-memory bytes (both runs) and indirect-call table rows.
func (m *Machine) Materialized() (linear, tableRows int) {
	return len(m.Linear) + len(m.hi), len(m.tableMem) / x86.TableEntrySize
}
