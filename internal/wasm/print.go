package wasm

import (
	"fmt"
	"strings"
)

// Print renders the module in a WAT-like textual form for inspection and
// golden tests. It is not a strict WAT serializer.
func Print(m *Module) string {
	var sb strings.Builder
	sb.WriteString("(module\n")
	for i, t := range m.Types {
		fmt.Fprintf(&sb, "  (type %d %s)\n", i, t)
	}
	for _, im := range m.Imports {
		switch im.Kind {
		case ExternFunc:
			fmt.Fprintf(&sb, "  (import %q %q (func type=%d))\n", im.Module, im.Name, im.TypeIdx)
		case ExternMemory:
			fmt.Fprintf(&sb, "  (import %q %q (memory %d))\n", im.Module, im.Name, im.Mem.Min)
		case ExternGlobal:
			fmt.Fprintf(&sb, "  (import %q %q (global %s))\n", im.Module, im.Name, im.GlobalType.Type)
		case ExternTable:
			fmt.Fprintf(&sb, "  (import %q %q (table %d))\n", im.Module, im.Name, im.Table.Limits.Min)
		}
	}
	for _, mem := range m.Mems {
		if mem.HasMax {
			fmt.Fprintf(&sb, "  (memory %d %d)\n", mem.Min, mem.Max)
		} else {
			fmt.Fprintf(&sb, "  (memory %d)\n", mem.Min)
		}
	}
	for _, t := range m.Tables {
		fmt.Fprintf(&sb, "  (table %d funcref)\n", t.Limits.Min)
	}
	for i, g := range m.Globals {
		mut := ""
		if g.Type.Mutable {
			mut = "mut "
		}
		fmt.Fprintf(&sb, "  (global %d (%s%s) (%s))\n", m.NumImportedGlobals()+i, mut, g.Type.Type, g.Init)
	}
	nimp := m.NumImportedFuncs()
	for i := range m.Funcs {
		f := &m.Funcs[i]
		idx := uint32(nimp + i)
		ft := m.Types[f.TypeIdx]
		fmt.Fprintf(&sb, "  (func %s %s", m.FuncName(idx), ft)
		if len(f.Locals) > 0 {
			sb.WriteString(" (local")
			for _, l := range f.Locals {
				sb.WriteString(" " + l.String())
			}
			sb.WriteString(")")
		}
		sb.WriteString("\n")
		indent := 4
		for _, in := range f.Body {
			switch in.Op {
			case OpEnd, OpElse:
				indent -= 2
			}
			if indent < 4 {
				indent = 4
			}
			sb.WriteString(strings.Repeat(" ", indent))
			if in.Op == OpBrTable {
				fmt.Fprintf(&sb, "%s %v", OpName(in.Op), f.BrTargets(in))
			} else {
				sb.WriteString(in.String())
			}
			sb.WriteString("\n")
			switch in.Op {
			case OpBlock, OpLoop, OpIf, OpElse:
				indent += 2
			}
		}
		sb.WriteString("  )\n")
	}
	for _, e := range m.Exports {
		fmt.Fprintf(&sb, "  (export %q (%s %d))\n", e.Name, e.Kind, e.Index)
	}
	for _, e := range m.Elems {
		fmt.Fprintf(&sb, "  (elem (%s) %v)\n", e.Offset, e.Funcs)
	}
	for _, d := range m.Data {
		fmt.Fprintf(&sb, "  (data (%s) %d bytes)\n", d.Offset, len(d.Bytes))
	}
	sb.WriteString(")\n")
	return sb.String()
}
