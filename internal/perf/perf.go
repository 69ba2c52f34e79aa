// Package perf defines the hardware performance counters the paper records
// through Linux perf (Table 3) and the counter sets produced by the CPU
// simulator; event names and raw PMU descriptors match the paper. It also
// owns the repository's own performance trajectory: the BENCH_ci.json
// bench-artifact schema shared by cmd/benchjson (producer) and
// cmd/benchtrend (consumer), and the cross-run trend comparison
// (CompareBench) CI gates regressions with.
package perf

import (
	"fmt"
	"strings"
)

// Event identifies one performance counter.
type Event string

// The paper's Table 3 events.
const (
	AllLoadsRetired     Event = "all-loads-retired"    // r81d0
	AllStoresRetired    Event = "all-stores-retired"   // r82d0
	BranchesRetired     Event = "branches-retired"     // r00c4
	ConditionalBranches Event = "conditional-branches" // r01c4
	InstructionsRetired Event = "instructions-retired" // r1c0
	CPUCycles           Event = "cpu-cycles"
	L1ICacheLoadMisses  Event = "L1-icache-load-misses"
	L1DCacheLoadMisses  Event = "L1-dcache-load-misses"
	BranchMisses        Event = "branch-misses"
)

// Table3 lists the events with the paper's summary column.
func Table3() []struct{ Event, Raw, Summary string } {
	return []struct{ Event, Raw, Summary string }{
		{string(AllLoadsRetired), "r81d0", "Increased register pressure"},
		{string(AllStoresRetired), "r82d0", "Increased register pressure"},
		{string(BranchesRetired), "r00c4", "More branch statements"},
		{string(ConditionalBranches), "r01c4", "More branch statements"},
		{string(InstructionsRetired), "r1c0", "Increased code size"},
		{string(CPUCycles), "", "Increased code size"},
		{string(L1ICacheLoadMisses), "", "Increased code size"},
	}
}

// Counters is a snapshot of the simulated PMU.
type Counters struct {
	Loads        uint64
	Stores       uint64
	Branches     uint64
	CondBranches uint64
	Instructions uint64
	Cycles       uint64
	L1IMisses    uint64
	L1DMisses    uint64
	L2Misses     uint64
	BranchMiss   uint64
}

// Get returns the value of the named event.
func (c *Counters) Get(ev Event) uint64 {
	switch ev {
	case AllLoadsRetired:
		return c.Loads
	case AllStoresRetired:
		return c.Stores
	case BranchesRetired:
		return c.Branches
	case ConditionalBranches:
		return c.CondBranches
	case InstructionsRetired:
		return c.Instructions
	case CPUCycles:
		return c.Cycles
	case L1ICacheLoadMisses:
		return c.L1IMisses
	case L1DCacheLoadMisses:
		return c.L1DMisses
	case BranchMisses:
		return c.BranchMiss
	}
	return 0
}

// Sub returns c - o (for interval measurements).
func (c *Counters) Sub(o *Counters) Counters {
	return Counters{
		Loads:        c.Loads - o.Loads,
		Stores:       c.Stores - o.Stores,
		Branches:     c.Branches - o.Branches,
		CondBranches: c.CondBranches - o.CondBranches,
		Instructions: c.Instructions - o.Instructions,
		Cycles:       c.Cycles - o.Cycles,
		L1IMisses:    c.L1IMisses - o.L1IMisses,
		L1DMisses:    c.L1DMisses - o.L1DMisses,
		L2Misses:     c.L2Misses - o.L2Misses,
		BranchMiss:   c.BranchMiss - o.BranchMiss,
	}
}

// Seconds converts cycles to wall time at the simulated clock (3.5 GHz,
// matching the paper's Xeon E5-1650 v3).
func (c *Counters) Seconds() float64 { return float64(c.Cycles) / 3.5e9 }

func (c *Counters) String() string {
	type kv struct {
		k string
		v uint64
	}
	rows := []kv{
		{"instructions", c.Instructions}, {"cycles", c.Cycles},
		{"loads", c.Loads}, {"stores", c.Stores},
		{"branches", c.Branches}, {"cond-branches", c.CondBranches},
		{"L1i-misses", c.L1IMisses}, {"L1d-misses", c.L1DMisses},
		{"L2-misses", c.L2Misses}, {"branch-misses", c.BranchMiss},
	}
	var parts []string
	for _, r := range rows {
		parts = append(parts, fmt.Sprintf("%s=%d", r.k, r.v))
	}
	return strings.Join(parts, " ")
}
