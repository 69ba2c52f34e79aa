package main

// sim-suite: execution-bound. Setup compiles a seeded draw for native and
// chrome at the exact and functional tiers; the main phase runs whole passes
// of one pipeline.Execute at a time, exact (the operation) and functional
// (the alternate) interleaved in a seeded order.

import (
	"fmt"
	"time"

	"repro/internal/codegen"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/perf"
	"repro/internal/pipeline"
)

// simMod is one program compiled for one engine at one tier.
type simMod struct {
	Prog   program
	Engine string
	Tier   string
	cm     *codegen.CompiledModule
}

func (m *simMod) key() string { return m.Prog.Name + "/" + m.Engine + "/" + m.Tier }

func (m *simMod) request() *pipeline.Request {
	return &pipeline.Request{Engine: m.Engine, Fidelity: m.Tier, Argv: m.Prog.Argv, Files: m.Prog.Files}
}

// simSet is a compiled draw plus the reference outputs the checks use.
type simSet struct {
	mods []*simMod
	// stdout is each program's output from its first run; every engine and
	// tier must reproduce it.
	stdout map[string]string
}

// compileSimSet compiles progs for every sim engine and tier through the
// pipeline cache. tag makes the sources new, so each setup repetition
// compiles cold; each compile must be exactly one cache miss.
func (b *bench) compileSimSet(progs []program, tag string) (*simSet, error) {
	set := &simSet{stdout: map[string]string{}}
	for _, p := range progs {
		src := withSuffix(p.Source, b.seed, tag)
		for _, e := range simEngines {
			for _, t := range tiers {
				m := &simMod{Prog: p, Engine: e, Tier: t}
				req := m.request()
				req.Module = src
				before := pipeline.Stats()
				cm, err := pipeline.Compile(b.ctx, req)
				if err != nil {
					return nil, fmt.Errorf("compiling %s: %w", m.key(), err)
				}
				if d := pipeline.Stats().Sub(before); d != (pipeline.CacheStats{Misses: 1}) {
					return nil, fmt.Errorf("compiling %s: cache traffic %v, want one miss", m.key(), d)
				}
				m.cm = cm
				set.mods = append(set.mods, m)
			}
		}
	}
	return set, nil
}

// simOp is one timed execution; secs is its time at the reference host
// speed (see hostRef).
type simOp struct {
	insts uint64
	secs  float64
}

// simTotals collects timed executions per tier.
type simTotals struct {
	ops map[string][]simOp
}

func newSimTotals() *simTotals { return &simTotals{ops: map[string][]simOp{}} }

// rate returns a tier's simulated instructions per second of execution.
func (t *simTotals) rate(tier string) float64 {
	var insts uint64
	var total float64
	for _, o := range t.ops[tier] {
		insts += o.insts
		total += o.secs
	}
	if total == 0 {
		return 0
	}
	return float64(insts) / total
}

// execute runs one module and checks its output. Traced runs take the same
// steps pipeline.Execute takes, through the kernel's public API, so spawn
// and run time separately.
func (b *bench) execute(set *simSet, m *simMod, tot *simTotals) error {
	op := b.opID()
	var res *pipeline.Result
	var err error
	var iv interval
	// The host's speed during the execution is the mean of a sample just
	// before and one just after it.
	scale := 1.0
	if tot != nil {
		scale = b.ref.scaleNow(0)
	}
	if b.tr.enabled() {
		res, iv, err = b.executeTraced(m, op)
	} else {
		iv.T0 = time.Now()
		res, err = pipeline.Execute(b.ctx, m.cm, m.request())
		iv.T1 = time.Now()
	}
	if err != nil {
		return fmt.Errorf("%s: %w", m.key(), err)
	}
	if tot != nil {
		scale = (scale + b.ref.scaleNow(0)) / 2
		tot.ops[m.Tier] = append(tot.ops[m.Tier], simOp{res.Counters.Instructions, iv.secs() * scale})
	}
	return b.checkSim(set, m, res)
}

// checkSim applies the sim-suite output checks: exit 0; stdout equal to the
// program's first output on any engine (the Browsix-SPEC cmp); counters equal
// to this module's first run; architectural counters equal across tiers.
func (b *bench) checkSim(set *simSet, m *simMod, res *pipeline.Result) error {
	if res.ExitCode != 0 {
		return fmt.Errorf("%s: exit %d", m.key(), res.ExitCode)
	}
	b.mu.Lock()
	want, seen := set.stdout[m.Prog.Name]
	if !seen {
		set.stdout[m.Prog.Name] = res.Stdout
	}
	b.mu.Unlock()
	if seen && res.Stdout != want {
		return fmt.Errorf("%s: stdout %q, other engines printed %q", m.key(), res.Stdout, want)
	}
	if err := b.recordCounters(m.key(), res.Counters); err != nil {
		return err
	}
	other := "exact"
	if m.Tier == "exact" {
		other = "functional"
	}
	b.mu.Lock()
	oc, ok := b.counters[m.Prog.Name+"/"+m.Engine+"/"+other]
	b.mu.Unlock()
	if ok {
		row := perf.FidelityRow{Workload: m.Prog.Name, Exact: res.Counters, Approx: oc}
		if !row.ArchExact() {
			return fmt.Errorf("%s: architectural counters differ from the %s tier", m.key(), other)
		}
	}
	return nil
}

// executeTraced is pipeline.Execute's sequence with a span per kernel call,
// plus a separate cpu.Load of the same module.
func (b *bench) executeTraced(m *simMod, op int64) (*pipeline.Result, interval, error) {
	load := b.tr.begin("cpu.load", op, 0)
	if inst, err := cpu.Load(m.cm); err == nil {
		inst.ReleaseMemory()
	}
	b.tr.end(load)

	iv := interval{T0: time.Now()}
	root := b.tr.begin("op.sim", op, 0)
	res, err := runInKernel(b.tr, op, root, m.cm, m.Prog.Argv, m.Prog.Files)
	b.tr.end(root)
	iv.T1 = time.Now()
	if err == nil {
		b.mu.Lock()
		b.browsix = append(b.browsix, res.Proc.BrowsixShare())
		b.mu.Unlock()
	}
	return res, iv, err
}

// runInKernel spawns cm in a fresh kernel and waits for it, recording
// kernel.spawn and kernel.run spans under parent.
func runInKernel(tr *tracer, op int64, parent int, cm *codegen.CompiledModule, argv []string, files map[string][]byte) (*pipeline.Result, error) {
	k := kernel.New(nil)
	for p, data := range files {
		if err := k.FS.WriteFileAll(p, data); err != nil {
			return nil, err
		}
	}
	k.RegisterBinary("/bin/prog", cm)
	sp := tr.begin("kernel.spawn", op, parent)
	p, err := k.Spawn(nil, "/bin/prog", argv, [3]*kernel.FD{})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	rn := tr.begin("kernel.run", op, parent)
	code, err := k.WaitPID(p.PID)
	tr.end(rn)
	if err != nil {
		return nil, err
	}
	return &pipeline.Result{ExitCode: code, Stdout: string(k.Console), Counters: p.Inst.Counters, Proc: p}, nil
}

// warmUp runs every functional-tier module once: it fills the machine-memory
// pool and lazy state, and records each program's reference output.
func (b *bench) warmUp(set *simSet) {
	for _, m := range set.mods {
		if m.Tier == "functional" {
			b.op(b.execute(set, m, nil))
		}
	}
}

// reportSim sets the simulation metrics: end to end from the untraced
// passes, per layer from the traced ones. The main phase
// also reports the tracing overhead.
func (b *bench) reportSim(untraced, traced *simTotals, main bool) {
	if b.tr == nil {
		b.setE2E("sim_mips", untraced.rate("exact")/1e6, "MIPS")
		b.setE2E("func_mips", untraced.rate("functional")/1e6, "MIPS")
		return
	}
	nsPer := func(tier string) float64 {
		if r := traced.rate(tier); r > 0 {
			return 1e9 / r
		}
		return 0
	}
	var insts uint64
	for _, ops := range traced.ops {
		for _, o := range ops {
			insts += o.insts
		}
	}
	b.setLayer("cpu.sim_insts", float64(insts), "count")
	b.setLayer("cpu.exact_ns_per_inst", nsPer("exact"), "ns")
	b.setLayer("cpu.func_ns_per_inst", nsPer("functional"), "ns")
	if u := untraced.rate("exact"); main && u > 0 {
		b.setLayer("trace.overhead_pct", (u-traced.rate("exact"))/u*100, "%")
	}
}
