package main

// compile-cold: compile-bound. Each operation is one pipeline.Compile of a
// source never seen before (this process's disk store is off), over whole
// seeded cycles of every catalogue program for native, chrome and firefox.
// Each module, encoded with CompileTime cleared, must be byte-identical to
// setup's direct compile of the source without the comment.

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/pipeline"
	"repro/internal/regalloc"
	"repro/internal/wasm"
	"repro/internal/x86"
)

// Sizes, in whole cycles of the 114-pair pool, spread over the rounds.
// Every cold compile stays resident in the process-wide build cache (about
// 0.7 MB each), so the cold phase is a fixed count rather than a time
// budget; that also keeps rss_mb independent of speed.
const (
	coldCycles         = 4 // compile-cold main phase: 456 compiles
	compileProbeCycles = 4 // compile probe on the other workloads: 456
	storeColdCycles    = 4 // compile-cold's store-warm alternates: 456
	storeProbeCycles   = 4 // store probe on the other workloads: 456
)

// pairKey identifies a program/engine pair.
func pairKey(p pair) string { return p.Prog.Name + "/" + p.Engine }

// directCompile compiles src for engine with the layers' public functions,
// bypassing the pipeline's cache: the same steps the pipeline's uncached
// build takes.
func directCompile(src, engine string) (*codegen.CompiledModule, error) {
	cfg, err := codegen.Engine(engine)
	if err != nil {
		return nil, err
	}
	abi := pipeline.ABIFor(cfg)
	m, err := minic.Compile(src, abi)
	if err != nil {
		return nil, err
	}
	cm, err := codegen.Compile(m, cfg)
	if err != nil {
		return nil, err
	}
	cm.PtrSize = abi.PtrSize
	return cm, nil
}

// encodeClean encodes cm with CompileTime cleared, the one field that
// differs between two compiles of the same source.
func encodeClean(cm *codegen.CompiledModule) ([]byte, error) {
	c := *cm
	c.CompileTime = 0
	return codegen.EncodeModule(&c)
}

// references compiles every pair directly and returns the sha256 of each
// clean encoding.
func references(pool []pair) (map[string][32]byte, error) {
	refs := make(map[string][32]byte, len(pool))
	for _, p := range pool {
		cm, err := directCompile(p.Prog.Source, p.Engine)
		if err != nil {
			return nil, fmt.Errorf("reference compile of %s: %w", pairKey(p), err)
		}
		data, err := encodeClean(cm)
		if err != nil {
			return nil, fmt.Errorf("encoding %s: %w", pairKey(p), err)
		}
		refs[pairKey(p)] = sha256.Sum256(data)
	}
	return refs, nil
}

// coldCompile runs one cold pipeline.Compile and checks it: exactly one
// miss, and a module byte-identical to the reference.
func (b *bench) coldCompile(p pair, src string, ref [32]byte) (keyed, error) {
	op := b.opID()
	scale := b.ref.scaleNow(refMaxAge)
	req := &pipeline.Request{Module: src, Engine: p.Engine}
	before := pipeline.Stats()
	root := b.tr.begin("op.compile", op, 0)
	sp := b.tr.begin("pipeline.compile", op, root)
	iv := interval{T0: time.Now()}
	cm, err := pipeline.Compile(b.ctx, req)
	iv.T1 = time.Now()
	b.tr.end(sp)
	b.tr.end(root)
	if err != nil {
		return keyed{}, fmt.Errorf("cold compile of %s: %w", pairKey(p), err)
	}
	if d := pipeline.Stats().Sub(before); d != (pipeline.CacheStats{Misses: 1}) {
		return keyed{}, fmt.Errorf("cold compile of %s: cache traffic %v, want one miss and no memory hit", pairKey(p), d)
	}
	data, err := encodeClean(cm)
	if err != nil {
		return keyed{}, fmt.Errorf("encoding %s: %w", pairKey(p), err)
	}
	if sha256.Sum256(data) != ref {
		return keyed{}, fmt.Errorf("cold compile of %s: module differs from the reference compile", pairKey(p))
	}
	return keyed{pairKey(p), iv.secs() * 1e3 * scale}, nil
}

// reportCompile sets the cold-compile metrics: the rate over every compile,
// and the percentiles over the pool's pairs of each pair's median time.
func (b *bench) reportCompile(ops []keyed) {
	if len(ops) == 0 {
		return
	}
	per := perKeyMS(ops)
	b.setE2E("compile_per_s", rateOf(ops), "1/s")
	b.setE2E("compile_p50_ms", median(per), "ms")
	b.setE2E("compile_p90_ms", quantile(per, 0.9), "ms")
}

// keyed is a timed operation on one program/engine pair; MS is its time at
// the reference host speed (see hostRef).
type keyed struct {
	Key string  `json:"key"`
	MS  float64 `json:"ms"`
}

// refMaxAge is how long one reference sample scales compiles and disk hits,
// which take a few milliseconds or less: the host's speed holds for far
// longer, and sampling before each would add the loop's 3 ms to each.
const refMaxAge = 50 * time.Millisecond

// perKeyMS returns, per key, the median of its operations' times in ms.
// Taking percentiles over these rather than over single samples keeps a
// percentile that falls between two programs from flipping with
// noise.
func perKeyMS(ops []keyed) []float64 {
	byKey := map[string][]float64{}
	var order []string
	for _, o := range ops {
		if _, ok := byKey[o.Key]; !ok {
			order = append(order, o.Key)
		}
		byKey[o.Key] = append(byKey[o.Key], o.MS)
	}
	out := make([]float64, 0, len(order))
	for _, k := range order {
		out = append(out, median(byKey[k]))
	}
	return out
}

// rateOf is operations per second of their summed time.
func rateOf(ops []keyed) float64 {
	total := 0.0
	for _, o := range ops {
		total += o.MS
	}
	return float64(len(ops)) / total * 1e3
}

// layerProbe times the compiler's layers one public call at a time over one
// pass of the pool: minic.Parse and minic.Compile, then per function
// codegen.LowerFunc, codegen.Optimize (and OptimizeNative for graph-colouring
// engines), ir.ComputeLiveness and the engine's register allocator, then
// codegen.Compile of the whole module and codegen.EncodeModule.
func (b *bench) layerProbe(pool []pair) error {
	b.tr.setEnabled(true)
	var lower, opt, live, linear, color, spills, insts, wasmBytes, encBytes []float64
	for _, p := range pool {
		op := b.opID()
		cfg, err := codegen.Engine(p.Engine)
		if err != nil {
			return err
		}
		abi := pipeline.ABIFor(cfg)
		sp := b.tr.begin("minic.parse", op, 0)
		_, err = minic.Parse(p.Prog.Source)
		b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", p.Prog.Name, err)
		}
		sp = b.tr.begin("minic.compile", op, 0)
		m, err := minic.Compile(p.Prog.Source, abi)
		b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("compiling %s: %w", p.Prog.Name, err)
		}
		wasmBytes = append(wasmBytes, float64(len(wasm.Encode(m))))

		raCfg := &regalloc.Config{GP: cfg.GP, FP: cfg.FP, CalleeSavedGP: map[x86.Reg]bool{}}
		for _, r := range cfg.CalleeSaved {
			raCfg.CalleeSavedGP[r] = true
		}
		var tl, to, tv, ta time.Duration
		nsp := 0
		for fi := range m.Funcs {
			t0 := time.Now()
			sp = b.tr.begin("codegen.lower", op, 0)
			f, err := codegen.LowerFunc(m, fi, cfg)
			b.tr.end(sp)
			tl += time.Since(t0)
			if err != nil {
				return fmt.Errorf("lowering %s function %d: %w", p.Prog.Name, fi, err)
			}
			t0 = time.Now()
			sp = b.tr.begin("codegen.opt", op, 0)
			codegen.Optimize(f)
			if cfg.Allocator == codegen.AllocGraphColor {
				codegen.OptimizeNative(f)
			}
			b.tr.end(sp)
			to += time.Since(t0)
			t0 = time.Now()
			sp = b.tr.begin("ir.liveness", op, 0)
			lv := ir.ComputeLiveness(f)
			b.tr.end(sp)
			tv += time.Since(t0)
			t0 = time.Now()
			var res *regalloc.Result
			if cfg.Allocator == codegen.AllocGraphColor {
				sp = b.tr.begin("regalloc.graphcolor", op, 0)
				res = regalloc.GraphColor(f, lv, raCfg)
			} else {
				sp = b.tr.begin("regalloc.linearscan", op, 0)
				res = regalloc.LinearScan(f, lv, raCfg)
			}
			b.tr.end(sp)
			ta += time.Since(t0)
			nsp += res.Spills
		}
		lower = append(lower, ms(tl))
		opt = append(opt, ms(to))
		live = append(live, ms(tv))
		if cfg.Allocator == codegen.AllocGraphColor {
			color = append(color, ms(ta))
		} else {
			linear = append(linear, ms(ta))
		}
		spills = append(spills, float64(nsp))

		sp = b.tr.begin("codegen.compile", op, 0)
		cm, err := codegen.Compile(m, cfg)
		b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("codegen of %s: %w", pairKey(p), err)
		}
		insts = append(insts, float64(len(cm.Prog.Code)))
		sp = b.tr.begin("codegen.encode", op, 0)
		data, err := codegen.EncodeModule(cm)
		b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("encoding %s: %w", pairKey(p), err)
		}
		encBytes = append(encBytes, float64(len(data)))
	}
	d := durations(b.tr.snapshot())
	b.setLayer("minic.parse_ms", median(d["minic.parse"]), "ms")
	b.setLayer("minic.compile_ms", median(d["minic.compile"]), "ms")
	b.setLayer("minic.wasm_bytes", median(wasmBytes), "bytes")
	b.setLayer("codegen.lower_ms", median(lower), "ms")
	b.setLayer("codegen.opt_ms", median(opt), "ms")
	b.setLayer("codegen.compile_ms", median(d["codegen.compile"]), "ms")
	b.setLayer("codegen.x86_insts", median(insts), "count")
	b.setLayer("codegen.encode_ms", median(d["codegen.encode"]), "ms")
	b.setLayer("codegen.artifact_bytes", median(encBytes), "bytes")
	b.setLayer("ir.liveness_ms", median(live), "ms")
	b.setLayer("regalloc.linearscan_ms", median(linear), "ms")
	b.setLayer("regalloc.graphcolor_ms", median(color), "ms")
	b.setLayer("regalloc.spills", median(spills), "count")
	return nil
}
