package main

// A run is its workload's setup followed by rounds: each round runs a slice
// of the main phase and then a slice of every probe. Spreading each metric's
// samples over the whole run averages out the host's second-scale speed
// swings, which a contiguous block would take whole.

import (
	"fmt"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/pipeline"
	"repro/internal/sched"
)

// rounds is how many slices each phase is cut into. More, shorter slices
// sample more moments of the host's speed.
const rounds = 8

// simProbePasses is the sim probe's size in whole passes over its set.
const simProbePasses = 4

// phase is one measured activity of a run, done a slice per round.
type phase struct {
	name   string
	round  func(r int) error
	finish func() error // reports, after the last round
	stop   func() error // ends a process the phase owns; may be nil
}

// tracedRound reports whether round r of a phase is traced. In a traced run
// the main phase alternates: its even rounds run untraced, through the same
// calls an untraced run makes, and its odd rounds traced, so the tracing
// overhead is the throughput difference between the two halves and neither
// half is only the first round after setup. Probes are traced throughout.
func (b *bench) tracedRound(main bool, r int) bool {
	return b.tr != nil && !(main && r%2 == 0)
}

// runWorkload prepares the workload, runs the rounds and finishes every
// phase.
func (b *bench) runWorkload() (err error) {
	var phases []phase
	t0 := time.Now()
	switch b.workload {
	case wlSim:
		phases, err = b.prepareSim()
	case wlCompile:
		phases, err = b.prepareCompile()
	default:
		phases, err = b.prepareServe()
	}
	// Phases may own processes (the daemon, the store-warm helper), also
	// when a later phase failed to start; stop them on every path.
	defer func() {
		for _, p := range phases {
			if p.stop != nil {
				if serr := p.stop(); serr != nil && err == nil {
					err = fmt.Errorf("%s: %w", p.name, serr)
				}
			}
		}
	}()
	if err != nil {
		return err
	}
	b.logf("prepared in %.2fs", time.Since(t0).Seconds())
	spent := map[string]time.Duration{}
	for r := 0; r < rounds; r++ {
		for i, p := range phases {
			if i == 0 {
				// The main phase measures peak RSS: start each of its
				// rounds from the live heap, not from whatever freed
				// memory the runtime has yet to return.
				debug.FreeOSMemory()
			} else {
				settle()
			}
			t := time.Now()
			if err = p.round(r); err != nil {
				return fmt.Errorf("%s, round %d: %w", p.name, r, err)
			}
			spent[p.name] += time.Since(t)
		}
	}
	for _, p := range phases {
		b.logf("%s: %.2fs", p.name, spent[p.name].Seconds())
		if err = p.finish(); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

// withRSS runs f and adds pid's peak resident set during it to the run's
// rss_mb samples (one per main-phase round; rss_mb is the largest).
func (b *bench) withRSS(pid string, f func() error) error {
	if err := resetPeakRSS(pid); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	if err := f(); err != nil {
		return err
	}
	mb, err := peakRSSMB(pid)
	if err != nil {
		return fmt.Errorf("reading peak RSS: %w", err)
	}
	b.rssPeaks = append(b.rssPeaks, mb)
	return nil
}

// simPhase runs passes over a compiled set, one pipeline.Execute at a time,
// each pass in a fresh seeded order. A probe runs its share of
// simProbePasses passes per round; the main phase runs each round until its
// share of -seconds has passed. Either carries an unfinished pass into the
// next round and completes the last pass in the last round, so only whole
// passes are measured.
func (b *bench) simPhase(name string, set *simSet, main bool) phase {
	r := newRNG(b.seed, name)
	untraced, traced := newSimTotals(), newSimTotals()
	order, pos := r.perm(len(set.mods)), 0
	perRound := simProbePasses * len(set.mods) / rounds
	return phase{
		name: name,
		round: func(round int) error {
			tr := b.tracedRound(main, round)
			b.tr.setEnabled(tr)
			tot := untraced
			if tr {
				tot = traced
			}
			run := func() error {
				before := pipeline.Stats()
				start := time.Now()
				for n := 0; ; n++ {
					more := n < perRound
					if main {
						more = time.Since(start) < b.seconds/rounds
					}
					if !more && !(round == rounds-1 && pos != 0) {
						break
					}
					b.op(b.execute(set, set.mods[order[pos]], tot))
					if pos++; pos == len(order) {
						order, pos = r.perm(len(set.mods)), 0
					}
				}
				if d := pipeline.Stats().Sub(before); d.Misses != 0 {
					b.op(fmt.Errorf("simulation compiled: cache traffic %v, want no misses", d))
				}
				return nil
			}
			if main {
				return b.withRSS("self", run)
			}
			return run()
		},
		finish: func() error {
			b.reportSim(untraced, traced, main)
			return nil
		},
	}
}

// coldPhase compiles ncycles whole seeded cycles of the pool, each source
// new, spread evenly over the rounds. In a traced run its finish also runs
// the per-layer compiler probe.
func (b *bench) coldPhase(name string, pool []pair, refs map[string][32]byte, ncycles int, main bool) phase {
	ops := cycles(b.seed, name, pool, ncycles)
	per := len(ops) / rounds
	var untraced, traced []keyed
	return phase{
		name: name,
		round: func(r int) error {
			tr := b.tracedRound(main, r)
			b.tr.setEnabled(tr)
			compile := func() error {
				for i := r * per; i < (r+1)*per; i++ {
					p := ops[i]
					k, err := b.coldCompile(p, withSuffix(p.Prog.Source, b.seed, fmt.Sprintf("%s%d", name, i)), refs[pairKey(p)])
					b.op(err)
					if err != nil {
						continue
					}
					if tr {
						traced = append(traced, k)
					} else {
						untraced = append(untraced, k)
					}
				}
				return nil
			}
			if main {
				return b.withRSS("self", compile)
			}
			return compile()
		},
		finish: func() error {
			if b.tr == nil {
				b.reportCompile(untraced)
				return nil
			}
			if main && len(untraced) > 0 && len(traced) > 0 {
				u, t := rateOf(untraced), rateOf(traced)
				b.setLayer("trace.overhead_pct", (u-t)/u*100, "%")
			}
			return b.layerProbe(pool)
		},
	}
}

// reqPhase sends perRound requests per client per round. d is the daemon
// for the HTTP main phase, nil for the in-process probe.
func (b *bench) reqPhase(name string, set serveSet, exp map[string]expected, d *daemon, clients, perRound int, main bool) phase {
	var untraced, traced []reqStats
	var untracedStreams []string
	do, span := b.inProcess, "pipeline.do"
	if d != nil {
		do, span = d.do, "serve.rtt"
	}
	queuedPeak := 0
	return phase{
		name: name,
		round: func(r int) error {
			tr := b.tracedRound(main, r)
			b.tr.setEnabled(tr)
			stream := name + strconv.Itoa(r)
			var st reqStats
			run := func() error {
				before, err := b.cacheStats(d)
				if err != nil {
					return err
				}
				var stopPoll func() int
				if tr && d != nil {
					stopPoll = d.pollQueued()
				}
				st = b.requestPhase(set, exp, do, clients, perRound, stream, span)
				if stopPoll != nil {
					queuedPeak = max(queuedPeak, stopPoll())
				}
				after, err := b.cacheStats(d)
				if err != nil {
					return err
				}
				delta := after.Sub(before)
				b.op(check(delta.Misses == uint64(st.cold) && delta.DiskHits == 0 && delta.MemHits == uint64(st.other),
					"%s: cache traffic %v, want %d misses (one per cold request), %d memory hits and no disk hits", name, delta, st.cold, st.other))
				return nil
			}
			var err error
			if d != nil {
				err = b.withRSS(strconv.Itoa(d.cmd.Process.Pid), run)
			} else {
				err = run()
			}
			if tr {
				traced = append(traced, st)
			} else {
				untraced = append(untraced, st)
				untracedStreams = append(untracedStreams, stream)
			}
			return err
		},
		finish: func() error {
			if b.tr == nil {
				b.reportRequests(untraced)
				return nil
			}
			if d == nil {
				b.setLayer("serve.inproc_do_ms", median(pooled(traced).lat), "ms")
				b.setLayer("sched.budget_peak", float64(sched.Shared().Peak()), "count")
				return nil
			}
			return b.serveLayers(d, untraced, traced, untracedStreams, perRound, queuedPeak)
		},
	}
}

// cacheStats is the build-cache totals of the process serving requests.
func (b *bench) cacheStats(d *daemon) (pipeline.CacheStats, error) {
	if d == nil {
		return pipeline.Stats(), nil
	}
	st, err := d.statz()
	if err != nil {
		return pipeline.CacheStats{}, err
	}
	return st.Cache, nil
}

// prepareSim is sim-suite's setup, timed as setupReps whole preparations
// (setup_s is their median): the draw compiled from cold, then the warm-up
// pass over it. The last preparation's set is measured. The probes'
// preparation follows, outside setup_s.
func (b *bench) prepareSim() ([]phase, error) {
	draw := simDraw(b.seed)
	b.logf("sim-suite draw: %s", describe(draw))
	var set *simSet
	err := b.setupRepeated(nil, func(rep int) error {
		s, err := b.compileSimSet(draw, fmt.Sprintf("setup%d", rep))
		if err != nil {
			return err
		}
		b.warmUp(s)
		set = s
		return nil
	})
	if err != nil {
		return nil, err
	}

	phases := []phase{b.simPhase("sim-suite", set, true)}
	cold, err := b.compileProbe()
	if err != nil {
		return nil, err
	}
	phases = append(phases, cold)
	store, err := b.startStore("store probe", "store-probe", storeProbeCycles)
	if err != nil {
		return phases, err
	}
	phases = append(phases, store)
	req, err := b.requestProbe()
	if err != nil {
		return phases, err
	}
	return append(phases, req), nil
}

// prepareCompile is compile-cold's setup, timed as setupReps whole
// preparations (setup_s is their median): the reference compiles, then a
// store-warm helper started on a fresh store until its publication is done.
// The last preparation's helper stays up for the run.
func (b *bench) prepareCompile() ([]phase, error) {
	pool := compilePool()
	var refs map[string][32]byte
	var store phase
	discard := func() error {
		if store.stop == nil {
			return nil
		}
		err := store.stop()
		store = phase{}
		return err
	}
	err := b.setupRepeated(discard, func(rep int) error {
		r, err := references(pool)
		if err != nil {
			return err
		}
		for k, v := range r {
			if refs != nil && refs[k] != v {
				return fmt.Errorf("reference compile of %s is not deterministic", k)
			}
		}
		refs = r
		store, err = b.startStore("store-warm", fmt.Sprintf("store-warm-%d", rep), storeColdCycles)
		return err
	})
	if err != nil {
		discard()
		return nil, err
	}
	phases := []phase{b.coldPhase("compile-cold", pool, refs, coldCycles, true), store}
	sim, err := b.simProbe()
	if err != nil {
		return phases, err
	}
	phases = append(phases, sim)
	req, err := b.requestProbe()
	if err != nil {
		return phases, err
	}
	return append(phases, req), nil
}

// prepareServe is serve-mixed's setup: the daemon started setupReps times
// with a fresh store, each time until its first healthy answer and through
// the warm-up requests; the last one stays up for the run.
func (b *bench) prepareServe() ([]phase, error) {
	set := newServeSet(b.seed)
	exp, err := b.expectations(set)
	if err != nil {
		return nil, err
	}
	var d *daemon
	discard := func() error {
		if d == nil {
			return nil
		}
		err := d.stop()
		d = nil
		return err
	}
	err = b.setupRepeated(discard, func(rep int) error {
		var err error
		if d, err = b.startDaemon(fmt.Sprintf("%s/serve-store-%d", b.runDir, rep)); err != nil {
			return err
		}
		b.warmDaemon(d, set, exp)
		return nil
	})
	if err != nil {
		discard()
		return nil, err
	}
	serve := b.reqPhase("serve-mixed", set, exp, d, serveClients, serveRate*int(b.seconds/time.Second)/rounds, true)
	serve.stop = d.stop
	phases := []phase{serve}
	sim, err := b.simProbe()
	if err != nil {
		return phases, err
	}
	phases = append(phases, sim)
	cold, err := b.compileProbe()
	if err != nil {
		return phases, err
	}
	phases = append(phases, cold)
	store, err := b.startStore("store probe", "store-probe", storeProbeCycles)
	if err != nil {
		return phases, err
	}
	return append(phases, store), nil
}

// setupRepeated times setupReps whole preparations, each from a collected
// heap, for setup_s. discard, if not nil, releases the previous
// preparation (a daemon, a helper) before the next one, untimed.
func (b *bench) setupRepeated(discard func() error, prepare func(rep int) error) error {
	for rep := 0; rep < setupReps; rep++ {
		if discard != nil && rep > 0 {
			if err := discard(); err != nil {
				return err
			}
		}
		settle()
		before := b.ref.scaleAll()
		iv := interval{T0: time.Now()}
		if err := prepare(rep); err != nil {
			return err
		}
		iv.T1 = time.Now()
		// A preparation spans processes and CPUs: scale it by the mean
		// of the host's speed on every CPU before and after it.
		secs := iv.secs() * (before + b.ref.scaleAll()) / 2
		b.setupReps = append(b.setupReps, secs)
		b.logf("setup %d: %.3fs, %.3fs at the reference speed", rep, iv.secs(), secs)
	}
	return nil
}

// simProbe prepares the sim probe: the fixed set compiled and warmed up.
func (b *bench) simProbe() (phase, error) {
	set, err := b.compileSimSet(byName(catalogue(), probeSimSet), "probe")
	if err != nil {
		return phase{}, err
	}
	b.warmUp(set)
	return b.simPhase("sim probe", set, false), nil
}

// compileProbe prepares the compile probe: the pool's reference compiles.
func (b *bench) compileProbe() (phase, error) {
	pool := compilePool()
	refs, err := references(pool)
	if err != nil {
		return phase{}, err
	}
	return b.coldPhase("compile probe", pool, refs, compileProbeCycles, false), nil
}

// requestProbe prepares the in-process request probe: the serving
// programs' reference results, which also compile them.
func (b *bench) requestProbe() (phase, error) {
	set := newServeSet(b.seed)
	exp, err := b.expectations(set)
	if err != nil {
		return phase{}, err
	}
	return b.reqPhase("request probe", set, exp, nil, 1, probeRequests/rounds, false), nil
}
