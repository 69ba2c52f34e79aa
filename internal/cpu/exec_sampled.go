package cpu

// Sampled-fidelity engine: SMARTS-style interval sampling. Execution
// alternates between the dispatch loop's functional instantiation
// (run[functionalTier], exec.go) and detailed windows run on its exact
// instantiation, on a deterministic schedule measured in retired
// instructions — so two runs of the same program produce identical
// counters regardless of host timing or scheduling.
//
// Each period of samplePeriod instructions is laid out as
//
//	[ warm-up (exact, timing discarded) | detailed window (exact, measured) |
//	  functional fast-forward ]
//
// except the first, which has no warm-up: at program start the exact tier's
// caches and predictor are just as cold, so a program shorter than one
// detailed window retires entirely inside the first measured window and the
// sampled tier is bit-identical to exact. Fast-forward segments use SMARTS
// functional warming: loads, stores, and conditional branches update cache
// tags, LRU order, and predictor direction counters (Machine.warm) without
// charging any timing, so a detailed window measures warm-structure rates
// rather than re-paying compulsory misses after every gap. The exact-mode
// warm-up prefix before each later window then settles the short-lived
// state warming does not model (the way-predictor MRU, the last-line
// registers); its timing contribution is discarded.
//
// Cycles (and the icache misses feeding them) are extrapolated: at the end
// of each measured window the window's per-instruction rates are scaled
// over the instructions retired since the previous window's end (the
// fast-forwarded gap plus the warm-up), and any tail after the last window
// is scaled from the whole-run measured averages. Data-cache misses and
// branch mispredicts are NOT extrapolated — warming counts them exactly —
// and architectural counters (instructions, loads, stores, branches) are
// exact by construction in every tier.

import "repro/internal/codegen"

// Default sampled-tier schedule, in retired instructions: a 50k-instruction
// detailed window preceded by a 25k warm-up out of every 500k instructions
// — a 10% detailed duty cycle. The period is deliberately short: with the
// cache and predictor misses counted exactly by warming, cycle error is
// dominated by how well the windows sample the program's instruction-mix
// phases, and halving the period from 1M cut worst-case cycle error on the
// Polybench measurement set from ~6.4% to ~1.5%.
const (
	DefaultSamplePeriod = 500_000
	DefaultSampleDetail = 50_000
	DefaultSampleWarmup = 25_000
)

// SetFidelity selects the simulation tier and, for the sampled tier, the
// window schedule (0 picks the defaults). Call before execution; switching
// tiers mid-run is not supported. The schedule is clamped so one period
// always fits its warm-up and detailed window.
func (m *Machine) SetFidelity(f codegen.Fidelity, period, detail, warmup uint64) {
	m.fid = f
	m.noTime = f == codegen.FidelityFunctional
	if f != codegen.FidelitySampled {
		return
	}
	if period == 0 {
		period = DefaultSamplePeriod
	}
	if detail == 0 {
		detail = DefaultSampleDetail
	}
	if warmup == 0 {
		warmup = DefaultSampleWarmup
	}
	if detail > period {
		detail = period
	}
	if warmup > period-detail {
		warmup = period - detail
	}
	m.samplePeriod, m.sampleDetail, m.sampleWarmup = period, detail, warmup
}

// timing is the counter subset the sampled tier actually samples: measured
// in detailed windows, discarded over warm-ups, extrapolated over
// functional gaps. It is cycles plus the icache misses feeding them — the
// data caches and the branch predictor are simulated always-on (functional
// warming counts their misses exactly; see Machine.dwarm), so those
// counters never pass through here.
type timing struct {
	cycles, l1i uint64
}

func (m *Machine) timingSnap() timing {
	return timing{m.Counters.Cycles, m.Counters.L1IMisses}
}

func (m *Machine) timingRestore(t timing) {
	m.Counters.Cycles, m.Counters.L1IMisses = t.cycles, t.l1i
}

func (t timing) sub(o timing) timing {
	return timing{t.cycles - o.cycles, t.l1i - o.l1i}
}

func (t *timing) add(o timing) {
	t.cycles += o.cycles
	t.l1i += o.l1i
}

// runSampled drives the warm-up / detailed-window / fast-forward schedule.
// Extrapolation state (smpStamp, smpMeas) persists across run() entries, so
// a module invoked several times (the Browsix chain) keeps one consistent
// measurement stream.
func (m *Machine) runSampled() error {
	defer func() {
		m.stopAt = ^uint64(0)
		m.noTime = false
		m.warm = false
	}()
	// No warm-up before the first window ever: exact starts cold too.
	warmed := m.Counters.Instructions > 0
	for !m.halted {
		pStart := m.Counters.Instructions
		if warmed {
			m.stopAt = pStart + m.sampleWarmup
			snap := m.timingSnap()
			err := run[exactTier](m)
			m.timingRestore(snap)
			if err != nil {
				m.extrapolateTail()
				return err
			}
			if m.halted {
				break
			}
		}
		wStart := m.Counters.Instructions
		snap := m.timingSnap()
		m.stopAt = wStart + m.sampleDetail
		err := run[exactTier](m)
		delta := m.timingSnap().sub(snap)
		w := m.Counters.Instructions - wStart
		m.smpMeasInsts += w
		m.smpMeas.add(delta)
		m.stampExtrapolate(delta, w)
		if err != nil {
			return err
		}
		if m.halted {
			break
		}
		m.stopAt = pStart + m.samplePeriod
		m.noTime = true
		m.warm = true
		err = run[functionalTier](m)
		m.noTime = false
		m.warm = false
		if err != nil {
			m.extrapolateTail()
			return err
		}
		warmed = true
	}
	m.extrapolateTail()
	return nil
}

// stampExtrapolate scales a just-measured window's timing counters over the
// instructions retired since the previous stamp (the fast-forwarded gap and
// the discarded warm-up). Integer scaling keeps the result deterministic;
// truncation error is at most one count per counter per window.
func (m *Machine) stampExtrapolate(delta timing, w uint64) {
	now := m.Counters.Instructions
	span := now - m.smpStamp
	if w > 0 && span > w {
		un := span - w
		m.Counters.Cycles += delta.cycles * un / w
		m.Counters.L1IMisses += delta.l1i * un / w
	}
	m.smpStamp = now
}

// extrapolateTail covers instructions retired since the last stamp (a final
// fast-forward segment, or an error/halt inside a warm-up) using the whole
// run's measured per-instruction averages.
func (m *Machine) extrapolateTail() {
	now := m.Counters.Instructions
	un := now - m.smpStamp
	if un > 0 && m.smpMeasInsts > 0 {
		m.Counters.Cycles += m.smpMeas.cycles * un / m.smpMeasInsts
		m.Counters.L1IMisses += m.smpMeas.l1i * un / m.smpMeasInsts
	}
	m.smpStamp = now
}
