package perf

// Bench-artifact trend support: the JSON schema cmd/benchjson produces
// (BENCH_ci.json, one per CI run) and the cross-run comparison
// cmd/benchtrend gates on. Both binaries share these types, so the producer
// and the consumer of the artifact can never drift apart.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/stats"
)

// BenchSchema is the artifact format identifier; ParseBenchReport rejects
// documents carrying anything else.
const BenchSchema = "repro-bench/v1"

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	// Name is the benchmark name with the -P GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Iterations is the b.N the bench line reported.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value (ns/op, sim-inst/s, allocs/op, ...).
	Metrics map[string]float64 `json:"metrics"`
}

// BenchReport is the top-level BENCH_ci.json document.
type BenchReport struct {
	Schema     string      `json:"schema"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// ParseBenchReport decodes and validates one BENCH_ci.json document.
func ParseBenchReport(data []byte) (*BenchReport, error) {
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: decoding bench report: %w", err)
	}
	if r.Schema != BenchSchema {
		return nil, fmt.Errorf("perf: unsupported bench schema %q (want %q)", r.Schema, BenchSchema)
	}
	return &r, nil
}

// Find returns the named benchmark, or nil.
func (r *BenchReport) Find(name string) *Benchmark {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name == name {
			return &r.Benchmarks[i]
		}
	}
	return nil
}

// HigherIsBetter reports whether a larger value of the metric unit is an
// improvement. Rate units (sim-inst/s, anything per second) are throughput;
// everything else go's bench output produces (ns/op, B/op, allocs/op,
// custom .../op costs) is a cost where smaller wins.
func HigherIsBetter(unit string) bool { return strings.HasSuffix(unit, "/s") }

// TrendDelta is one (benchmark, metric) comparison between two reports.
type TrendDelta struct {
	Bench  string
	Metric string
	Old    float64
	New    float64
	// Ratio is New/Old (0 when Old is 0 or the metric is missing).
	Ratio float64
	// Worse is the fractional worsening in the metric's cost direction:
	// positive means the new run is worse, negative better, by that
	// fraction of the old value.
	Worse float64
	// Missing marks a metric (or whole benchmark) present in the old
	// report but absent from the new one — lost coverage, reported but
	// never treated as a regression.
	Missing bool
	// Regressed and Improved mark deltas past the comparison threshold.
	Regressed bool
	Improved  bool
}

// Trend is the full comparison of two bench reports.
type Trend struct {
	// Threshold is the fractional change past which a delta is flagged.
	Threshold float64
	// Deltas holds every (benchmark, metric) pair of the old report, in
	// benchmark order, metrics sorted by unit.
	Deltas []TrendDelta
	// Regressions, Improvements, and Missing count the flagged deltas.
	Regressions  int
	Improvements int
	Missing      int
	// Compared counts the metric pairs present in both reports.
	Compared int
}

// MedianBaseline collapses a rolling window of baseline reports into one
// synthetic report: each (benchmark, metric) carries the median of its
// values across the reports where it appears, and benchmarks keep
// first-appearance order. With three baselines the median discards a single
// noisy CI run in either direction, so a gate against the result is robust
// to one outlier where a gate against the single previous run is not. A
// metric absent from some window members is the median of the values that
// do exist — partial coverage shrinks the sample instead of dropping the
// metric.
func MedianBaseline(reports []*BenchReport) *BenchReport {
	out := &BenchReport{Schema: BenchSchema}
	type acc struct {
		iters   int64
		metrics map[string][]float64
	}
	idx := make(map[string]*acc)
	var order []string
	for _, r := range reports {
		for _, b := range r.Benchmarks {
			a := idx[b.Name]
			if a == nil {
				a = &acc{metrics: make(map[string][]float64)}
				idx[b.Name] = a
				order = append(order, b.Name)
			}
			if b.Iterations > a.iters {
				a.iters = b.Iterations
			}
			for u, v := range b.Metrics {
				a.metrics[u] = append(a.metrics[u], v)
			}
		}
	}
	for _, name := range order {
		a := idx[name]
		m := make(map[string]float64, len(a.metrics))
		for u, vs := range a.metrics {
			m[u] = stats.Median(vs)
		}
		out.Benchmarks = append(out.Benchmarks, Benchmark{Name: name, Iterations: a.iters, Metrics: m})
	}
	return out
}

// trendEps absorbs float rounding at the threshold boundary, so a change of
// exactly the threshold fraction (a 10% drop against threshold 0.10) always
// flags regardless of how the division rounded.
const trendEps = 1e-9

// CompareBench compares every metric of old against new. A metric is a
// regression when it worsens by at least threshold (relative to the old
// value) in its cost direction — throughput units ("/s" suffix) must not
// fall, cost units must not rise. Metrics or benchmarks present only in new
// are ignored (new coverage can't regress); present only in old they are
// counted as Missing. A zero old value has no meaningful relative change,
// so the threshold cannot apply — but a cost appearing from a zero
// baseline (allocs/op going from fully-pooled 0 back to N) is flagged as a
// regression at any threshold, and new throughput from zero as an
// improvement; Worse is ±Inf for these. Only a 0 -> 0 pair is neutral.
func CompareBench(oldR, newR *BenchReport, threshold float64) *Trend {
	tr := &Trend{Threshold: threshold}
	for _, ob := range oldR.Benchmarks {
		nb := newR.Find(ob.Name)
		units := make([]string, 0, len(ob.Metrics))
		for u := range ob.Metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			d := TrendDelta{Bench: ob.Name, Metric: u, Old: ob.Metrics[u]}
			nv, ok := 0.0, false
			if nb != nil {
				nv, ok = nb.Metrics[u]
			}
			if !ok {
				d.Missing = true
				tr.Missing++
				tr.Deltas = append(tr.Deltas, d)
				continue
			}
			d.New = nv
			tr.Compared++
			switch {
			case d.Old != 0:
				d.Ratio = d.New / d.Old
				if HigherIsBetter(u) {
					d.Worse = (d.Old - d.New) / d.Old
				} else {
					d.Worse = (d.New - d.Old) / d.Old
				}
				// The strict-sign check keeps threshold 0 honest: "flag
				// any worsening" must not flag an unchanged metric that
				// the epsilon alone would let through.
				if d.Worse > 0 && d.Worse >= threshold-trendEps {
					d.Regressed = true
					tr.Regressions++
				} else if d.Worse < 0 && -d.Worse >= threshold-trendEps {
					d.Improved = true
					tr.Improvements++
				}
			case d.New != 0:
				// Zero baseline: infinite relative change in whichever
				// direction the unit's cost sense gives it.
				if HigherIsBetter(u) {
					d.Worse = math.Inf(-1)
					d.Improved = true
					tr.Improvements++
				} else {
					d.Worse = math.Inf(1)
					d.Regressed = true
					tr.Regressions++
				}
			}
			tr.Deltas = append(tr.Deltas, d)
		}
	}
	return tr
}
