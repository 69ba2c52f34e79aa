package workloads

import (
	"context"
	"fmt"

	"repro/internal/codegen"
)

// Expected simulated-instruction counts per workload, measured on the
// functional tier (native codegen, rounded to 100k — regenerate with the
// $REPRO_REGEN_WEIGHTS-gated TestRegenWeights). They feed weighted suite
// dispatch: jobs are claimed longest-first so a heavy SPEC program (429.mcf
// retires ~30x the instructions of trisolv) starts before the cheap
// Polybench kernels instead of serializing behind them at the tail of the
// run. The values are dispatch hints, not measurements — codegen tweaks
// drift them a few percent, which is irrelevant for ordering — so they only
// need re-measuring if a workload's problem size changes.
var expectedInsts = map[string]uint64{
	"2mm":            13_200_000,
	"3mm":            12_000_000,
	"adi":            9_700_000,
	"bicg":           5_000_000,
	"cholesky":       5_200_000,
	"correlation":    5_200_000,
	"covariance":     5_200_000,
	"doitgen":        14_200_000,
	"durbin":         3_400_000,
	"fdtd-2d":        15_300_000,
	"gemm":           14_500_000,
	"gemver":         8_100_000,
	"gesummv":        8_700_000,
	"gramschmidt":    9_600_000,
	"lu":             9_900_000,
	"ludcmp":         4_400_000,
	"mvt":            6_900_000,
	"seidel-2d":      9_300_000,
	"symm":           6_300_000,
	"syr2k":          7_600_000,
	"syrk":           8_100_000,
	"trisolv":        3_700_000,
	"trmm":           10_100_000,
	"401.bzip2":      43_700_000,
	"429.mcf":        150_300_000,
	"433.milc":       103_700_000,
	"444.namd":       33_800_000,
	"445.gobmk":      22_700_000,
	"450.soplex":     8_700_000,
	"453.povray":     5_600_000,
	"458.sjeng":      30_100_000,
	"462.libquantum": 105_900_000,
	"464.h264ref":    116_400_000,
	"470.lbm":        13_400_000,
	"473.astar":      42_200_000,
	"482.sphinx3":    6_000_000,
	"641.leela_s":    16_300_000,
	"644.nab_s":      49_600_000,
}

// defaultWeight places workloads missing from the table (new kernels not
// yet measured) in the middle of the pack rather than at either extreme.
const defaultWeight = 10_000_000

// ExpectedInstructions returns the workload's expected simulated instruction
// count, used as its scheduling weight.
func (w *Workload) ExpectedInstructions() uint64 {
	if n, ok := expectedInsts[w.Name]; ok {
		return n
	}
	return defaultWeight
}

// MeasureWeights re-measures every workload's retired-instruction count on
// the functional tier under native codegen — the same conditions the
// expectedInsts table was built from. It backs the $REPRO_REGEN_WEIGHTS
// regen test; results are exact counts, rounding to table granularity is
// the caller's job.
func MeasureWeights(ctx context.Context, suite []*Workload) (map[string]uint64, error) {
	out := make(map[string]uint64, len(suite))
	base := codegen.Native()
	for _, w := range suite {
		c, err := runCounters(ctx, w, base, codegen.FidelityFunctional)
		if err != nil {
			return nil, fmt.Errorf("workloads: %s: %w", w.Name, err)
		}
		out[w.Name] = c.Instructions
	}
	return out, nil
}
