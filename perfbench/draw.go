package main

// Seeded inputs. Everything a run feeds the system is derived here from
// -seed: the sim-suite draw, the order of every pass and cycle, the comment
// suffixes that make cold sources new, and the generated serving programs
// with their request mix. The same seed always yields the same inputs.

import (
	"fmt"
	"strings"

	"repro/internal/workloads"
)

// rng is splitmix64. The benchmark owns its generator so a seed draws the
// same inputs on every Go release.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s = r.s*131 + uint64(c)
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// sample draws k distinct names from pool, in drawn order.
func (r *rng) sample(pool []string, k int) []string {
	out := make([]string, k)
	for i, j := range r.perm(len(pool))[:k] {
		out[i] = pool[j]
	}
	return out
}

// Traits of the SPEC-shaped programs, as workloads.SPECCPU documents them.
var (
	// memoryBound is the mcf/libquantum/lbm/milc class. Only 470.lbm is
	// short enough for a sim-suite pass: the other three retire 105–208M
	// instructions per run, so one of them would be most of a pass and the
	// pass throughput would follow whichever the seed picked.
	memoryBound = []string{"429.mcf", "462.libquantum", "470.lbm", "433.milc"}
	simMemory   = []string{"470.lbm"}
	branchy     = []string{"458.sjeng", "445.gobmk"}
	// lightSPEC are the remaining SPEC programs under 25M instructions.
	lightSPEC = []string{"450.soplex", "453.povray", "482.sphinx3", "641.leela_s"}
)

// largePolybench are the Polybench kernels whose data segments exceed
// 400 KB; the rest work on smaller arrays.
var largePolybench = []string{"adi", "bicg", "fdtd-2d", "gemver", "gesummv", "mvt", "trisolv"}

// simGroups are the seeded part of the sim-suite draw, which takes one
// program from each group. A group holds programs of one stratum (large- or
// small-data Polybench, light SPEC) whose pass times, one exact and one
// functional run on native and chrome, are close on the reference host: so
// every seed's pass, and the warm-up in its setup_s, is about as long, and
// the draw's memory footprint does not swing with the seed. (Any 4 of the 16
// small-data kernels ranged from 0.8 to 2.5 s a pass, one from each group
// ranges from 1.3 to 1.8 s.) Both branchy programs are always in, outside
// the groups: their exact-tier speeds differ by 1.5x.
var simGroups = [][]string{
	{"trisolv", "bicg", "mvt", "gemver"},
	{"gesummv", "adi", "fdtd-2d"},
	{"durbin", "cholesky", "ludcmp", "covariance"},
	{"correlation", "symm", "syr2k", "syrk"},
	{"gramschmidt", "trmm", "3mm", "lu"},
	{"seidel-2d", "2mm", "doitgen", "gemm"},
	{"482.sphinx3", "453.povray"},
	{"450.soplex", "641.leela_s"},
}

// program is one benchmark program: a catalogue workload or a generated
// serving program.
type program struct {
	Name   string
	Source string
	Argv   []string
	Files  map[string][]byte
	Trait  string
}

func fromWorkload(w *workloads.Workload, trait string) program {
	return program{
		Name:   w.Name,
		Source: w.Source,
		Argv:   append([]string{w.Name}, w.Args...),
		Files:  w.Files,
		Trait:  trait,
	}
}

// catalogue returns every SPEC and Polybench program, tagged with its trait.
func catalogue() []program {
	var out []program
	for _, w := range workloads.SPECCPU() {
		trait := "spec"
		switch {
		case contains(memoryBound, w.Name):
			trait = "memory-bound"
		case contains(branchy, w.Name):
			trait = "branchy"
		}
		out = append(out, fromWorkload(w, trait))
	}
	for _, w := range workloads.Polybench() {
		out = append(out, fromWorkload(w, "polybench"))
	}
	return out
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func byName(progs []program, names []string) []program {
	out := make([]program, 0, len(names))
	for _, n := range names {
		for _, p := range progs {
			if p.Name == n {
				out = append(out, p)
			}
		}
	}
	return out
}

// simDraw is the sim-suite draw: the memory-bound and branchy programs plus
// one seeded pick from each of simGroups.
func simDraw(seed uint64) []program {
	r := newRNG(seed, "sim-draw")
	names := append([]string{}, simMemory...)
	names = append(names, branchy...)
	for _, g := range simGroups {
		names = append(names, g[r.intn(len(g))])
	}
	return byName(catalogue(), names)
}

// probeSimSet is the fixed program set the sim probe runs on workloads whose
// own operations do not simulate; only its order depends on the seed.
var probeSimSet = []string{"470.lbm", "445.gobmk", "cholesky", "2mm"}

// Engines and tiers.
var (
	simEngines     = []string{"native", "chrome"}
	compileEngines = []string{"native", "chrome", "firefox"}
	tiers          = []string{"exact", "functional"}
)

// pair is one program compiled for one engine.
type pair struct {
	Prog   program
	Engine string
}

// compilePool is every catalogue program for every compile engine.
func compilePool() []pair {
	var out []pair
	for _, p := range catalogue() {
		for _, e := range compileEngines {
			out = append(out, pair{p, e})
		}
	}
	return out
}

// cycles returns n operations over pool in whole seeded cycles: each cycle
// is a fresh permutation of the pool, so every seed compiles the same
// multiset of pairs and only the order differs.
func cycles(seed uint64, stream string, pool []pair, ncycles int) []pair {
	r := newRNG(seed, stream)
	out := make([]pair, 0, ncycles*len(pool))
	for c := 0; c < ncycles; c++ {
		for _, i := range r.perm(len(pool)) {
			out = append(out, pool[i])
		}
	}
	return out
}

// withSuffix appends a trailing comment: the content address is new, the
// compile work is not.
func withSuffix(src string, seed uint64, tag string) string {
	return fmt.Sprintf("%s\n// %d-%s\n", src, seed, tag)
}

// Serving programs: short generated mini-C programs, so spawn and
// per-request overhead dominate instead of simulation.

// Serving programs have fixed sizes; the seed picks their constants and
// data, so every seed serves the same amount of work.
const (
	warmLen   = 96  // array length of a warm program
	warmIters = 12  // its smoothing passes
	ioChunks  = 24  // 64-byte chunks an io program writes and reads back
	ioInput   = 768 // bytes of its input file
)

// warmProgram is a small compute loop over a global array.
func warmProgram(r *rng, i int) program {
	n := warmLen
	mul := 3 + r.intn(29)
	iters := warmIters
	src := fmt.Sprintf(`
int v[%d];
int main() {
  int i; int k; int s;
  s = %d;
  for (i = 0; i < %d; i++) { v[i] = (i * %d + s) %% 1009; }
  for (k = 0; k < %d; k++) {
    for (i = 1; i < %d; i++) { v[i] = (v[i] + v[i - 1] * %d) %% 65521; }
  }
  for (i = 0; i < %d; i++) { s = (s * 31 + v[i]) %% 1000003; }
  print_int(s); print_nl();
  return 0;
}
`, n, r.intn(1000), n, mul, iters, n, mul, n)
	return program{Name: fmt.Sprintf("warm-%d", i), Source: src, Argv: []string{fmt.Sprintf("warm-%d", i)}, Trait: "warm"}
}

// ioProgram writes a file in chunks through the syscall transport, reads it
// back together with a seeded input file, and prints a checksum.
func ioProgram(r *rng, i int) program {
	chunks := ioChunks
	mul := 3 + r.intn(23)
	in := make([]byte, ioInput)
	for j := range in {
		in[j] = byte('a' + r.intn(26))
	}
	src := fmt.Sprintf(`
char buf[128];
int main() {
  int fd; int k; int i; int n; int sum;
  sum = 0;
  fd = sys_open("/data/out-%d.txt", 64 | 512 | 1, 0);
  if (fd < 0) { return 2; }
  for (k = 0; k < %d; k++) {
    for (i = 0; i < 64; i++) { buf[i] = (char)(97 + (i * %d + k) %% 26); }
    sys_write(fd, buf, 64);
  }
  sys_close(fd);
  fd = sys_open("/data/out-%d.txt", 0, 0);
  n = sys_read(fd, buf, 100);
  while (n > 0) {
    for (i = 0; i < n; i++) { sum = (sum * 7 + buf[i]) %% 1000003; }
    n = sys_read(fd, buf, 100);
  }
  sys_close(fd);
  fd = sys_open("/data/in.txt", 0, 0);
  if (fd < 0) { return 3; }
  n = sys_read(fd, buf, 128);
  while (n > 0) {
    for (i = 0; i < n; i++) { sum = (sum * 5 + buf[i]) %% 1000003; }
    n = sys_read(fd, buf, 128);
  }
  sys_close(fd);
  print_int(sum); print_nl();
  return 0;
}
`, i, chunks, mul, i)
	return program{
		Name:   fmt.Sprintf("io-%d", i),
		Source: src,
		Argv:   []string{fmt.Sprintf("io-%d", i)},
		Files:  map[string][]byte{"/data/in.txt": in},
		Trait:  "io",
	}
}

// Request kinds of the serving mix.
const (
	kindWarm = "warm"
	kindIO   = "io"
	kindCold = "cold"
)

// Serving mix: per block of requests, this many of each kind. The kinds
// are fixed shares; the seed decides the programs, engines and order.
const (
	mixWarm    = 59
	mixIO      = 20
	mixCold    = 1
	numWarm    = 6
	numIO      = 3
	serveBlock = mixWarm + mixIO + mixCold
)

// serveSet is the generated serving programs, each bound to an engine.
type serveSet struct {
	Warm, IO []pair
}

func newServeSet(seed uint64) serveSet {
	r := newRNG(seed, "serve-programs")
	var s serveSet
	for i := 0; i < numWarm; i++ {
		s.Warm = append(s.Warm, pair{warmProgram(r, i), compileEngines[i%len(compileEngines)]})
	}
	for i := 0; i < numIO; i++ {
		s.IO = append(s.IO, pair{ioProgram(r, i), compileEngines[(i+1)%len(compileEngines)]})
	}
	return s
}

// servReq is one request of the serving mix. Cold requests run a warm
// program under a source suffix no earlier request used.
type servReq struct {
	Kind string
	Base pair
	Src  string
}

// schedule returns client c's request sequence in a phase named stream:
// whole blocks, each a seeded shuffle of the fixed kind shares.
func (s serveSet) schedule(seed uint64, stream string, client, n int) []servReq {
	r := newRNG(seed, fmt.Sprintf("%s-client-%d", stream, client))
	out := make([]servReq, 0, n)
	for len(out) < n {
		kinds := make([]string, 0, serveBlock)
		for i := 0; i < mixWarm; i++ {
			kinds = append(kinds, kindWarm)
		}
		for i := 0; i < mixIO; i++ {
			kinds = append(kinds, kindIO)
		}
		for i := 0; i < mixCold; i++ {
			kinds = append(kinds, kindCold)
		}
		for _, j := range r.perm(len(kinds)) {
			q := servReq{Kind: kinds[j]}
			switch q.Kind {
			case kindWarm:
				q.Base = s.Warm[r.intn(len(s.Warm))]
				q.Src = q.Base.Prog.Source
			case kindIO:
				q.Base = s.IO[r.intn(len(s.IO))]
				q.Src = q.Base.Prog.Source
			case kindCold:
				q.Base = s.Warm[r.intn(len(s.Warm))]
				q.Src = withSuffix(q.Base.Prog.Source, seed, fmt.Sprintf("%s-c%d-%d", stream, client, len(out)))
			}
			out = append(out, q)
		}
	}
	return out[:n]
}

// describe is a one-line summary of a draw, for the run log.
func describe(progs []program) string {
	names := make([]string, len(progs))
	for i, p := range progs {
		names[i] = p.Name
	}
	return strings.Join(names, ",")
}
