// Quickstart: compile one program for every engine, run it on the simulated
// CPU, and compare the hardware counters — the reproduction's core loop in
// ~60 lines.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/codegen"
	"repro/internal/pipeline"
)

const program = `
int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int main() {
  print_int(fib(24));
  print_nl();
  return 0;
}`

func main() {
	engines := []*codegen.EngineConfig{
		codegen.Native(),  // Clang-like: graph colouring, fused addressing
		codegen.Firefox(), // SpiderMonkey: linear scan + safety checks
		codegen.Chrome(),  // V8: fewer registers, loop-entry jumps, padding
	}

	fmt.Printf("%-10s %8s %12s %10s %10s %10s\n",
		"engine", "time", "instructions", "loads", "branches", "L1i-miss")
	var nativeMs float64
	for _, cfg := range engines {
		res, err := pipeline.Do(context.Background(), &pipeline.Request{Module: program, Config: cfg})
		if err != nil {
			log.Fatal(err)
		}
		c := res.Counters
		ms := c.Seconds() * 1000
		if cfg.Name == "native" {
			nativeMs = ms
		}
		fmt.Printf("%-10s %6.2fms %12d %10d %10d %10d   (%.2fx native)\n",
			cfg.Name, ms, c.Instructions, c.Loads, c.Branches, c.L1IMisses, ms/nativeMs)
	}
}
