package main

// The fault-injection smoke, as a test: each case runs runsuite in a child
// process (this test binary re-executed through the TestMain switch) under
// a fault environment and checks its exit code and stdout, so a crash, a
// lost FAIL row or an uncontained hang fails the test the way it would fail
// a user's run.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
)

// childEnv switches a re-executed test binary into runsuite's main.
const childEnv = "RUNSUITE_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main() // exits
	}
	os.Exit(m.Run())
}

func TestFaultSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the short Polybench suite in three child processes")
	}
	for _, tc := range []struct {
		name     string
		args     []string
		env      []string // on top of a disarmed environment
		freshDir bool     // a fresh artifact store, so every build consults the remote tier
		wantExit int
		want     []string // regexps stdout must match
	}{
		{
			// The degraded machinery must be invisible when nothing fails.
			name:     "clean",
			args:     []string{"-suite", "polybench", "-short", "-degraded"},
			wantExit: 0,
		},
		{
			// A panic injected into one workload's compile and a hang into
			// another's exec, under a tight watchdog: the run exits nonzero
			// without crashing and reports both faulted workloads as FAIL
			// rows while every other row is validated.
			name: "injected-faults",
			args: []string{"-suite", "polybench", "-short", "-degraded"},
			env: []string{
				config.EnvFaults + "=compile@durbin=panic,exec@trisolv=hang:1:600ms",
				config.EnvJobTimeout + "=300ms",
			},
			wantExit: 1,
			want:     []string{`FAIL durbin on`, `FAIL trisolv on`},
		},
		{
			// A strict run stops at the first failure but still flushes and
			// prints its cache totals (checked for every case below).
			name:     "strict-failure",
			args:     []string{"-suite", "polybench", "-short"},
			env:      []string{config.EnvFaults + "=compile@durbin=panic"},
			wantExit: 1,
		},
		{
			// A hung remote cache is cut by the per-call deadline, the
			// breaker opens, and the suite falls back to local compiles and
			// exits 0: a remote fault is never a build failure.
			name: "remote-hang",
			args: []string{"-suite", "polybench", "-short"},
			env: []string{
				config.EnvFaults + "=remote.get=delay:*:30s",
				config.EnvRemoteCache + "=http://127.0.0.1:9",
				config.EnvRemoteTimeout + "=250ms",
			},
			freshDir: true,
			wantExit: 0,
			want:     []string{`remote: hits=0 puts=0 errors=[1-9]`, `breaker=open`},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const limit = 120 * time.Second
			ctx, cancel := context.WithTimeout(context.Background(), limit)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), childEnv+"=1",
				config.EnvFaults+"=", config.EnvJobTimeout+"=", config.EnvJobMaxInsts+"=",
				config.EnvRemoteCache+"=", config.EnvRemoteTimeout+"=")
			if tc.freshDir {
				cmd.Env = append(cmd.Env, config.EnvCacheDir+"="+t.TempDir())
			}
			cmd.Env = append(cmd.Env, tc.env...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			start := time.Now()
			err := cmd.Run()
			elapsed := time.Since(start)
			defer func() {
				if t.Failed() {
					t.Logf("stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
				}
			}()
			if ctx.Err() != nil {
				t.Fatalf("runsuite did not finish within %v", limit)
			}
			code := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.wantExit {
				t.Errorf("exit code %d, want %d", code, tc.wantExit)
			}
			for _, re := range tc.want {
				if !regexp.MustCompile(re).MatchString(stdout.String()) {
					t.Errorf("stdout does not match %q", re)
				}
			}
			if !strings.Contains(stdout.String(), "cache totals") {
				t.Error("stdout lacks the cache totals line")
			}
			t.Logf("%s in %v", tc.name, elapsed.Round(time.Millisecond))
		})
	}
}
