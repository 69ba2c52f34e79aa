package main

// The fault-injection and fleet smokes, as tests: runsuite runs in child
// processes (this test binary re-executed through the TestMain switch)
// under fault and remote-cache environments, and the tests check exit
// codes and stdout, so a crash, a lost FAIL row, an uncontained hang or a
// remote failure that fails a build fails the test the way it would fail a
// user's run.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/pipeline"
)

// childEnv switches a re-executed test binary into runsuite's main ("1")
// or into the fleet smoke's artifact remote ("remote").
const childEnv = "RUNSUITE_TEST_CHILD"

func TestMain(m *testing.M) {
	switch os.Getenv(childEnv) {
	case "1":
		main() // exits
	case "remote":
		serveRemote() // exits
	}
	os.Exit(m.Run())
}

// serveRemote is the fleet smoke's shared artifact cache: the artifact
// routes over $REPRO_CACHE_DIR on a loopback port, whose address it prints
// on stdout once it accepts connections.
func serveRemote() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(ln.Addr())
	fmt.Fprintln(os.Stderr, http.Serve(ln, pipeline.ArtifactHandlerAt(os.Getenv(config.EnvCacheDir), 0)))
	os.Exit(1)
}

// childLimit bounds every child process of these tests.
const childLimit = 120 * time.Second

// child returns a command that re-executes this test binary in mode (see
// childEnv) with args, under a disarmed fault and remote environment plus
// env.
func child(ctx context.Context, mode string, args []string, env ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"="+mode,
		config.EnvFaults+"=", config.EnvJobTimeout+"=", config.EnvJobMaxInsts+"=",
		config.EnvRemoteCache+"=", config.EnvRemoteTimeout+"=")
	cmd.Env = append(cmd.Env, env...)
	return cmd
}

// runsuite runs runsuite to completion in a child with args and env and
// returns its stdout and exit code; the child's output is logged if the
// test fails.
func runsuite(t *testing.T, args []string, env ...string) (stdout string, code int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), childLimit)
	defer cancel()
	cmd := child(ctx, "1", args, env...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("runsuite %v stdout:\n%s\nstderr:\n%s", args, out.String(), errOut.String())
		}
	})
	start := time.Now()
	code = exitCode(t, cmd.Run())
	if ctx.Err() != nil {
		t.Fatalf("runsuite %v did not finish within %v", args, childLimit)
	}
	t.Logf("runsuite %v: exit %d in %v", args, code, time.Since(start).Round(time.Millisecond))
	return out.String(), code
}

// exitCode returns the exit code Run or Wait reported in err.
func exitCode(t *testing.T, err error) int {
	t.Helper()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}

// mustMatch fails the test unless stdout matches every regexp in res.
func mustMatch(t *testing.T, who, stdout string, res ...string) {
	t.Helper()
	for _, re := range res {
		if !regexp.MustCompile(re).MatchString(stdout) {
			t.Errorf("%s: stdout does not match %q", who, re)
		}
	}
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
			env := tc.env
			if tc.freshDir {
				env = append([]string{config.EnvCacheDir + "=" + t.TempDir()}, env...)
			}
			stdout, code := runsuite(t, tc.args, env...)
			if code != tc.wantExit {
				t.Errorf("exit code %d, want %d", code, tc.wantExit)
			}
			mustMatch(t, tc.name, stdout, tc.want...)
			if !strings.Contains(stdout, "cache totals") {
				t.Error("stdout lacks the cache totals line")
			}
		})
	}
}

// TestFleetSmoke is the shared-cache fleet contract over real HTTP and real
// processes. Worker A, with an empty local store, compiles everything and
// publishes to the remote; worker B, with another empty store, then runs
// the same suite with zero compiles. Killing the remote mid-run (worker C)
// or before the run (worker D) must never fail a build: both exit 0 on
// local compiles, and worker D reports the open breaker.
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the short Polybench suite in four child processes")
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 5*childLimit)
	defer cancel()

	remote := child(ctx, "remote", nil, config.EnvCacheDir+"="+filepath.Join(dir, "remote"))
	announce, err := remote.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var remoteErr bytes.Buffer
	remote.Stderr = &remoteErr
	if err := remote.Start(); err != nil {
		t.Fatal(err)
	}
	killRemote := func() {
		remote.Process.Kill() // SIGKILL: no drain, no goodbye
		remote.Wait()
	}
	defer func() {
		if remote.ProcessState == nil {
			killRemote()
		}
		if t.Failed() {
			t.Logf("remote stderr:\n%s", remoteErr.String())
		}
	}()
	line, err := bufio.NewReader(announce).ReadString('\n')
	if err != nil {
		t.Fatalf("remote did not announce its address: %v", err)
	}
	base := "http://" + strings.TrimSpace(line)
	args := []string{"-suite", "polybench", "-short"}
	worker := func(name string) []string {
		return []string{config.EnvCacheDir + "=" + filepath.Join(dir, name), config.EnvRemoteCache + "=" + base}
	}

	// Worker A populates the remote.
	out, code := runsuite(t, args, worker("worker-a")...)
	if code != 0 {
		t.Fatalf("worker A: exit code %d", code)
	}
	mustMatch(t, "worker A", out, `miss=[1-9]`, `remote: hits=0 puts=[1-9]`)

	// The remote's inventory lists what worker A published.
	if inv, err := pipeline.NewRemote(base).Totals(ctx, false); err != nil {
		t.Fatalf("remote inventory: %v", err)
	} else if inv.Count == 0 {
		t.Error("remote inventory is empty after worker A")
	}

	// Worker B runs entirely from the remote.
	out, code = runsuite(t, args, worker("worker-b")...)
	if code != 0 {
		t.Fatalf("worker B: exit code %d", code)
	}
	mustMatch(t, "worker B", out, `miss=0\b`, `remote: hits=[1-9]`)

	// Worker C survives the remote dying mid-run: the remote is killed once
	// worker C has backfilled a remote hit into its local store.
	cDir := filepath.Join(dir, "worker-c")
	wc := child(ctx, "1", args, worker("worker-c")...)
	var cOut bytes.Buffer
	wc.Stdout, wc.Stderr = &cOut, &cOut
	if err := wc.Start(); err != nil {
		t.Fatal(err)
	}
	cDone := make(chan error, 1)
	go func() { cDone <- wc.Wait() }()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for !hasArtifact(cDir) {
		select {
		case err := <-cDone:
			t.Fatalf("worker C exited (%v) before fetching from the remote:\n%s", err, cOut.String())
		case <-ctx.Done():
			t.Fatal("worker C fetched nothing from the remote")
		case <-tick.C:
		}
	}
	select {
	case <-cDone:
		t.Fatal("worker C finished before the remote died")
	default:
	}
	killRemote()
	if code := exitCode(t, <-cDone); code != 0 {
		t.Fatalf("worker C: exit code %d when the remote died:\n%s", code, cOut.String())
	}

	// Worker D degrades cleanly against a dead remote.
	out, code = runsuite(t, args, worker("worker-d")...)
	if code != 0 {
		t.Fatalf("worker D: exit code %d", code)
	}
	mustMatch(t, "worker D", out, `remote: hits=0 puts=0 errors=[1-9]`, `breaker=open`, `miss=[1-9]`)
}

// hasArtifact reports whether the artifact store under dir holds a
// committed artifact.
func hasArtifact(dir string) bool {
	found := false
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".rpa") {
			found = true
			return fs.SkipAll
		}
		return nil
	})
	return found
}
