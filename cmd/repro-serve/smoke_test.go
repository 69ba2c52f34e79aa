package main

// The daemon smoke, as a test: repro-serve runs in a child process (this
// test binary re-executed through the TestMain switch) on a loopback port
// with an empty artifact store, and the test drives it over real HTTP and
// a real SIGTERM, so a lost warm path or a drain that drops an in-flight
// run fails the test the way it would fail a deployment.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/pipeline"
)

// childEnv switches a re-executed test binary into repro-serve's main.
const childEnv = "REPROSERVE_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0) // main returns once it has drained
	}
	// The in-process daemons share one artifact store, opened on first use;
	// a fresh root keeps their builds and inventories to this run.
	dir, err := os.MkdirTemp("", "repro-serve-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Setenv(config.EnvCacheDir, dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// call sends one request to the daemon and decodes its JSON answer into
// v; any status but 200 is an error.
func call(ctx context.Context, method, url, body string, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errors.New(resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestServeSmoke: a cold first POST compiles, the identical second POST is
// served entirely from memory, /statz answers, and SIGTERM with a long run
// in flight still returns that run's result before the daemon exits 0.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon in a child process, with a multi-second native run")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	base := "http://" + addr

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.Command(os.Args[0], "-addr", addr)
	cmd.Env = append(os.Environ(), childEnv+"=1",
		config.EnvCacheDir+"="+t.TempDir(),
		config.EnvRemoteCache+"=", config.EnvFaults+"=", config.EnvFidelity+"=",
		config.EnvJobTimeout+"=", config.EnvJobMaxInsts+"=")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var waitErr error
	exited := make(chan struct{})
	go func() {
		waitErr = cmd.Wait()
		close(exited)
	}()
	defer func() {
		cmd.Process.Kill() // a no-op once the daemon has exited
		<-exited
		if t.Failed() {
			t.Logf("daemon output:\n%s", out.String())
		}
	}()

	// Wait for /healthz.
	for {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-exited:
			t.Fatalf("daemon exited before serving: %v", waitErr)
		case <-ctx.Done():
			t.Fatal("daemon never answered /healthz")
		case <-time.After(100 * time.Millisecond):
		}
	}

	const warm = `{"module":"int main() { print_int(42); print_nl(); return 0; }","engine":"chrome"}`
	var first, second pipeline.Result
	if err := call(ctx, http.MethodPost, base+"/run", warm, &first); err != nil {
		t.Fatalf("first POST: %v", err)
	}
	if first.Cache.Misses != 1 {
		t.Errorf("first POST should compile: cache %+v", first.Cache)
	}
	if err := call(ctx, http.MethodPost, base+"/run", warm, &second); err != nil {
		t.Fatalf("second POST: %v", err)
	}
	if second.Cache.Misses != 0 {
		t.Errorf("second POST recompiled: cache %+v", second.Cache)
	}
	if second.Cache.MemHits != 1 {
		t.Errorf("second POST missed memory: cache %+v", second.Cache)
	}
	if second.Stdout != "42\n" {
		t.Errorf("bad warm output %q", second.Stdout)
	}
	var st statz
	if err := call(ctx, http.MethodGet, base+"/statz", "", &st); err != nil {
		t.Fatalf("/statz: %v", err)
	}

	// Graceful drain: SIGTERM once the long run is in flight, then require
	// both the run's result and a clean exit.
	long := fmt.Sprintf(`{"module":"int main() { int i; int acc; acc = 0; for (i = 0; i < %d; i++) { acc += i; } print_int(7); print_nl(); return 0; }","engine":"native"}`, longRunIters)
	var drained pipeline.Result
	inflight := make(chan error, 1)
	go func() { inflight <- call(ctx, http.MethodPost, base+"/run", long, &drained) }()
	for {
		var st statz
		if err := call(ctx, http.MethodGet, base+"/statz", "", &st); err != nil {
			t.Fatalf("/statz: %v", err)
		}
		if st.Serve.Inflight > 0 {
			break
		}
		select {
		case err := <-inflight:
			t.Fatalf("long run finished before the drain started: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if drained.Stdout != "7\n" {
		t.Errorf("drained run lost its result: %+v", drained)
	}
	select {
	case <-exited:
		if waitErr != nil {
			t.Errorf("daemon exited nonzero after SIGTERM: %v", waitErr)
		}
	case <-ctx.Done():
		t.Fatal("daemon did not exit after draining")
	}
}
