package main

// The tool's smoke test: repro-cache runs in child processes (this test
// binary re-executed through the TestMain switch) over a temp store root and
// an in-process artifact server, so every subcommand is driven through its
// real flag parsing, store resolution and exit code.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/config"
	"repro/internal/minic"
	"repro/internal/pipeline"
)

// childEnv switches a re-executed test binary into repro-cache's main.
const childEnv = "REPROCACHE_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// repro runs one repro-cache subcommand over the store at dir and returns
// its stdout; a nonzero exit fails the test.
func repro(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1",
		config.EnvCacheDir+"="+dir, config.EnvCacheMaxBytes+"=",
		config.EnvRemoteCache+"=", config.EnvFaults+"=")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("repro-cache %s: %v\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), err, stdout.String(), stderr.String())
	}
	return stdout.String()
}

// wantLine fails the test unless out has a line matching re.
func wantLine(t *testing.T, out, re string) {
	t.Helper()
	if !regexp.MustCompile(`(?m)` + re).MatchString(out) {
		t.Errorf("no line matching %q in:\n%s", re, out)
	}
}

// artifact compiles src for the native engine and returns its encoded
// artifact and content address.
func artifact(t *testing.T, src string) (key string, data []byte) {
	t.Helper()
	cfg := codegen.Native()
	abi := pipeline.ABIFor(cfg)
	m, err := minic.Compile(src, abi)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := codegen.Compile(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cm.PtrSize = abi.PtrSize
	data, err = codegen.EncodeModule(cm)
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.Key(src, cfg), data
}

// TestCacheToolSmoke walks every subcommand across two generations: the
// tool's own (the active one, which totals, list and gc act on) and one
// other. A server is seeded with two artifacts in each; pull fills an empty
// local store, a second pull finds everything present, push republishes
// the local store to a second server, and gc empties the active generation.
func TestCacheToolSmoke(t *testing.T) {
	local := t.TempDir()
	out := repro(t, local, "totals")
	wantLine(t, out, `^artifacts: 0$`)
	m := regexp.MustCompile(`(?m)^store: +(\S+)$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("totals names no store:\n%s", out)
	}
	active := filepath.Base(m[1])
	const other = "c-00000000000000a1"
	if active == other {
		t.Fatalf("active generation %s collides with the fixture's", active)
	}

	src := httptest.NewServer(pipeline.ArtifactHandlerAt(t.TempDir(), 0))
	defer src.Close()
	ctx := context.Background()
	r := pipeline.NewRemote(src.URL)
	var keys []string
	for i, fp := range []string{active, active, other, other} {
		key, data := artifact(t, fmt.Sprintf("int main() { print_int(%d); print_nl(); return 0; }", 100+i))
		if err := r.Put(ctx, fp, key, data); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}

	out = repro(t, local, "remote-totals", "-remote", src.URL)
	wantLine(t, out, `^artifacts: 4$`)
	wantLine(t, out, `^  `+active+`: 2 artifacts, `)
	wantLine(t, out, `^  `+other+`: 2 artifacts, `)

	out = repro(t, local, "pull", "-remote", src.URL)
	wantLine(t, out, `^pulled 4 artifacts \(.*\), 0 already present, 0 failed \(breaker=closed\)$`)
	out = repro(t, local, "pull", "-remote", src.URL)
	wantLine(t, out, `^pulled 0 artifacts \(.*\), 4 already present, 0 failed`)

	out = repro(t, local, "totals")
	wantLine(t, out, `^artifacts: 2$`)
	wantLine(t, out, `^budget: +512\.0 MiB$`)
	out = repro(t, local, "list")
	for _, key := range keys[:2] {
		wantLine(t, out, ` `+key+`$`)
	}
	for _, key := range keys[2:] {
		if strings.Contains(out, key) {
			t.Errorf("list shows %s from generation %s:\n%s", key[:12], other, out)
		}
	}
	wantLine(t, out, `^\(2 artifacts, oldest first`)

	dst := httptest.NewServer(pipeline.ArtifactHandlerAt(t.TempDir(), 0))
	defer dst.Close()
	out = repro(t, local, "push", "-remote", dst.URL)
	wantLine(t, out, `^pushed 4 artifacts \(.*\) across 2 generations, 0 failed \(breaker=closed\)$`)
	out = repro(t, local, "remote-totals", "-remote", dst.URL)
	wantLine(t, out, `^artifacts: 4$`)
	wantLine(t, out, `^  `+other+`: 2 artifacts, `)

	out = repro(t, local, "gc", "-max", "1")
	wantLine(t, out, `^removed 2 artifacts, freed `)
	out = repro(t, local, "totals")
	wantLine(t, out, `^artifacts: 0$`)
	out = repro(t, local, "pull", "-remote", src.URL)
	wantLine(t, out, `^pulled 2 artifacts \(.*\), 2 already present, 0 failed`)
}
