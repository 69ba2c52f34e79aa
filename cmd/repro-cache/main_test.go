package main

// The tool's smoke test: repro-cache runs in child processes (this test
// binary re-executed through the TestMain switch) over a temp store root and
// an in-process artifact server, so every subcommand is driven through its
// real flag parsing, store resolution and exit code.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

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

// run runs one repro-cache subcommand over the store at dir.
func run(dir string, args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1",
		config.EnvCacheDir+"="+dir, config.EnvCacheMaxBytes+"=",
		config.EnvRemoteCache+"=", config.EnvFaults+"=")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// repro runs one repro-cache subcommand over the store at dir and returns
// its stdout; a nonzero exit fails the test.
func repro(t *testing.T, dir string, args ...string) string {
	t.Helper()
	stdout, stderr, err := run(dir, args...)
	if err != nil {
		t.Fatalf("repro-cache %s: %v\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), err, stdout, stderr)
	}
	return stdout
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

// TestCacheToolSmoke walks every subcommand over a store root holding two
// generations, neither of them the tool's own: totals, list and gc act on
// the whole root. A server is seeded with two artifacts in each; pull fills
// an empty local store, a second pull finds everything present, push
// republishes the local store to a second server, and gc evicts the
// generation read longest ago.
func TestCacheToolSmoke(t *testing.T) {
	local := t.TempDir()
	out := repro(t, local, "totals")
	wantLine(t, out, `^store: +`+regexp.QuoteMeta(local)+`$`)
	wantLine(t, out, `^artifacts: 0$`)
	const one, other = "c-00000000000000a1", "c-00000000000000a2"

	src := httptest.NewServer(pipeline.ArtifactHandlerAt(t.TempDir(), 0))
	defer src.Close()
	ctx := context.Background()
	r := pipeline.NewRemote(src.URL)
	gens := []string{one, one, other, other}
	var keys []string
	var oneBytes int64
	for i, fp := range gens {
		key, data := artifact(t, fmt.Sprintf("int main() { print_int(%d); print_nl(); return 0; }", 100+i))
		if err := r.Put(ctx, fp, key, data); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		if fp == one {
			oneBytes += int64(len(data))
		}
	}

	out = repro(t, local, "remote-totals", "-remote", src.URL)
	wantLine(t, out, `^artifacts: 4$`)
	wantLine(t, out, `^  `+one+`: 2 artifacts, `)
	wantLine(t, out, `^  `+other+`: 2 artifacts, `)

	out = repro(t, local, "pull", "-remote", src.URL)
	wantLine(t, out, `^pulled 4 artifacts \(.*\), 0 already present, 0 failed \(breaker=closed\)$`)
	out = repro(t, local, "pull", "-remote", src.URL)
	wantLine(t, out, `^pulled 0 artifacts \(.*\), 4 already present, 0 failed`)

	out = repro(t, local, "totals")
	wantLine(t, out, `^artifacts: 4$`)
	wantLine(t, out, `^  `+one+`: 2 artifacts, `)
	wantLine(t, out, `^  `+other+`: 2 artifacts, `)
	wantLine(t, out, `^budget: +512\.0 MiB$`)
	out = repro(t, local, "list")
	for i, key := range keys {
		wantLine(t, out, `^`+gens[i]+` .* `+key+`$`)
	}
	wantLine(t, out, `^\(4 artifacts, oldest first`)

	dst := httptest.NewServer(pipeline.ArtifactHandlerAt(t.TempDir(), 0))
	defer dst.Close()
	out = repro(t, local, "push", "-remote", dst.URL)
	wantLine(t, out, `^pushed 4 artifacts \(.*\) across 2 generations, 0 failed \(breaker=closed\)$`)
	out = repro(t, local, "remote-totals", "-remote", dst.URL)
	wantLine(t, out, `^artifacts: 4$`)
	wantLine(t, out, `^  `+other+`: 2 artifacts, `)

	// The other generation was read an hour before this one: a gc down to
	// this generation's size frees exactly the other's artifacts.
	for i, key := range keys {
		mt := time.Now()
		if gens[i] == other {
			mt = mt.Add(-time.Hour)
		}
		if err := os.Chtimes(filepath.Join(local, gens[i], key[:2], key+".rpa"), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	out = repro(t, local, "gc", "-max", fmt.Sprint(oneBytes))
	wantLine(t, out, `^removed 2 artifacts, freed `)
	out = repro(t, local, "totals")
	wantLine(t, out, `^artifacts: 2$`)
	wantLine(t, out, `^  `+one+`: 2 artifacts, `)
	if strings.Contains(out, other) {
		t.Errorf("totals still shows generation %s after gc:\n%s", other, out)
	}
	out = repro(t, local, "pull", "-remote", src.URL)
	wantLine(t, out, `^pulled 2 artifacts \(.*\), 2 already present, 0 failed`)
}

// TestPullRejectsBadAddresses feeds pull an inventory from outside the
// process that names a short key and a key climbing out of the store, from
// a server that answers every GET with a valid artifact. Both count as
// failed, without a panic, and nothing lands outside the store root.
func TestPullRejectsBadAddresses(t *testing.T) {
	base := t.TempDir()
	local := filepath.Join(base, "store")
	key, data := artifact(t, "int main() { print_int(7); print_nl(); return 0; }")
	const fp = "c-00000000000000a1"
	inv := pipeline.RemoteTotals{Count: 3, Fingerprints: map[string]pipeline.RemoteFPInfo{
		fp: {Count: 3, Keys: []string{key, "abc", "../escaped"}},
	}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/artifacts" {
			json.NewEncoder(w).Encode(inv)
			return
		}
		w.Write(data)
	}))
	defer srv.Close()

	stdout, stderr, err := run(local, "pull", "-remote", srv.URL)
	if strings.Contains(stderr, "panic") {
		t.Fatalf("pull panicked:\n%s", stderr)
	}
	if err == nil {
		t.Errorf("pull of bad addresses exited 0:\n%s", stdout)
	}
	wantLine(t, stdout, `^pulled 1 artifacts \(.*\), 0 already present, 2 failed`)
	filepath.WalkDir(base, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !strings.HasPrefix(p, local+string(filepath.Separator)) {
			t.Errorf("pull wrote %s outside the store root %s", p, local)
		}
		return nil
	})
}
