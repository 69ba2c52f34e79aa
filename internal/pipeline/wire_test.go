package pipeline_test

// Wire-format pins for the serving API. The JSON spellings of Request,
// Result, and CacheStats are a contract with repro-serve clients: golden
// fixtures here fail if a field is renamed or its encoding changes, and the
// tolerance tests pin that decoding ignores unknown fields, so the format
// can grow without breaking deployed clients.

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/perf"
	"repro/internal/pipeline"
)

// TestRequestWireGolden pins the Request wire spelling, including the
// base64 []byte convention for Files and the human-readable Duration in
// Limits.
func TestRequestWireGolden(t *testing.T) {
	req := &pipeline.Request{
		Module:   "int main() { return 0; }",
		Engine:   "chrome",
		Argv:     []string{"prog", "-n"},
		Files:    map[string][]byte{"/in.txt": []byte("hi")},
		Fidelity: "functional",
		Limits: config.Limits{
			Timeout:  config.Duration(300 * time.Millisecond),
			MaxInsts: 1000,
		},
	}
	const golden = `{"module":"int main() { return 0; }","engine":"chrome","argv":["prog","-n"],"files":{"/in.txt":"aGk="},"fidelity":"functional","limits":{"timeout":"300ms","max_insts":1000}}`
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != golden {
		t.Errorf("request wire format drifted:\n got %s\nwant %s", b, golden)
	}
	var back pipeline.Request
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Module != req.Module || back.Engine != req.Engine ||
		back.Fidelity != req.Fidelity || back.Limits != req.Limits ||
		string(back.Files["/in.txt"]) != "hi" || len(back.Argv) != 2 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

// TestRequestMinimalOmitsDefaults: a minimal request serializes to just its
// module and engine — zero limits, nil files, and empty argv stay off the
// wire (limits relies on omitzero, which omitempty cannot do for structs).
func TestRequestMinimalOmitsDefaults(t *testing.T) {
	b, err := json.Marshal(&pipeline.Request{Module: "m", Engine: "native"})
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"module":"m","engine":"native"}`
	if string(b) != golden {
		t.Errorf("minimal request:\n got %s\nwant %s", b, golden)
	}
}

// TestRequestWasmWireGolden pins the raw-wasm request form: Wasm rides the
// wire base64-encoded under "wasm", Dispatch under "dispatch", and both
// stay off the wire entirely for mini-C requests (omitempty — pinned by
// TestRequestMinimalOmitsDefaults above).
func TestRequestWasmWireGolden(t *testing.T) {
	req := &pipeline.Request{
		Wasm:     []byte{0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00},
		Engine:   "native",
		Dispatch: "legacy",
	}
	const golden = `{"module":"","wasm":"AGFzbQEAAAA=","dispatch":"legacy","engine":"native"}`
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != golden {
		t.Errorf("wasm request wire format drifted:\n got %s\nwant %s", b, golden)
	}
	var back pipeline.Request
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if string(back.Wasm) != string(req.Wasm) || back.Dispatch != "legacy" {
		t.Errorf("round trip lost data: %+v", back)
	}
}

// TestResultWireGolden pins the Result wire spelling: snake_case cache
// counters, the nested error object, and that the in-process Proc handle
// never leaks onto the wire.
func TestResultWireGolden(t *testing.T) {
	res := &pipeline.Result{
		ExitCode: 1,
		Stdout:   "42\n",
		Counters: perf.Counters{Instructions: 7, Cycles: 9},
		Cache:    pipeline.CacheStats{MemHits: 1},
		Err:      &pipeline.ErrorInfo{Class: pipeline.ClassTimeout, Message: "killed"},
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{
		`"exit_code":1`,
		`"stdout":"42\n"`,
		`"cache":{"mem_hits":1,"disk_hits":0,"misses":0}`,
		`"error":{"class":"timeout","message":"killed"}`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("result wire format missing %s in %s", want, s)
		}
	}
	if strings.Contains(s, "Proc") || strings.Contains(s, "proc") {
		t.Errorf("Proc must not serialize: %s", s)
	}
}

// TestCacheStatsWireGolden pins CacheStats exactly, including that the
// failure counters (corrupt, quarantined) are omitted when zero.
func TestCacheStatsWireGolden(t *testing.T) {
	b, err := json.Marshal(pipeline.CacheStats{MemHits: 3, DiskHits: 2, Misses: 1})
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"mem_hits":3,"disk_hits":2,"misses":1}`
	if string(b) != golden {
		t.Errorf("cache stats:\n got %s\nwant %s", b, golden)
	}
	b, err = json.Marshal(pipeline.CacheStats{Misses: 1, Corrupt: 4, Quarantined: 5})
	if err != nil {
		t.Fatal(err)
	}
	const goldenFail = `{"mem_hits":0,"disk_hits":0,"misses":1,"corrupt":4,"quarantined":5}`
	if string(b) != goldenFail {
		t.Errorf("cache stats with failures:\n got %s\nwant %s", b, goldenFail)
	}
	// The remote-tier counters ride the same struct, omitted when zero (so
	// a local-only run serializes exactly as before the tier existed) and
	// spelled remote_* when not.
	b, err = json.Marshal(pipeline.CacheStats{Misses: 1, RemoteHits: 2, RemotePuts: 3, RemoteErrors: 4, RemoteRejects: 5})
	if err != nil {
		t.Fatal(err)
	}
	const goldenRemote = `{"mem_hits":0,"disk_hits":0,"misses":1,"remote_hits":2,"remote_puts":3,"remote_errors":4,"remote_rejects":5}`
	if string(b) != goldenRemote {
		t.Errorf("cache stats with remote traffic:\n got %s\nwant %s", b, goldenRemote)
	}
}

// TestUnknownFieldTolerance: decoding skips fields this version does not
// know, in the request, its limits, and the result alike — the growth
// contract for older daemons and newer clients (and vice versa).
func TestUnknownFieldTolerance(t *testing.T) {
	var req pipeline.Request
	err := json.Unmarshal([]byte(`{
		"module": "m", "engine": "native",
		"priority": 9, "trace_id": "abc",
		"limits": {"timeout": "1s", "gpu_seconds": 3}
	}`), &req)
	if err != nil {
		t.Fatalf("unknown request fields must be tolerated: %v", err)
	}
	if req.Module != "m" || req.Engine != "native" || req.Limits.Timeout.Std() != time.Second {
		t.Errorf("known fields lost among unknown ones: %+v", req)
	}
	var res pipeline.Result
	err = json.Unmarshal([]byte(`{"exit_code": 0, "stdout": "x", "billing_cents": 12}`), &res)
	if err != nil {
		t.Fatalf("unknown result fields must be tolerated: %v", err)
	}
	if res.Stdout != "x" {
		t.Errorf("known fields lost: %+v", res)
	}
}

// TestLimitsDurationForms: Limits.Timeout decodes both wire forms — a Go
// duration string and raw nanoseconds — and rejects garbage.
func TestLimitsDurationForms(t *testing.T) {
	var l config.Limits
	if err := json.Unmarshal([]byte(`{"timeout":"250ms"}`), &l); err != nil || l.Timeout.Std() != 250*time.Millisecond {
		t.Errorf("string form: %v %v", l.Timeout, err)
	}
	if err := json.Unmarshal([]byte(`{"timeout":250000000}`), &l); err != nil || l.Timeout.Std() != 250*time.Millisecond {
		t.Errorf("nanosecond form: %v %v", l.Timeout, err)
	}
	if err := json.Unmarshal([]byte(`{"timeout":"soon"}`), &l); err == nil {
		t.Error("garbage duration must be rejected")
	}
}
