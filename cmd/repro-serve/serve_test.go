package main

// Daemon tests, all against the in-process handler (httptest): the warm
// path (a second identical POST is served entirely from cache), compile
// batching (N concurrent identical requests cost one compile), graceful
// drain (in-flight requests return their results), admission rejection,
// stride fairness, and NDJSON batch streaming.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/pipeline"
)

// post sends one /run request and decodes the Result.
func post(t *testing.T, ts *httptest.Server, tenant string, req *pipeline.Request) (*pipeline.Result, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", ts.URL+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		hr.Header.Set(tenantHeader, tenant)
	}
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res pipeline.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
	}
	return &res, resp.StatusCode
}

// uniqueSrc returns a module whose cache key nothing else in this process
// shares — not other tests, and not an earlier -count run of the same test
// (the nonce comment changes the content address without changing the
// program) — so each test observes its own compile.
var srcNonce atomic.Int64

func uniqueSrc(tag int) string {
	return fmt.Sprintf(`
int main() {  /* nonce %d.%d */
  print_int(%d);
  print_nl();
  return 0;
}`, os.Getpid(), srcNonce.Add(1), tag)
}

// TestWarmPath is the acceptance criterion: the second identical POST is
// served entirely from the in-memory cache — Misses == 0, MemHits == 1 —
// with counters identical to the first run.
func TestWarmPath(t *testing.T) {
	ts := httptest.NewServer(newServer(4, 16, nil).handler())
	defer ts.Close()
	req := &pipeline.Request{Module: uniqueSrc(4101), Engine: "chrome"}

	first, code := post(t, ts, "", req)
	if code != http.StatusOK || first.Err != nil {
		t.Fatalf("first: status %d err %v", code, first.Err)
	}
	if first.Stdout != "4101\n" {
		t.Fatalf("first stdout %q", first.Stdout)
	}
	if first.Cache.Misses != 1 || first.Cache.MemHits != 0 {
		t.Fatalf("first request should compile: %+v", first.Cache)
	}

	second, code := post(t, ts, "", req)
	if code != http.StatusOK || second.Err != nil {
		t.Fatalf("second: status %d err %v", code, second.Err)
	}
	if second.Cache.Misses != 0 || second.Cache.MemHits != 1 {
		t.Fatalf("warm request must not compile: %+v", second.Cache)
	}
	if second.Counters != first.Counters {
		t.Errorf("warm run diverged:\nfirst  %+v\nsecond %+v", first.Counters, second.Counters)
	}
}

// TestArtifactRoutesMounted pins that the daemon serves the shared remote
// cache next to /run, over its own store: the inventory lists what the
// daemon's builds published, a bad address answers 400, a miss 404, all on
// the same mux.
func TestArtifactRoutesMounted(t *testing.T) {
	ts := httptest.NewServer(newServer(2, 8, nil).handler())
	defer ts.Close()
	if res, code := post(t, ts, "", &pipeline.Request{Module: uniqueSrc(4102), Engine: "native"}); code != http.StatusOK || res.Err != nil {
		t.Fatalf("build: status %d err %v", code, res.Err)
	}

	resp, err := ts.Client().Get(ts.URL + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /artifacts = %d, want 200", resp.StatusCode)
	}
	var inv pipeline.RemoteTotals
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatalf("inventory is not JSON: %v", err)
	}
	dir, ok := pipeline.StoreDir()
	if !ok {
		t.Fatal("the daemon has no artifact store")
	}
	fp := filepath.Base(dir)
	arts, err := pipeline.ListArtifacts()
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, a := range arts {
		if a.Generation == fp {
			held++
		}
	}
	if got := inv.Fingerprints[fp].Count; got == 0 || got != held {
		t.Errorf("inventory shows %d artifacts in the daemon's generation %s, its store holds %d", got, fp, held)
	}

	if resp, err := ts.Client().Get(ts.URL + "/artifact/garbage/alsogarbage"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad artifact address = %d, want 400", resp.StatusCode)
		}
	}
	miss := ts.URL + "/artifact/c-0123456789abcdef/" + strings.Repeat("ab", 32)
	if resp, err := ts.Client().Get(miss); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("artifact miss = %d, want 404", resp.StatusCode)
		}
	}
}

// TestSingleflightBatching is the other acceptance criterion: concurrent
// identical requests trigger exactly one compile, observable as a global
// Misses delta of 1 across the burst.
func TestSingleflightBatching(t *testing.T) {
	ts := httptest.NewServer(newServer(8, 64, nil).handler())
	defer ts.Close()
	req := &pipeline.Request{Module: uniqueSrc(4202), Engine: "native"}

	before := pipeline.Stats()
	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(req)
			resp, err := ts.Client().Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var res pipeline.Result
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				errs <- err
				return
			}
			if res.Err != nil {
				errs <- fmt.Errorf("run error: %v", res.Err)
				return
			}
			if res.Stdout != "4202\n" {
				errs <- fmt.Errorf("stdout %q", res.Stdout)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	delta := pipeline.Stats().Sub(before)
	if delta.Misses != 1 {
		t.Errorf("%d identical concurrent requests cost %d compiles, want 1", n, delta.Misses)
	}
	if delta.MemHits != n-1 {
		t.Errorf("mem hits %d, want %d", delta.MemHits, n-1)
	}

	// /statz must expose the same counters to external observers.
	resp, err := ts.Client().Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses < 1 {
		t.Errorf("/statz cache misses %d, want >= 1", st.Cache.Misses)
	}
	if st.Serve.Served < n {
		t.Errorf("/statz served %d, want >= %d", st.Serve.Served, n)
	}
	if st.Budget.Capacity < 1 {
		t.Errorf("/statz budget capacity %d", st.Budget.Capacity)
	}
	if b := st.Build; b.Entries < 1 || b.BudgetBytes <= 0 || b.ResidentBytes <= 0 || b.ResidentBytes > b.BudgetBytes {
		t.Errorf("/statz build %+v, want entries and 0 < resident_bytes <= budget_bytes", b)
	}
}

// busySrc runs long enough (~tens of ms) that a test can act while it is
// in flight.
const busySrc = `
int main() {
  int i; int acc;
  acc = 0;
  for (i = 0; i < 3000000; i++) { acc += i; }
  print_int(1);
  print_nl();
  return 0;
}`

// TestDrainCompletesInFlight: drain rejects new work and flips /healthz to
// 503, but an already-admitted request still returns its result.
func TestDrainCompletesInFlight(t *testing.T) {
	srv := newServer(2, 8, nil)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	type outcome struct {
		res  *pipeline.Result
		code int
	}
	done := make(chan outcome, 1)
	go func() {
		res, code := post(t, ts, "", &pipeline.Request{Module: busySrc, Engine: "native"})
		done <- outcome{res, code}
	}()
	// Wait until the request is actually in flight before draining.
	for i := 0; srv.inflight.Load() == 0 && i < 500; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	if srv.inflight.Load() == 0 {
		t.Fatal("request never went in flight")
	}
	srv.drain()

	if resp, err := ts.Client().Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/healthz while draining: %d, want 503", resp.StatusCode)
		}
	}
	if _, code := post(t, ts, "", &pipeline.Request{Module: uniqueSrc(4303), Engine: "native"}); code != http.StatusServiceUnavailable {
		t.Errorf("new request while draining: %d, want 503", code)
	}

	o := <-done
	if o.code != http.StatusOK || o.res.Err != nil {
		t.Fatalf("in-flight request: status %d err %v", o.code, o.res.Err)
	}
	if o.res.Stdout != "1\n" || o.res.ExitCode != 0 {
		t.Errorf("in-flight result: exit %d stdout %q", o.res.ExitCode, o.res.Stdout)
	}
}

// TestAdmissionRejects: with one slot and a zero-depth queue, a second
// concurrent request is turned away with 429, not queued forever.
func TestAdmissionRejects(t *testing.T) {
	srv := newServer(1, 0, nil)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, code := post(t, ts, "", &pipeline.Request{Module: busySrc, Engine: "chrome"})
		close(release)
		_ = res
		_ = code
	}()
	// Wait until the busy request holds the only slot: a colliding request
	// sent earlier can win the slot itself and get the busy one refused.
	for i := 0; srv.inflight.Load() == 0 && i < 500; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	// Then collide with it. If the first run finishes before we get our
	// request in, the test still passes vacuously on the retry check
	// below, so spin fast.
	deadline := time.Now().Add(5 * time.Second)
	got429 := false
	for time.Now().Before(deadline) {
		select {
		case <-release:
			// First run already finished; can no longer provoke contention.
			deadline = time.Time{}
		default:
		}
		if deadline.IsZero() {
			break
		}
		_, code := post(t, ts, "", &pipeline.Request{Module: uniqueSrc(4404), Engine: "native"})
		if code == http.StatusTooManyRequests {
			got429 = true
			break
		}
	}
	wg.Wait()
	if !got429 {
		t.Skip("first run finished before contention could be provoked (loaded machine)")
	}
}

// TestBadRequest: malformed JSON, unknown engines and unknown fidelity
// tiers are 400s with a bad_request error class, echoed in the standard
// Result shape.
func TestBadRequest(t *testing.T) {
	ts := httptest.NewServer(newServer(2, 8, nil).handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/run", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", resp.StatusCode)
	}

	for name, req := range map[string]*pipeline.Request{
		"unknown engine":   {Module: uniqueSrc(4505), Engine: "z80"},
		"unknown fidelity": {Module: uniqueSrc(4505), Engine: "native", Fidelity: "sampled"},
	} {
		res, code := post(t, ts, "", req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", name, code)
		}
		if res.Err == nil || res.Err.Class != pipeline.ClassBadRequest {
			t.Errorf("%s error: %+v", name, res.Err)
		}
	}
}

// TestStatzReportsEveryFaultSite: while rules are armed, /statz lists every
// site that was checked, including ones inside the compiler.
func TestStatzReportsEveryFaultSite(t *testing.T) {
	disarm, err := fault.ArmSpec(fault.SiteCodegenFunc + "@no-such-function=error")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	ts := httptest.NewServer(newServer(2, 8, nil).handler())
	defer ts.Close()
	if res, code := post(t, ts, "", &pipeline.Request{Module: uniqueSrc(4506), Engine: "chrome"}); code != http.StatusOK || res.Cache.Misses != 1 {
		t.Fatalf("build: status %d, cache %+v, err %v", code, res.Cache, res.Err)
	}
	resp, err := ts.Client().Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if got := st.Faults[fault.SiteCodegenFunc]; got.Hits == 0 || got.Fired != 0 {
		t.Errorf("/statz faults[%s] = %+v, want hits and no fires (faults: %+v)", fault.SiteCodegenFunc, got, st.Faults)
	}
}

// TestBatchNDJSON: a JSON array body streams one NDJSON row per element,
// tagged with the element's index, in completion order.
func TestBatchNDJSON(t *testing.T) {
	ts := httptest.NewServer(newServer(4, 16, nil).handler())
	defer ts.Close()

	body, _ := json.Marshal([]*pipeline.Request{
		{Module: uniqueSrc(4606), Engine: "native"},
		{Module: uniqueSrc(4607), Engine: "native"},
		{Module: `int main() { return `, Engine: "native"}, // compile error row
	})
	resp, err := ts.Client().Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	rows := map[int]*pipeline.Result{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row batchRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad row %q: %v", sc.Text(), err)
		}
		rows[row.Index] = row.Result
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[0].Stdout != "4606\n" || rows[1].Stdout != "4607\n" {
		t.Errorf("row outputs: %q %q", rows[0].Stdout, rows[1].Stdout)
	}
	if rows[2].Err == nil || rows[2].Err.Class != pipeline.ClassCompile {
		t.Errorf("compile-error row: %+v", rows[2].Err)
	}
}

// TestStrideFairness drives the admitter directly (no HTTP, no timing):
// with one slot and both tenants saturated, grants follow the 4:1 weight
// ratio.
func TestStrideFairness(t *testing.T) {
	a := newAdmitter(1, 100, map[string]int{"heavy": 4, "light": 1})
	ctx := context.Background()

	// Occupy the only slot so every admit below queues.
	if err := a.admit(ctx, "seed"); err != nil {
		t.Fatal(err)
	}
	granted := make(chan string, 32)
	var wg sync.WaitGroup
	enqueue := func(name string, n int) {
		for range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := a.admit(ctx, name); err != nil {
					t.Error(err)
					return
				}
				granted <- name
			}()
		}
	}
	enqueue("heavy", 12)
	enqueue("light", 12)
	// Wait until all 24 waiters are queued, so dispatch sees both tenants.
	for i := 0; i < 1000; i++ {
		if _, queued, _ := a.snapshot(); queued == 24 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, queued, _ := a.snapshot(); queued != 24 {
		t.Fatalf("queued %d, want 24", queued)
	}

	a.release("seed") // hands the slot to the first waiter
	counts := map[string]int{}
	var order []string
	for range 15 {
		name := <-granted
		order = append(order, name)
		counts[name]++
		a.release(name) // grants the next waiter
	}
	// Drain the rest so the goroutines finish.
	go func() {
		for name := range granted {
			a.release(name)
		}
	}()
	wg.Wait()
	close(granted)

	// 15 grants at 4:1 → 12 heavy, 3 light. Allow one grant of slack for
	// the initial tie-break.
	if counts["heavy"] < 11 || counts["light"] < 2 {
		t.Errorf("grant ratio off: %v (order %v)", counts, order)
	}
}
