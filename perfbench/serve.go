package main

// serve-mixed: the serving path. The benchmark builds cmd/repro-serve
// before it starts (untimed), runs the daemon on a loopback port with a
// fresh private store, and drives it with two closed-loop clients, one tenant
// each, through a fixed seeded mix of warm, io and cold requests. Every
// response must be HTTP 200 without an error and match in-process
// pipeline.Do.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/perf"
	"repro/internal/pipeline"
)

const (
	serveClients = 2
	// serveRate sizes the HTTP phase: each client sends this many requests
	// per second of -seconds. A fixed count, not a deadline, keeps the
	// daemon's resident cold modules, and so rss_mb, independent of speed.
	serveRate = 500
	// probeRequests is the in-process request probe's size.
	probeRequests = 3000
	tenantHeader  = "X-Repro-Tenant"
)

// expected is a serving program's in-process result.
type expected struct {
	stdout   string
	counters perf.Counters
}

// doFunc sends one request as tenant; op and parent place its spans.
type doFunc func(ctx context.Context, q servReq, tenant string, op int64, parent int) (*pipeline.Result, error)

// inProcess serves a request with pipeline.Do. Traced, it takes Do's two
// steps through public calls instead, so the kernel's spawn and run get
// spans of their own.
func (b *bench) inProcess(ctx context.Context, q servReq, _ string, op int64, parent int) (*pipeline.Result, error) {
	if !b.tr.enabled() {
		return pipeline.Do(ctx, q.request())
	}
	sp := b.tr.begin("pipeline.compile", op, parent)
	cm, err := pipeline.Compile(ctx, q.request())
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	res, err := runInKernel(b.tr, op, parent, cm, q.Base.Prog.Argv, q.Base.Prog.Files)
	if err == nil {
		b.mu.Lock()
		b.browsix = append(b.browsix, res.Proc.BrowsixShare())
		b.mu.Unlock()
	}
	return res, err
}

func (q servReq) request() *pipeline.Request {
	return &pipeline.Request{Module: q.Src, Engine: q.Base.Engine, Argv: q.Base.Prog.Argv, Files: q.Base.Prog.Files}
}

// expectations runs every serving program in-process, checks cross-engine
// agreement is not needed (each program has one engine), and records the
// reference results and their counters.
func (b *bench) expectations(set serveSet) (map[string]expected, error) {
	exp := map[string]expected{}
	for _, p := range append(append([]pair{}, set.Warm...), set.IO...) {
		res, err := pipeline.Do(b.ctx, servReq{Base: p, Src: p.Prog.Source}.request())
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", pairKey(p), err)
		}
		if res.ExitCode != 0 || res.Stdout == "" {
			return nil, fmt.Errorf("reference run of %s: exit %d, stdout %q", pairKey(p), res.ExitCode, res.Stdout)
		}
		exp[pairKey(p)] = expected{res.Stdout, res.Counters}
		if res.Proc != nil {
			b.logf("serving program %s: %d simulated instructions, Browsix share %.2f",
				pairKey(p), res.Counters.Instructions, res.Proc.BrowsixShare())
		}
		if err := b.recordCounters(pairKey(p)+"/serve", res.Counters); err != nil {
			return nil, err
		}
	}
	return exp, nil
}

// checkServed compares a response with the in-process reference.
func checkServed(q servReq, res *pipeline.Result, exp map[string]expected) error {
	want := exp[pairKey(q.Base)]
	switch {
	case res.Err != nil:
		return fmt.Errorf("%s request %s: %v", q.Kind, pairKey(q.Base), res.Err)
	case res.ExitCode != 0:
		return fmt.Errorf("%s request %s: exit %d", q.Kind, pairKey(q.Base), res.ExitCode)
	case res.Stdout != want.stdout:
		return fmt.Errorf("%s request %s: stdout %q, in-process %q", q.Kind, pairKey(q.Base), res.Stdout, want.stdout)
	case res.Counters != want.counters:
		return fmt.Errorf("%s request %s: counters differ from in-process", q.Kind, pairKey(q.Base))
	}
	return nil
}

// reqStats is what a request phase measured. Times are at the reference
// host speed (see hostRef).
type reqStats struct {
	lat   []float64 // successful requests' latencies in ms
	kinds []string  // each one's kind
	cold  int       // cold requests sent
	other int       // warm and io requests sent
	wall  float64   // the phase's duration in seconds
}

// reqBatch is how many requests each client sends between two samples of
// the host's speed: about 130 ms of requests, against the loop's 3 ms on
// each CPU.
const reqBatch = 100

// requestPhase runs clients closed-loop clients, each sending n requests of
// its own seeded schedule through do; spanName names each request's span.
// The clients send in batches of reqBatch and wait for each other between
// batches, where the host's speed is sampled: on each CPU when clients run
// concurrently, on this goroutine's CPU when one client runs in-process.
func (b *bench) requestPhase(set serveSet, exp map[string]expected, do doFunc, clients, n int, stream, spanName string) reqStats {
	var mu sync.Mutex
	var st reqStats
	scheds := make([][]servReq, clients)
	for c := range scheds {
		scheds[c] = set.schedule(b.seed, stream, c, n)
	}
	for lo := 0; lo < n; lo += reqBatch {
		hi := min(lo+reqBatch, n)
		var scale float64
		if clients == 1 {
			scale = b.ref.scaleNow(0)
		} else {
			scale = b.ref.scaleAll()
		}
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				tenant := fmt.Sprintf("t%d", c)
				for _, q := range scheds[c][lo:hi] {
					op := b.opID()
					root := b.tr.begin("op.request", op, 0)
					sp := b.tr.begin(spanName, op, root)
					iv := interval{T0: time.Now()}
					res, err := do(b.ctx, q, tenant, op, sp)
					iv.T1 = time.Now()
					b.tr.end(sp)
					b.tr.end(root)
					if err == nil {
						err = checkServed(q, res, exp)
					}
					b.op(err)
					mu.Lock()
					if q.Kind == kindCold {
						st.cold++
					} else {
						st.other++
					}
					if err == nil {
						st.lat = append(st.lat, ms(iv.raw())*scale)
						st.kinds = append(st.kinds, q.Kind)
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		st.wall += time.Since(t0).Seconds() * scale
	}
	return st
}

// pooled merges per-round request stats.
func pooled(sts []reqStats) reqStats {
	var out reqStats
	for _, st := range sts {
		out.lat = append(out.lat, st.lat...)
		out.kinds = append(out.kinds, st.kinds...)
		out.cold += st.cold
		out.other += st.other
		out.wall += st.wall
	}
	return out
}

// reportRequests sets the request metrics over every round's requests:
// latency percentiles over all of them, throughput as completed requests
// over the rounds' summed duration. The run log gets each request kind's
// latencies.
func (b *bench) reportRequests(sts []reqStats) {
	st := pooled(sts)
	if len(st.lat) == 0 {
		return
	}
	lat := st.lat
	b.setE2E("req_p50_ms", median(lat), "ms")
	b.setE2E("req_p90_ms", quantile(lat, 0.9), "ms")
	b.setE2E("req_per_s", float64(len(lat))/st.wall, "1/s")
	byKind := map[string][]float64{}
	for i, k := range st.kinds {
		byKind[k] = append(byKind[k], lat[i])
	}
	for _, k := range []string{kindWarm, kindIO, kindCold} {
		b.logf("%s requests: %d, p50 %.3f ms, p90 %.3f ms", k, len(byKind[k]), median(byKind[k]), quantile(byKind[k], 0.9))
	}
}

// daemon is a running repro-serve.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *readyWriter
	exited chan error // receives cmd.Wait's result
}

// readyWriter collects the daemon's stderr and signals its listening line.
type readyWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	once  sync.Once
	ready chan struct{}
}

func (w *readyWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if strings.Contains(w.buf.String(), "listening on") {
		w.once.Do(func() { close(w.ready) })
	}
	return len(p), nil
}

func (w *readyWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// startDaemon starts repro-serve with a private store and returns once it
// answers /healthz. Readiness is its "listening on" log line followed by
// health checks retried without sleeping (the socket is bound within
// microseconds of the line).
func (b *bench) startDaemon(storeDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + port
	d := &daemon{
		cmd:    exec.Command(b.serveBin, "-addr", addr),
		base:   "http://" + addr,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients + 1}},
		log:    &readyWriter{ready: make(chan struct{})},
		exited: make(chan error, 1),
	}
	d.cmd.Env = append(cleanEnv(), config.EnvCacheDir+"="+storeDir)
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting repro-serve: %w", err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	select {
	case <-d.log.ready:
	case err := <-d.exited:
		return nil, fmt.Errorf("repro-serve exited before listening (%v): %s", err, d.log.String())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("repro-serve did not start listening: %s", d.log.String())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("repro-serve not healthy: %v", err)
		}
		runtime.Gosched()
	}
	return d, nil
}

// kill stops the daemon at once and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// stop drains the daemon with SIGTERM and waits for it to exit; a daemon
// that does not exit 0 within 30 seconds is killed and reported.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signalling repro-serve: %w", err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("repro-serve drain: %v: %s", err, d.log.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("repro-serve did not drain within 30s")
	}
}

// do posts one request to /run and decodes the Result. A non-200 status
// (a refusal included) is an error.
func (d *daemon) do(ctx context.Context, q servReq, tenant string, _ int64, _ int) (*pipeline.Result, error) {
	body, err := json.Marshal(q.request())
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set(tenantHeader, tenant)
	resp, err := d.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var res pipeline.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("decoding response (HTTP %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %v", resp.StatusCode, res.Err)
	}
	return &res, nil
}

// statz is the part of the daemon's /statz the benchmark reads.
type statz struct {
	Cache  pipeline.CacheStats `json:"cache"`
	Budget struct {
		Peak int `json:"peak"`
	} `json:"budget"`
	Serve struct {
		Queued  int `json:"queued"`
		Tenants map[string]struct {
			Rejected uint64 `json:"rejected"`
		} `json:"tenants"`
	} `json:"serve"`
}

func (d *daemon) statz() (*statz, error) {
	resp, err := d.client.Get(d.base + "/statz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /statz: %w", err)
	}
	return &st, nil
}

// warmDaemon sends every warm and io program once, compiling it into the
// daemon's memory cache.
func (b *bench) warmDaemon(d *daemon, set serveSet, exp map[string]expected) {
	for _, p := range append(append([]pair{}, set.Warm...), set.IO...) {
		q := servReq{Kind: kindWarm, Base: p, Src: p.Prog.Source}
		res, err := d.do(b.ctx, q, "t0", 0, 0)
		if err == nil {
			err = checkServed(q, res, exp)
		}
		b.op(err)
	}
}

// pollQueued samples the daemon's admission queue every 5 ms until the
// returned stop function is called, which returns the largest depth seen.
func (d *daemon) pollQueued() func() int {
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		peak := 0
		for {
			select {
			case <-stop:
				done <- peak
				return
			case <-time.After(5 * time.Millisecond):
			}
			if s, err := d.statz(); err == nil && s.Serve.Queued > peak {
				peak = s.Serve.Queued
			}
		}
	}()
	return func() int {
		close(stop)
		return <-done
	}
}

// serveLayers sets the serving layer's per-layer metrics of a traced run:
// the round trip of the untraced HTTP rounds (streams, perRound requests per
// client each), the same requests replayed untraced through in-process
// pipeline.Do with the same clients, their difference as the serving
// overhead (HTTP, admission, JSON), the tracing overhead, and /statz
// counters.
func (b *bench) serveLayers(d *daemon, untraced, traced []reqStats, streams []string, perRound, queuedPeak int) error {
	st, err := d.statz()
	if err != nil {
		return err
	}
	b.daemonCache = st.Cache
	var refused uint64
	for _, t := range st.Serve.Tenants {
		refused += t.Rejected
	}
	b.setLayer("serve.refused", float64(refused), "count")
	b.setLayer("serve.queued_peak", float64(queuedPeak), "count")
	b.setLayer("sched.budget_peak", float64(st.Budget.Peak), "count")
	u, t := pooled(untraced), pooled(traced)
	rtt := median(u.lat)
	b.setLayer("serve.rtt_ms", rtt, "ms")
	if len(untraced) > 0 && len(traced) > 0 {
		ur, tr := float64(len(u.lat))/u.wall, float64(len(t.lat))/t.wall
		b.setLayer("trace.overhead_pct", (ur-tr)/ur*100, "%")
	}
	set := newServeSet(b.seed)
	exp, err := b.expectations(set)
	if err != nil {
		return err
	}
	b.tr.setEnabled(false)
	var inproc []reqStats
	for _, stream := range streams {
		settle()
		inproc = append(inproc, b.requestPhase(set, exp, b.inProcess, serveClients, perRound, stream, "pipeline.do"))
	}
	do := median(pooled(inproc).lat)
	b.setLayer("serve.inproc_do_ms", do, "ms")
	b.setLayer("serve.overhead_ms", rtt-do, "ms")
	return nil
}
