package main

// HTTP layer of the repro-serve daemon. Three endpoints:
//
//	POST /run      one pipeline.Request (JSON object) → one pipeline.Result;
//	               or a batch (JSON array) → NDJSON rows streamed as each
//	               run completes, each row tagged with its array index.
//	GET  /healthz  200 "ok" while serving, 503 "draining" during shutdown.
//	GET  /statz    JSON snapshot: build-cache counters and residency,
//	               scheduler budget, fault-injection counters, per-tenant
//	               admission state.
//
// Identical concurrent requests batch into one compile for free: the verbs
// go through the pipeline's content-addressed singleflight cache, so the
// daemon adds admission and fairness, not another cache.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/pipeline"
	"repro/internal/sched"
)

// tenantHeader names the request's tenant for weighted fair admission;
// absent means the shared "anon" tenant.
const tenantHeader = "X-Repro-Tenant"

// maxBodyBytes bounds a /run body; modules are source text, so 8 MiB is
// generous.
const maxBodyBytes = 8 << 20

type server struct {
	adm      *admitter
	draining atomic.Bool
	served   atomic.Uint64
	inflight atomic.Int64
}

func newServer(slots, queueCap int, weights map[string]int) *server {
	return &server{adm: newAdmitter(slots, queueCap, weights)}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statz", s.handleStatz)
	// The shared artifact cache: workers pointed at $REPRO_REMOTE_CACHE
	// fetch and publish compiled modules here, namespaced by their
	// compiler fingerprint. Served over the daemon's own store location.
	artifacts := pipeline.ArtifactHandler()
	mux.Handle("/artifact/", artifacts)
	mux.Handle("GET /artifacts", artifacts)
	return mux
}

// drain flips the server into shutdown mode: /healthz turns 503 so load
// balancers stop routing here, and new /run requests are rejected while
// in-flight ones run to completion.
func (s *server) drain() {
	s.draining.Store(true)
	s.adm.drain()
}

// writeError sends a pipeline-shaped error Result with the given HTTP
// status, so clients parse exactly one response schema.
func writeError(w http.ResponseWriter, status int, class pipeline.ErrClass, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	res := &pipeline.Result{ExitCode: -1, Err: &pipeline.ErrorInfo{Class: class, Message: fmt.Sprintf(format, args...)}}
	json.NewEncoder(w).Encode(res)
}

// statusFor maps an admission error to its HTTP status.
func admissionStatus(err error) (int, pipeline.ErrClass) {
	switch err {
	case errQueueFull:
		return http.StatusTooManyRequests, pipeline.ClassInternal
	case errDraining:
		return http.StatusServiceUnavailable, pipeline.ClassCanceled
	default:
		return http.StatusServiceUnavailable, pipeline.ClassCanceled
	}
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, pipeline.ClassCanceled, "server draining")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, pipeline.ClassBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, pipeline.ClassBadRequest, "body over %d bytes", maxBodyBytes)
		return
	}
	tenant := r.Header.Get(tenantHeader)
	if tenant == "" {
		tenant = "anon"
	}
	if isJSONArray(body) {
		s.runBatch(w, r, tenant, body)
		return
	}
	var req pipeline.Request
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, pipeline.ClassBadRequest, "decoding request: %v", err)
		return
	}
	res, err := s.run(r.Context(), tenant, &req)
	if err != nil {
		status, class := admissionStatus(err)
		writeError(w, status, class, "%v", err)
		return
	}
	// Run-level failures (compile, timeout, fault, runtime) are successful
	// *service* responses: the Result carries the class. Only a request
	// the pipeline rejected outright is the client's error.
	status := http.StatusOK
	if res.Err != nil && res.Err.Class == pipeline.ClassBadRequest {
		status = http.StatusBadRequest
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(res)
}

// run admits one request for tenant, runs it, and converts the outcome to
// a serializable Result. The error is the admission refusal; a run that
// fails comes back as a Result carrying its error class.
func (s *server) run(ctx context.Context, tenant string, req *pipeline.Request) (*pipeline.Result, error) {
	if err := s.adm.admit(ctx, tenant); err != nil {
		return nil, err
	}
	defer s.adm.release(tenant)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	defer s.served.Add(1)
	res, err := pipeline.Do(ctx, req)
	if err != nil {
		res = pipeline.ResultForError(err)
	}
	return res, nil
}

// batchRow is one NDJSON line of a batch response: the array index of the
// request it answers plus its Result. Rows stream in completion order.
type batchRow struct {
	Index  int              `json:"index"`
	Result *pipeline.Result `json:"result"`
}

// runBatch fans a JSON array of requests out through admission (each
// element is admitted separately, so a big batch cannot monopolize slots)
// and streams one NDJSON row per element as it completes.
func (s *server) runBatch(w http.ResponseWriter, r *http.Request, tenant string, body []byte) {
	var reqs []*pipeline.Request
	if err := json.Unmarshal(body, &reqs); err != nil {
		writeError(w, http.StatusBadRequest, pipeline.ClassBadRequest, "decoding batch: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var mu sync.Mutex
	enc := json.NewEncoder(w)
	emit := func(i int, res *pipeline.Result) {
		mu.Lock()
		defer mu.Unlock()
		enc.Encode(batchRow{Index: i, Result: res})
		if flusher != nil {
			flusher.Flush()
		}
	}
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if req == nil {
				emit(i, pipeline.ResultForError(fmt.Errorf("null request")))
				return
			}
			res, err := s.run(r.Context(), tenant, req)
			if err != nil {
				res = pipeline.ResultForError(err)
			}
			emit(i, res)
		}()
	}
	wg.Wait()
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// statz is the /statz response shape.
type statz struct {
	Cache  pipeline.CacheStats       `json:"cache"`
	Build  pipeline.BuildInfo        `json:"build"`
	Budget budgetStat                `json:"budget"`
	Faults map[string]fault.SiteStat `json:"faults,omitempty"`
	Serve  serveStat                 `json:"serve"`
	Remote *pipeline.RemoteInfo      `json:"remote,omitempty"`
}

type budgetStat struct {
	Capacity int `json:"capacity"`
	InUse    int `json:"in_use"`
	Peak     int `json:"peak"`
}

type serveStat struct {
	Served   uint64                `json:"served"`
	Inflight int64                 `json:"inflight"`
	Queued   int                   `json:"queued"`
	Draining bool                  `json:"draining"`
	Tenants  map[string]tenantStat `json:"tenants"`
}

func (s *server) handleStatz(w http.ResponseWriter, r *http.Request) {
	b := sched.Shared()
	st := statz{
		Cache: pipeline.Stats(),
		Build: pipeline.BuildState(),
		Budget: budgetStat{
			Capacity: b.Capacity(),
			InUse:    b.InUse(),
			Peak:     b.Peak(),
		},
	}
	if fault.Enabled() {
		st.Faults = fault.Snapshot()
	}
	if info, ok := pipeline.RemoteState(); ok {
		st.Remote = &info
	}
	tenants, queued, draining := s.adm.snapshot()
	st.Serve = serveStat{
		Served:   s.served.Load(),
		Inflight: s.inflight.Load(),
		Queued:   queued,
		Draining: draining,
		Tenants:  tenants,
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// isJSONArray reports whether the body's first non-space byte opens a JSON
// array (a batch request).
func isJSONArray(b []byte) bool {
	for _, c := range b {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '[':
			return true
		default:
			return false
		}
	}
	return false
}
