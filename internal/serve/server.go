package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pbspgemm"
	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/mmio"
	"pbspgemm/internal/par"
	"pbspgemm/internal/shard"
)

// Server is the HTTP serving layer: an http.Handler wiring the registry,
// result cache, admission controller and flight group around one Engine.
//
// Endpoints:
//
//	POST   /matrices        upload (Matrix Market text or PBSP binary, sniffed)
//	GET    /matrices        list registered matrices
//	GET    /matrices/{id}   one matrix's metadata
//	DELETE /matrices/{id}   unregister
//	POST   /multiply        compute (or fetch) a product
//	POST   /plan            dry-run the planner + admission for a product
//	GET    /metrics         engine, cache, admission, tenant and latency stats
//	GET    /healthz         liveness (the process serves HTTP at all)
//	GET    /readyz          readiness (queue headroom, degradation, peer breakers)
type Server struct {
	cfg     Config
	eng     *pbspgemm.Engine
	reg     *Registry
	cache   *Cache
	adm     *Admission
	flights *flightGroup
	tenants *tenantSet
	lat     *latencySet
	mux     *http.ServeMux

	// coord is the sharded execution path, nil unless Config.Peers is set.
	coord *shard.Coordinator

	// panics counts handler panics contained by the route middleware (500
	// for the hit request only; the server keeps serving). degraded counts
	// products that ran the budgeted tiled retry after their full-speed
	// footprint was inadmissible.
	panics   atomic.Int64
	degraded atomic.Int64

	// execute runs one admitted product; tests swap it to gate in-flight
	// multiplications deterministically. Admission and caching stay in the
	// caller either way.
	execute func(ctx context.Context, spec *productSpec) (*Product, error)
}

// NewServer wires a serving layer over cfg.Engine.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: Config.Engine is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		eng:     cfg.Engine,
		reg:     NewRegistry(cfg.RegistryBudgetBytes),
		cache:   NewCache(cfg.CacheBudgetBytes),
		adm:     NewAdmission(cfg.MemoryCeilingBytes, cfg.MaxQueue, cfg.MaxQueueWait),
		flights: newFlightGroup(),
		tenants: newTenantSet(),
		lat:     newLatencySet(cfg.LatencyWindow),
	}
	if len(cfg.Peers) > 0 {
		backends := []shard.Backend{shard.NewEnginePool("local", cfg.Engine, cfg.ShardLocalWorkers)}
		for _, peer := range cfg.Peers {
			backends = append(backends, NewPeerClient(peer, nil))
		}
		coord, err := shard.New(shard.Config{
			Local:         cfg.Engine,
			Backends:      backends,
			MaxBlockBytes: cfg.ShardBlockBytes,
		})
		if err != nil {
			return nil, err
		}
		s.coord = coord
	}
	s.execute = s.runProduct
	s.mux = http.NewServeMux()
	s.route("POST /matrices", s.handleUpload)
	s.route("GET /matrices", s.handleListMatrices)
	s.route("GET /matrices/{id}", s.handleGetMatrix)
	s.route("DELETE /matrices/{id}", s.handleDeleteMatrix)
	s.route("POST /multiply", s.handleMultiply)
	s.route("POST /plan", s.handlePlan)
	s.route("GET /metrics", s.handleMetrics)
	// Liveness and readiness are mounted raw — no latency tracking, no
	// tenant accounting — so health probes stay answerable even when the
	// serving middleware is the thing that is broken.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	return s, nil
}

// readyResponse is the GET /readyz document. Liveness (/healthz) answers
// "is the process up"; readiness answers "should a load balancer send the
// next product here": 503 once the admission queue is full (every further
// multiply would shed anyway), 200 otherwise, with queue depth, degraded
// mode and the per-peer breaker states for operators either way.
type readyResponse struct {
	Ready bool `json:"ready"`
	// QueueDepth and MaxQueue are the admission queue's occupancy.
	QueueDepth int `json:"queue_depth"`
	MaxQueue   int `json:"max_queue"`
	// DegradedMode reports whether the budgeted tiled retry is enabled
	// (Config.DegradedBudgetBytes > 0) — a node in degraded mode keeps
	// absorbing oversized products slower instead of shedding them.
	DegradedMode bool `json:"degraded_mode"`
	// Peers maps each shard backend to its circuit-breaker state; empty on
	// single-node deployments.
	Peers map[string]shard.BreakerStatus `json:"peers,omitempty"`
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	adm := s.adm.Stats()
	resp := readyResponse{
		QueueDepth:   adm.Waiting,
		MaxQueue:     s.cfg.MaxQueue,
		DegradedMode: s.cfg.DegradedBudgetBytes > 0,
	}
	resp.Ready = adm.Waiting < s.cfg.MaxQueue
	if s.coord != nil {
		resp.Peers = s.coord.Status().Peers
	}
	w.Header().Set("Content-Type", "application/json")
	if !resp.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(resp)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry exposes the matrix registry (for embedding programs and tests).
func (s *Server) Registry() *Registry { return s.reg }

// Cache exposes the result cache.
func (s *Server) Cache() *Cache { return s.cache }

// Admission exposes the admission controller.
func (s *Server) Admission() *Admission { return s.adm }

// route mounts h under pattern with the latency/tenant/recovery middleware;
// the pattern doubles as the endpoint label in /metrics.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.tenants.update(r.Header.Get("X-Tenant"), func(t *TenantStats) { t.Requests++ })
		defer func() {
			// Contain a handler panic to its own request: 500 for the hit
			// caller (best-effort — the body may be partially written), every
			// other in-flight and future request keeps serving. Kernel panics
			// never reach here (the engine converts them to *par.PanicError
			// returns); this is the last line for serving-layer bugs.
			if v := recover(); v != nil {
				s.panics.Add(1)
				httpError(w, http.StatusInternalServerError,
					fmt.Errorf("serve: internal panic in %s: %v", pattern, v))
			}
			s.lat.observe(pattern, time.Since(start))
		}()
		h(w, r)
	})
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// --- uploads ---

// uploadResponse is the POST /matrices reply.
type uploadResponse struct {
	MatrixInfo
	// Existed reports content-hash dedup: the exact matrix was already
	// registered and no new memory was spent.
	Existed bool `json:"existed"`
}

// handleUpload ingests one matrix, Matrix Market text or PBSP binary
// (sniffed from the first bytes), bounded by MaxUploadBytes either way: a
// binary header claiming more is a 413 before anything is allocated for it,
// and a body that ends before its header's payload a 400.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	m, err := mmio.Read(r.Body, s.cfg.MaxUploadBytes)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, mmio.ErrTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, err)
		return
	}
	info, existed, err := s.reg.Put(m, r.URL.Query().Get("name"))
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrRegistryFull) {
			status = http.StatusInsufficientStorage
		}
		httpError(w, status, err)
		return
	}
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(uploadResponse{MatrixInfo: info, Existed: existed})
}

func (s *Server) handleListMatrices(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"matrices": s.reg.List()})
}

func (s *Server) handleGetMatrix(w http.ResponseWriter, r *http.Request) {
	_, info, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(info)
}

func (s *Server) handleDeleteMatrix(w http.ResponseWriter, r *http.Request) {
	if !s.reg.Delete(r.PathValue("id")) {
		httpError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- multiply ---

// multiplyRequest is the POST /multiply (and /plan) body.
type multiplyRequest struct {
	// A, B are registry ids of the factors.
	A string `json:"a"`
	B string `json:"b"`
	// Semiring: arithmetic (default), boolean, minplus, maxtimes.
	Semiring string `json:"semiring,omitempty"`
	// Algorithm: auto (default), pb, heap, hash, hashvec, spa, esc. Every
	// semiring and mask has auto (PB or the row kernel, by predicted time), pb
	// and spa (the row kernel); the column kernels serve unmasked arithmetic
	// only, and any other request naming one is a 400. A plain mask always runs
	// the row kernel; a complement mask runs the product this names and drops
	// the mask's positions from it.
	Algorithm string `json:"algorithm,omitempty"`
	// Mask is an optional registry id applied as C⟨M⟩ (arithmetic only);
	// Complement flips it to ⟨¬M⟩.
	Mask       string `json:"mask,omitempty"`
	Complement bool   `json:"complement,omitempty"`
	// Threads and MemoryBudgetBytes override the engine defaults per call.
	Threads           int   `json:"threads,omitempty"`
	MemoryBudgetBytes int64 `json:"memory_budget_bytes,omitempty"`
	// Output: metadata (default), matrixmarket, binary.
	Output string `json:"output,omitempty"`
}

// productSpec is a resolved, validated multiply request.
type productSpec struct {
	req        multiplyRequest
	a, b, mask *pbspgemm.CSR
	algorithm  pbspgemm.Algorithm
	semiring   string
	// plan is admission's Engine.Plan of this product (of its budgeted form
	// when degraded), handed to an arithmetic Auto run without a plain mask so
	// that it does not plan again.
	plan *pbspgemm.Plan
}

// key is the full request identity the cache and flight group share: both
// inputs' content hashes, the algebra, the mask, and every option that can
// change the bytes of the result. Neither a memory budget nor a thread count
// can. A budget cuts the bins of a PB run into groups and never a bin's fold,
// Auto under one picks PB, whose bytes SPA's equal, and the column kernels
// ignore it — so a budgeted request hits the unbudgeted one's entry, as the
// degraded rung's product already does. PB and SPA fold every entry in
// ascending k at any thread count, and Heap, Hash and HashVec give one entry
// to one worker (pbspgemm's TestAutoBytesDoNotDependOnPick and
// TestColumnKernelBytesDoNotDependOnThreads).
func (sp *productSpec) key() string {
	return strings.Join([]string{
		sp.req.A, sp.req.B, sp.semiring, sp.req.Mask,
		strconv.FormatBool(sp.req.Complement), sp.algorithm.String(),
	}, "|")
}

// engineOptions are the per-call overrides shared by planning and every
// execution path; with the mask among them Engine.Plan prices a plain mask=
// request as the mask-shaped row kernel it runs, not as an expansion, and
// with the algorithm a pinned one as that kernel, not as Auto's pick.
func (sp *productSpec) engineOptions() []pbspgemm.Option {
	mask := pbspgemm.WithMask(sp.mask) // nil: unmasked
	if sp.req.Complement {
		mask = pbspgemm.WithComplementMask(sp.mask)
	}
	return []pbspgemm.Option{
		pbspgemm.WithThreads(sp.req.Threads),
		pbspgemm.WithMemoryBudget(sp.req.MemoryBudgetBytes),
		pbspgemm.WithAlgorithm(sp.algorithm),
		mask,
	}
}

// resolveSpec validates the request against the registry.
func (s *Server) resolveSpec(req multiplyRequest) (*productSpec, int, error) {
	sp := &productSpec{req: req, semiring: req.Semiring, algorithm: pbspgemm.Auto}
	if sp.semiring == "" {
		sp.semiring = "arithmetic"
	}
	switch sp.semiring {
	case "arithmetic", "boolean", "minplus", "maxtimes":
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("serve: unknown semiring %q", req.Semiring)
	}
	if req.Algorithm != "" {
		alg, err := pbspgemm.ParseAlgorithm(req.Algorithm)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		sp.algorithm = alg
	}
	switch sp.algorithm {
	case pbspgemm.Auto, pbspgemm.PB, pbspgemm.SPA:
	default:
		if sp.semiring != "arithmetic" || req.Mask != "" {
			return nil, http.StatusBadRequest, fmt.Errorf("serve: algorithm %q has no semiring or masked form", req.Algorithm)
		}
	}
	switch req.Output {
	case "", "metadata", "matrixmarket", "binary":
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("serve: unknown output %q", req.Output)
	}
	if req.Threads < 0 || req.MemoryBudgetBytes < 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("serve: negative threads or memory budget")
	}
	var ok bool
	if sp.a, _, ok = s.reg.Get(req.A); !ok {
		return nil, http.StatusNotFound, fmt.Errorf("%w: a=%q", ErrNotFound, req.A)
	}
	if sp.b, _, ok = s.reg.Get(req.B); !ok {
		return nil, http.StatusNotFound, fmt.Errorf("%w: b=%q", ErrNotFound, req.B)
	}
	if req.Mask != "" {
		if sp.semiring != "arithmetic" {
			return nil, http.StatusBadRequest,
				fmt.Errorf("serve: masks are supported on the arithmetic semiring only")
		}
		if sp.mask, _, ok = s.reg.Get(req.Mask); !ok {
			return nil, http.StatusNotFound, fmt.Errorf("%w: mask=%q", ErrNotFound, req.Mask)
		}
	} else if req.Complement {
		return nil, http.StatusBadRequest, fmt.Errorf("serve: complement without a mask")
	}
	if sp.a.NumCols != sp.b.NumRows {
		return nil, http.StatusBadRequest, fmt.Errorf(
			"serve: inner dimensions disagree (%dx%d)·(%dx%d): %w",
			sp.a.NumRows, sp.a.NumCols, sp.b.NumRows, sp.b.NumCols, matrix.ErrShape)
	}
	if sp.mask != nil && (sp.mask.NumRows != sp.a.NumRows || sp.mask.NumCols != sp.b.NumCols) {
		return nil, http.StatusBadRequest, fmt.Errorf(
			"serve: mask is %dx%d, product is %dx%d: %w",
			sp.mask.NumRows, sp.mask.NumCols, sp.a.NumRows, sp.b.NumCols, matrix.ErrShape)
	}
	return sp, 0, nil
}

// multiplyResponse is the POST /multiply metadata reply. With
// output=matrixmarket|binary the same fields travel as X-Pbspgemm-* headers
// ahead of the matrix body.
type multiplyResponse struct {
	A         string  `json:"a"`
	B         string  `json:"b"`
	Semiring  string  `json:"semiring"`
	Algorithm string  `json:"algorithm"`
	Rows      int32   `json:"rows"`
	Cols      int32   `json:"cols"`
	NNZ       int64   `json:"nnz"`
	Flops     int64   `json:"flops"`
	CF        float64 `json:"cf"`
	// ElapsedNs is the original compute time (a cache hit reports the time
	// the cached run took, not the lookup).
	ElapsedNs int64 `json:"elapsed_ns"`
	// Cached reports a result-cache hit: the Engine never saw this request.
	Cached bool `json:"cached"`
	// Coalesced reports singleflight batching: this request waited on an
	// identical in-flight multiply instead of starting its own.
	Coalesced bool `json:"coalesced"`
	// Degraded reports graceful degradation: the full-speed footprint was
	// inadmissible, so the product ran under Config.DegradedBudgetBytes
	// (tiled, slower, same result) instead of shedding with 429.
	Degraded bool `json:"degraded"`
}

func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get("X-Tenant")
	var req multiplyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	sp, status, err := s.resolveSpec(req)
	if err != nil {
		s.tenants.update(tenant, func(t *TenantStats) { t.Errors++ })
		httpError(w, status, err)
		return
	}
	if faultinject.Enabled {
		faultinject.Fire(faultinject.SiteServeHandler, -1)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	p, how, err := s.product(ctx, sp)
	if err != nil {
		s.failMultiply(w, tenant, err)
		return
	}
	s.tenants.update(tenant, func(t *TenantStats) {
		t.Multiplies++
		t.Flops += p.Flops
		t.NNZProduced += p.C.NNZ()
		t.Busy += p.Elapsed
		switch how {
		case viaCache:
			t.CacheHits++
		case viaFlight:
			t.Coalesced++
		}
	})
	resp := multiplyResponse{
		A: sp.req.A, B: sp.req.B, Semiring: sp.semiring, Algorithm: p.Algorithm,
		Rows: p.C.NumRows, Cols: p.C.NumCols, NNZ: p.C.NNZ(),
		Flops: p.Flops, CF: p.CF, ElapsedNs: int64(p.Elapsed),
		Cached: how == viaCache, Coalesced: how == viaFlight, Degraded: p.Degraded,
	}
	switch sp.req.Output {
	case "", "metadata":
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	case "matrixmarket":
		s.writeResultHeaders(w, &resp)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = mmio.WriteMatrixMarket(w, p.C)
	case "binary":
		s.writeResultHeaders(w, &resp)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(mmio.BinarySize(p.C), 10))
		_ = mmio.WriteBinary(w, p.C)
	}
}

// writeResultHeaders carries the metadata of a matrix-body response.
func (s *Server) writeResultHeaders(w http.ResponseWriter, resp *multiplyResponse) {
	h := w.Header()
	h.Set("X-Pbspgemm-Algorithm", resp.Algorithm)
	h.Set("X-Pbspgemm-Nnz", strconv.FormatInt(resp.NNZ, 10))
	h.Set("X-Pbspgemm-Flops", strconv.FormatInt(resp.Flops, 10))
	h.Set("X-Pbspgemm-Cached", strconv.FormatBool(resp.Cached))
	h.Set("X-Pbspgemm-Coalesced", strconv.FormatBool(resp.Coalesced))
	h.Set("X-Pbspgemm-Degraded", strconv.FormatBool(resp.Degraded))
}

// failMultiply maps a product error to its HTTP shape and tenant counters.
func (s *Server) failMultiply(w http.ResponseWriter, tenant string, err error) {
	var shed *ShedError
	var pe *par.PanicError
	switch {
	case errors.As(err, &pe):
		// A contained kernel panic: this request's multiply died, the engine
		// and every other tenant keep serving.
		s.tenants.update(tenant, func(t *TenantStats) { t.Errors++ })
		httpError(w, http.StatusInternalServerError, err)
	case errors.As(err, &shed):
		s.tenants.update(tenant, func(t *TenantStats) { t.Shed++ })
		secs := int64(shed.RetryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.tenants.update(tenant, func(t *TenantStats) { t.Errors++ })
		httpError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		// Client went away; the response is moot but complete the exchange.
		s.tenants.update(tenant, func(t *TenantStats) { t.Errors++ })
		httpError(w, 499, err)
	default:
		s.tenants.update(tenant, func(t *TenantStats) { t.Errors++ })
		httpError(w, http.StatusInternalServerError, err)
	}
}

// servedVia says how a product reached its requester.
type servedVia int

const (
	viaEngine servedVia = iota // this request ran the multiply
	viaCache                   // result cache hit
	viaFlight                  // coalesced onto another request's multiply
)

// product serves one resolved request: result cache, then singleflight
// (whose leader passes admission and runs the Engine), caching the product
// for the next identical request. A footprint-inadmissible request walks the
// degradation ladder before shedding: full-speed run → budgeted tiled retry
// (when Config.DegradedBudgetBytes allows) → 429.
func (s *Server) product(ctx context.Context, sp *productSpec) (*Product, servedVia, error) {
	key := sp.key()
	if p, ok := s.cache.Get(key); ok {
		return p, viaCache, nil
	}
	p, shared, err := s.flights.do(ctx, key, func(fctx context.Context) (*Product, error) {
		// The flight context is detached from the leader's request (a short
		// leader deadline must not poison the followers' result) but still
		// bounded: a fresh RequestTimeout, plus cancellation when the last
		// waiter leaves.
		fctx, fcancel := context.WithTimeout(fctx, s.cfg.RequestTimeout)
		defer fcancel()
		run, degraded := *sp, false
		var err error
		if run.plan, err = s.eng.Plan(fctx, sp.a, sp.b, sp.engineOptions()...); err != nil {
			return nil, err
		}
		if err := s.adm.Acquire(fctx, run.plan.PredictedFootprintBytes); err != nil {
			deg, ok := s.degradedSpec(fctx, sp, err)
			// Even the tiled footprint may not be admitted: then report the
			// original full-run shed (still a 429 + Retry-After).
			if !ok || s.adm.Acquire(fctx, deg.plan.PredictedFootprintBytes) != nil {
				return nil, err
			}
			run, degraded = *deg, true
			s.degraded.Add(1)
		}
		defer s.adm.Release(run.plan.PredictedFootprintBytes)
		p, err := s.execute(fctx, &run)
		if err != nil {
			return nil, err
		}
		p.Degraded = degraded
		// Cached under the original key: the tiled run folds the same
		// tuples in the same order, so the bytes of C are identical.
		s.cache.Add(key, p)
		return p, nil
	})
	if err != nil {
		return nil, viaEngine, err
	}
	via := viaEngine
	if shared {
		via = viaFlight
	}
	return p, via, nil
}

// degradedSpec is the degradation ladder's middle rung: when the full-speed
// request was shed because its predicted footprint alone exceeds the
// ceiling, re-plan it under the configured degraded memory budget — the
// budgeted engine cuts the bins into groups, bounding the working set, and
// returns the full-speed product's bytes — and offer that for admission
// instead. Returns ok=false when degradation is disabled, the request pinned
// its own budget, the shed had a different reason (queue pressure is not
// helped by shrinking one request), or even the budgeted footprint exceeds
// the ceiling.
func (s *Server) degradedSpec(ctx context.Context, sp *productSpec, shedErr error) (*productSpec, bool) {
	var shed *ShedError
	if s.cfg.DegradedBudgetBytes <= 0 || sp.req.MemoryBudgetBytes > 0 ||
		!errors.As(shedErr, &shed) || shed.Reason != ReasonFootprint {
		return nil, false
	}
	deg := *sp
	deg.req.MemoryBudgetBytes = s.cfg.DegradedBudgetBytes
	var err error
	if deg.plan, err = s.eng.Plan(ctx, deg.a, deg.b, deg.engineOptions()...); err != nil ||
		deg.plan.PredictedFootprintBytes > shed.CeilingBytes {
		return nil, false
	}
	return &deg, true
}

// runProduct executes one admitted product on the Engine (or, when peers
// are configured and the request is shardable, fans it out through the
// coordinator). This is the only place the serving layer multiplies.
func (s *Server) runProduct(ctx context.Context, sp *productSpec) (*Product, error) {
	opts := sp.engineOptions()
	switch {
	case s.shardable(sp):
		res, err := s.coord.Multiply(ctx, sp.a, sp.b)
		if err != nil {
			return nil, err
		}
		return productOf(res.C, "PB-SpGEMM(sharded "+res.Grid.String()+")", res.Flops, res.Elapsed), nil
	case sp.semiring == "arithmetic" && (sp.mask == nil || sp.req.Complement):
		res, err := s.eng.Multiply(ctx, sp.a, sp.b, append(opts, pbspgemm.WithPlan(sp.plan))...)
		if err != nil {
			return nil, err
		}
		return productOf(res.C, res.Algorithm.String(), res.Flops, res.Elapsed), nil
	case sp.semiring == "arithmetic":
		start := time.Now()
		c, err := s.eng.MultiplyMasked(ctx, sp.a, sp.b, nil, opts...) // opts carry the mask
		if err != nil {
			return nil, err
		}
		return productOf(c, "MaskedRows", pbspgemm.Flops(sp.a, sp.b), time.Since(start)), nil
	case sp.semiring == "boolean":
		start := time.Now()
		var p pbspgemm.SemiringPlan
		ac := pbspgemm.MatrixOf(sp.a, func(float64) bool { return true }).ToCSC()
		br := pbspgemm.MatrixOf(sp.b, func(float64) bool { return true })
		g, err := pbspgemm.EngineMultiplyOver(s.eng, ctx, pbspgemm.Boolean(), ac, br, sp.overOptions(&p)...)
		if err != nil {
			return nil, err
		}
		return productOf(boolCSR(g), overName(&p, sp.semiring), pbspgemm.Flops(sp.a, sp.b), time.Since(start)), nil
	default: // minplus, maxtimes: float64-valued tropical algebras
		sr := pbspgemm.MinPlus()
		if sp.semiring == "maxtimes" {
			sr = pbspgemm.MaxTimes()
		}
		start := time.Now()
		var p pbspgemm.SemiringPlan
		ac := pbspgemm.Float64Matrix(sp.a).ToCSC()
		g, err := pbspgemm.EngineMultiplyOver(s.eng, ctx, sr, ac, pbspgemm.Float64Matrix(sp.b), sp.overOptions(&p)...)
		if err != nil {
			return nil, err
		}
		return productOf(pbspgemm.Float64CSR(g), overName(&p, sp.semiring), pbspgemm.Flops(sp.a, sp.b), time.Since(start)), nil
	}
}

// overOptions are an unmasked semiring request's options: the per-call
// overrides, its algorithm, and a plan that says which kernel ran.
func (sp *productSpec) overOptions(p *pbspgemm.SemiringPlan) []pbspgemm.Option {
	return append(sp.engineOptions(), pbspgemm.WithSemiringPlan(p))
}

// overName names the kernel a semiring product ran, with its algebra.
func overName(p *pbspgemm.SemiringPlan, semiring string) string {
	alg := pbspgemm.PB
	if p.Rows {
		alg = pbspgemm.SPA
	}
	return alg.String() + "(" + semiring + ")"
}

// shardable reports whether sp may run on the shard coordinator: peers are
// configured, the product is unmasked arithmetic under the auto or pb
// algorithm (the coordinator pins PB — other kernels fold duplicates in a
// different order and would break cross-backend bit-identity), and the
// request carries no per-call overrides (threads and memory budget are
// engine-local knobs). Every block a coordinator sends carries its memory
// budget when it has one, so a block that reaches a peer with peers of its
// own runs there and is not sharded again.
func (s *Server) shardable(sp *productSpec) bool {
	return s.coord != nil &&
		sp.semiring == "arithmetic" && sp.mask == nil &&
		(sp.algorithm == pbspgemm.Auto || sp.algorithm == pbspgemm.PB) &&
		sp.req.Threads == 0 && sp.req.MemoryBudgetBytes == 0
}

// productOf assembles a Product from a finished CSR result. Flops here is
// the symbolic multiplication count (the paths without a Result report it).
func productOf(c *pbspgemm.CSR, algorithm string, flops int64, elapsed time.Duration) *Product {
	p := &Product{C: c, Algorithm: algorithm, Flops: flops, Elapsed: elapsed, Bytes: csrBytes(c)}
	if nnz := c.NNZ(); nnz > 0 {
		p.CF = float64(flops) / float64(nnz)
	}
	return p
}

// boolCSR lowers a Boolean product to the float64 CSR interchange format
// (stored entries become 1.0), reusing the structure arrays.
func boolCSR(g *pbspgemm.Matrix[bool]) *pbspgemm.CSR {
	val := make([]float64, len(g.Val))
	for i := range val {
		val[i] = 1
	}
	return &pbspgemm.CSR{
		NumRows: g.NumRows, NumCols: g.NumCols,
		RowPtr: g.RowPtr, ColIdx: g.ColIdx, Val: val,
	}
}

// --- plan (dry run) ---

// planResponse is the POST /plan reply: the planner's decision (Auto's pick,
// or the kernel the request pins) and the admission verdict the same request
// would receive right now, without running anything.
type planResponse struct {
	Chosen                  string  `json:"chosen"`
	Flops                   int64   `json:"flops"`
	EstNNZC                 int64   `json:"est_nnz_c"`
	CF                      float64 `json:"cf"`
	PredictedFootprintBytes int64   `json:"predicted_footprint_bytes"`
	PredictedOuterGFLOPS    float64 `json:"predicted_outer_gflops"`
	PredictedColumnGFLOPS   float64 `json:"predicted_column_gflops"`
	// Admissible reports whether the footprint fits the ceiling at all;
	// WouldQueue whether it would have to wait behind current in-flight work.
	Admissible bool `json:"admissible"`
	WouldQueue bool `json:"would_queue"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req multiplyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	sp, status, err := s.resolveSpec(req)
	if err != nil {
		httpError(w, status, err)
		return
	}
	plan, err := s.eng.Plan(r.Context(), sp.a, sp.b, sp.engineOptions()...)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	adm := s.adm.Stats()
	resp := planResponse{
		Chosen: plan.Chosen.String(), Flops: plan.Flops, EstNNZC: plan.EstNNZC, CF: plan.CF,
		PredictedFootprintBytes: plan.PredictedFootprintBytes,
		PredictedOuterGFLOPS:    plan.PredictedOuterGFLOPS,
		PredictedColumnGFLOPS:   plan.PredictedColumnGFLOPS,
		Admissible:              adm.CeilingBytes <= 0 || plan.PredictedFootprintBytes <= adm.CeilingBytes,
	}
	resp.WouldQueue = resp.Admissible && adm.CeilingBytes > 0 &&
		adm.InflightBytes+plan.PredictedFootprintBytes > adm.CeilingBytes
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// --- metrics ---

// MetricsSnapshot is the GET /metrics document.
type MetricsSnapshot struct {
	Engine    EngineSnapshot `json:"engine"`
	Cache     CacheStats     `json:"cache"`
	Admission AdmissionStats `json:"admission"`
	Registry  RegistryStats  `json:"registry"`
	Coalesced int64          `json:"coalesced_requests"`
	// HandlerPanics counts panics contained by the route middleware (each
	// cost its own request a 500 and nothing else).
	HandlerPanics int64 `json:"handler_panics"`
	// Degraded counts products served through the budgeted tiled retry after
	// their full-speed footprint was inadmissible.
	Degraded int64                   `json:"degraded_requests"`
	Tenants  map[string]TenantStats  `json:"tenants"`
	Latency  map[string]LatencyStats `json:"latency"`
	// Shard is the coordinator's counters and per-peer breaker states;
	// absent on single-node deployments.
	Shard *shard.Status `json:"shard,omitempty"`
}

// EngineSnapshot is EngineMetrics with JSON-friendly algorithm names.
type EngineSnapshot struct {
	Calls       int64                       `json:"calls"`
	Failures    int64                       `json:"failures"`
	Panics      int64                       `json:"panics"`
	Flops       int64                       `json:"flops"`
	BytesMoved  int64                       `json:"bytes_moved"`
	NNZProduced int64                       `json:"nnz_produced"`
	BusyNs      int64                       `json:"busy_ns"`
	ByAlgorithm map[string]AlgorithmMetrics `json:"by_algorithm,omitempty"`
}

// AlgorithmMetrics mirrors pbspgemm.AlgorithmMetrics for JSON.
type AlgorithmMetrics struct {
	Calls       int64 `json:"calls"`
	Failures    int64 `json:"failures"`
	Flops       int64 `json:"flops"`
	NNZProduced int64 `json:"nnz_produced"`
	BusyNs      int64 `json:"busy_ns"`
	AutoChosen  int64 `json:"auto_chosen"`
}

// Metrics assembles the full serving snapshot (also used by tests directly,
// skipping HTTP).
func (s *Server) Metrics() MetricsSnapshot {
	em := s.eng.Metrics()
	es := EngineSnapshot{
		Calls: em.Calls, Failures: em.Failures, Panics: em.Panics, Flops: em.Flops,
		BytesMoved: em.BytesMoved, NNZProduced: em.NNZProduced, BusyNs: int64(em.Busy),
	}
	if len(em.ByAlgorithm) > 0 {
		es.ByAlgorithm = make(map[string]AlgorithmMetrics, len(em.ByAlgorithm))
		for alg, am := range em.ByAlgorithm {
			es.ByAlgorithm[alg.String()] = AlgorithmMetrics{
				Calls: am.Calls, Failures: am.Failures, Flops: am.Flops,
				NNZProduced: am.NNZProduced, BusyNs: int64(am.Busy), AutoChosen: am.AutoChosen,
			}
		}
	}
	snap := MetricsSnapshot{
		Engine:        es,
		Cache:         s.cache.Stats(),
		Admission:     s.adm.Stats(),
		Registry:      s.reg.Stats(),
		Coalesced:     s.flights.coalescedTotal(),
		HandlerPanics: s.panics.Load(),
		Degraded:      s.degraded.Load(),
		Tenants:       s.tenants.snapshot(),
		Latency:       s.lat.snapshot(),
	}
	if s.coord != nil {
		st := s.coord.Status()
		snap.Shard = &st
	}
	return snap
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Metrics())
}
