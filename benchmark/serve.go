package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"pbspgemm"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/mmio"
	"pbspgemm/internal/serve"
)

// Request classes of the serve_mix stream.
const (
	classHit    = iota // product of a hot pair, metadata reply: a cache hit
	classCold          // product of a pair never asked before: plan, admission, kernel, cache insert, eviction
	classBinary        // product of a hot pair with output=binary: a 3 MB body
	classUpload        // binary upload of a matrix the registry has not seen
	numClasses
)

var className = [numClasses]string{"hit", "cold", "binary", "upload"}

const (
	serveMatrices = 40
	serveHotPairs = 8
	// serveProbePairs are cold pairs kept out of the stream for the
	// in-process handler probes of the traced run.
	serveProbePairs = 20
	serveStreamLen  = 6000
	// serveRound is the number of requests in one timed operation: one round
	// of the mix (six hits, two cold products, one binary body, one upload).
	serveRound      = 10
	serveCacheBytes = 64 << 20
)

// request is one entry of the stream. A and B index the uploaded matrices;
// an upload carries the value that makes its matrix new.
type request struct {
	Class int `json:"class"`
	A     int `json:"a"`
	B     int `json:"b"`
	Fresh int `json:"fresh,omitempty"`
}

// buildStream draws the hot pairs, the probe pairs and the request stream
// from seed. Every cold request names an ordered pair no other request names.
func buildStream(seed uint64, matrices, length int) (hot, probes [][2]int, stream []request) {
	r := rand.New(rand.NewPCG(seed, 0)) // the stream depends on the seed and on nothing else
	pairs := make([][2]int, 0, matrices*matrices)
	for a := 0; a < matrices; a++ {
		for b := 0; b < matrices; b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	for i := len(pairs) - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		pairs[i], pairs[j] = pairs[j], pairs[i]
	}
	hot, pairs = pairs[:serveHotPairs], pairs[serveHotPairs:]
	probes, pairs = pairs[:serveProbePairs], pairs[serveProbePairs:]
	// The mix is exact, not sampled: every round of ten requests holds six
	// hits, two cold products, one binary body and one upload, in shuffled
	// order, so two seeds differ in order and pairs but not in the work asked
	// for, and every round asks for the same work.
	block := [serveRound]int{classHit, classHit, classHit, classHit, classHit, classHit, classCold, classCold, classBinary, classUpload}
	fresh := 0
	for len(stream) < length && len(pairs) >= 2 {
		for i := len(block) - 1; i > 0; i-- {
			j := r.IntN(i + 1)
			block[i], block[j] = block[j], block[i]
		}
		for _, class := range block {
			req := request{Class: class}
			switch class {
			case classCold:
				req.A, req.B, pairs = pairs[0][0], pairs[0][1], pairs[1:]
			case classUpload:
				fresh++
				req.Fresh = fresh
			default:
				p := hot[r.IntN(len(hot))]
				req.A, req.B = p[0], p[1]
			}
			stream = append(stream, req)
		}
	}
	return hot, probes, stream
}

type serveRun struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client

	mats   []*pbspgemm.CSR
	ids    []string
	stream []request
	hot    [][2]int
	probes [][2]int
	// wantNNZ and wantFlops are the oracle per ordered pair a*len(mats)+b;
	// hotRef holds the full reference product of each hot pair.
	wantNNZ, wantFlops []int64
	hotRef             map[[2]int]*pbspgemm.CSR
	uploadBody         []byte // mats[0] in the binary format; its last 8 bytes are the last value

	firstBinary *binaryReply
	lastBinary  *binaryReply
	classMs     [numClasses][]float64 // traced operations only
	// before is the server's counters when the first traced operation began.
	tracing bool
	before  serve.MetricsSnapshot
	misses  int // hot requests the cache did not serve
}

type binaryReply struct {
	pair [2]int
	body []byte
}

// reply is the part of a /multiply or /matrices answer the benchmark checks.
type reply struct {
	NNZ    int64 `json:"nnz"`
	Flops  int64 `json:"flops"`
	Cached bool  `json:"cached"`
}

func setupServe(c config) (runner, setupInfo, error) {
	s := &serveRun{hotRef: map[[2]int]*pbspgemm.CSR{}}
	var info setupInfo
	nm := c.pick(serveMatrices, 24)
	s.hot, s.probes, s.stream = buildStream(c.seed, nm, c.pick(serveStreamLen, 2000))
	info.maxOps = len(s.stream) / serveRound

	t := time.Now()
	for i := 0; i < nm; i++ {
		s.mats = append(s.mats, gen.ERMatrix(c.pick(12, 8), 8, c.seed+1+uint64(i)))
	}
	info.genS = time.Since(t).Seconds()

	// Oracle: exact nnz(C) and flops of every pair the run can ask for, by
	// the benchmark's own symbolic pass; the full reference product for the
	// hot pairs, whose binary bodies are compared entry by entry.
	t = time.Now()
	s.wantNNZ, s.wantFlops = make([]int64, nm*nm), make([]int64, nm*nm)
	count := func(p [2]int) {
		k := p[0]*nm + p[1]
		s.wantNNZ[k], s.wantFlops[k] = countNNZ(s.mats[p[0]], s.mats[p[1]]), countFlops(s.mats[p[0]], s.mats[p[1]])
	}
	for _, p := range s.hot {
		s.hotRef[p] = pbspgemm.Reference(s.mats[p[0]], s.mats[p[1]])
		count(p)
		if got := s.hotRef[p].NNZ(); got != s.wantNNZ[p[0]*nm+p[1]] {
			return nil, info, fmt.Errorf("oracles disagree on pair %v: %d and %d entries", p, got, s.wantNNZ[p[0]*nm+p[1]])
		}
	}
	for _, p := range s.probes {
		count(p)
	}
	for _, req := range s.stream {
		if req.Class == classCold {
			count([2]int{req.A, req.B})
		}
	}
	info.oracleS = time.Since(t).Seconds()

	eng, err := pbspgemm.NewEngine()
	if err != nil {
		return nil, info, err
	}
	if s.srv, err = serve.NewServer(serve.Config{Engine: eng, CacheBudgetBytes: serveCacheBytes}); err != nil {
		return nil, info, err
	}
	s.ts = httptest.NewServer(s.srv)
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}

	// Uploads, then warm-up: every hot product computed once (beta
	// calibration, workspace growth, cache fill) and fetched once as binary.
	var body bytes.Buffer
	for _, m := range s.mats {
		body.Reset()
		if err := mmio.WriteBinary(&body, m); err != nil {
			return nil, info, err
		}
		if s.uploadBody == nil {
			s.uploadBody = bytes.Clone(body.Bytes())
		}
		var up struct {
			ID string `json:"id"`
		}
		if err := s.exchangeJSON(s.post("/matrices", "application/octet-stream", body.Bytes()), http.StatusCreated, &up); err != nil {
			s.close()
			return nil, info, fmt.Errorf("upload: %w", err)
		}
		s.ids = append(s.ids, up.ID)
	}
	fresh, err := mmio.ReadBinary(bytes.NewReader(s.freshUpload(1)))
	if err != nil || fresh.Val[len(fresh.Val)-1] != 2 {
		s.close()
		return nil, info, fmt.Errorf("the binary format no longer ends with the last value (%v)", err)
	}
	for i, p := range s.hot {
		for _, class := range []int{classHit, classBinary} {
			if err := s.do(nil, -1, -1-i, request{Class: class, A: p[0], B: p[1]}); err != nil {
				s.close()
				return nil, info, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	s.firstBinary, s.lastBinary, s.misses = nil, nil, 0
	return s, info, nil
}

// op is stream entry i.
// op sends round i of the stream: ten requests, one after the other.
func (s *serveRun) op(tr *tracer, parent, i int) error {
	for _, r := range s.stream[i*serveRound : (i+1)*serveRound] {
		if err := s.do(tr, parent, i, r); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveRun) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

func (s *serveRun) notes(n map[string]string) {
	n["hot_requests_not_cached"] = strconv.Itoa(s.misses)
}

// freshUpload returns the upload body of matrix number n: mats[0] with its
// last value replaced by n+1, which no earlier upload has carried.
func (s *serveRun) freshUpload(n int) []byte {
	buf := bytes.Clone(s.uploadBody)
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], math.Float64bits(float64(n+1)))
	return buf
}

func (s *serveRun) post(path, contentType string, body []byte) *http.Request {
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		panic(err) // the URL is the test server's own
	}
	req.Header.Set("Content-Type", contentType)
	return req
}

func (s *serveRun) multiplyBody(r request) []byte {
	body := map[string]string{"a": s.ids[r.A], "b": s.ids[r.B]}
	if r.Class == classBinary {
		body["output"] = "binary"
	}
	b, _ := json.Marshal(body) // a map of strings always marshals
	return b
}

// exchange sends req over the loopback socket and reads the whole reply.
func (s *serveRun) exchange(req *http.Request, wantStatus int) (http.Header, []byte, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != wantStatus {
		return nil, nil, fmt.Errorf("status %d, want %d: %.200s", resp.StatusCode, wantStatus, body)
	}
	return resp.Header, body, nil
}

// exchangeJSON is exchange for a reply whose body is a JSON document.
func (s *serveRun) exchangeJSON(req *http.Request, wantStatus int, into any) error {
	_, body, err := s.exchange(req, wantStatus)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, into)
}

// do sends one request and checks the reply against the oracle in O(1).
func (s *serveRun) do(tr *tracer, parent, i int, r request) error {
	if tr != nil && !s.tracing {
		s.tracing, s.before = true, s.srv.Metrics()
	}
	sp := tr.begin("http."+className[r.Class], parent, i)
	t := time.Now()
	err := s.send(r)
	d := time.Since(t)
	tr.end(sp)
	if tr != nil {
		s.classMs[r.Class] = append(s.classMs[r.Class], float64(d)/1e6)
	}
	return err
}

func (s *serveRun) send(r request) error {
	k := r.A*len(s.mats) + r.B
	switch r.Class {
	case classUpload:
		var up reply
		if err := s.exchangeJSON(s.post("/matrices", "application/octet-stream", s.freshUpload(r.Fresh)), http.StatusCreated, &up); err != nil {
			return err
		}
		if up.NNZ != s.mats[0].NNZ() {
			return fmt.Errorf("upload registered %d entries, sent %d", up.NNZ, s.mats[0].NNZ())
		}
		return nil
	case classBinary:
		header, body, err := s.exchange(s.post("/multiply", "application/json", s.multiplyBody(r)), http.StatusOK)
		if err != nil {
			return err
		}
		// A missing or malformed header parses as 0 and fails the check below.
		nnz, _ := strconv.ParseInt(header.Get("X-Pbspgemm-Nnz"), 10, 64)
		flops, _ := strconv.ParseInt(header.Get("X-Pbspgemm-Flops"), 10, 64)
		rows := int64(s.mats[r.A].NumRows)
		if nnz != s.wantNNZ[k] || flops != s.wantFlops[k] || int64(len(body)) != 20+(rows+1)*8+nnz*12 {
			return fmt.Errorf("binary reply has %d entries, %d flops, %d bytes; oracle %d entries, %d flops",
				nnz, flops, len(body), s.wantNNZ[k], s.wantFlops[k])
		}
		s.lastBinary = &binaryReply{[2]int{r.A, r.B}, body}
		if s.firstBinary == nil {
			s.firstBinary = s.lastBinary
		}
		return nil
	}
	var got reply
	if err := s.exchangeJSON(s.post("/multiply", "application/json", s.multiplyBody(r)), http.StatusOK, &got); err != nil {
		return err
	}
	if got.NNZ != s.wantNNZ[k] || got.Flops != s.wantFlops[k] {
		return fmt.Errorf("pair (%d,%d): reply has %d entries, %d flops; oracle %d entries, %d flops",
			r.A, r.B, got.NNZ, got.Flops, s.wantNNZ[k], s.wantFlops[k])
	}
	if r.Class == classHit && !got.Cached {
		s.misses++
	}
	return nil
}

func (s *serveRun) verify() error {
	for _, br := range []*binaryReply{s.firstBinary, s.lastBinary} {
		if br == nil {
			continue // a window too short to hold a binary request
		}
		got, err := mmio.ReadBinary(bytes.NewReader(br.body))
		if err != nil {
			return fmt.Errorf("binary reply of pair %v: %w", br.pair, err)
		}
		if err := sameProduct(got, s.hotRef[br.pair]); err != nil {
			return fmt.Errorf("binary reply of pair %v: %w", br.pair, err)
		}
	}
	return nil
}

// handler sends req to the server in-process, with no socket.
func (s *serveRun) handler(req *http.Request, wantStatus int, into any) error {
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		return fmt.Errorf("handler status %d, want %d: %.200s", rec.Code, wantStatus, rec.Body.Bytes())
	}
	if into != nil {
		return json.Unmarshal(rec.Body.Bytes(), into)
	}
	return nil
}

func (s *serveRun) layers(tr *tracer, opP50 float64, out map[string]float64) error {
	for c, name := range className {
		out["serve."+name+"_ms_p50"] = median(s.classMs[c])
	}
	// The server's counters over the traced window.
	m0, m := s.before, s.srv.Metrics()
	hits, misses := float64(m.Cache.Hits-m0.Cache.Hits), float64(m.Cache.Misses-m0.Cache.Misses)
	out["serve.cache_hit_share"] = hits / (hits + misses)
	out["serve.cache_evictions"] = float64(m.Cache.Evictions - m0.Cache.Evictions)
	out["serve.coalesced_share"] = float64(m.Coalesced-m0.Coalesced) / (hits + misses)
	out["serve.shed_share"] = float64(m.Admission.Shed-m0.Admission.Shed) / (hits + misses)
	var windowNs int64
	for _, sp := range tr.spans {
		windowNs = max(windowNs, sp.End)
	}
	out["serve.engine_busy_share"] = float64(m.Engine.BusyNs-m0.Engine.BusyNs) / float64(windowNs)

	// The same classes through Server.ServeHTTP with a recorder: no socket.
	var err error
	hot := s.hot[0]
	hit := s.multiplyBody(request{Class: classHit, A: hot[0], B: hot[1]})
	if out["serve.handler_hit_ms_p50"], err = timeMs(tr, "handler.hit", 50, func() error {
		return s.handler(httptest.NewRequest(http.MethodPost, "/multiply", bytes.NewReader(hit)), http.StatusOK, nil)
	}); err != nil {
		return err
	}
	out["serve.http_overhead_ms"] = out["serve.hit_ms_p50"] - out["serve.handler_hit_ms_p50"]
	if out["serve.plan_ms_p50"], err = timeMs(tr, "handler.plan", 50, func() error {
		return s.handler(httptest.NewRequest(http.MethodPost, "/plan", bytes.NewReader(hit)), http.StatusOK, nil)
	}); err != nil {
		return err
	}
	next := 0
	if out["serve.handler_cold_ms_p50"], err = timeMs(tr, "handler.cold", len(s.probes), func() error {
		p := s.probes[next]
		next++
		var got reply
		body := s.multiplyBody(request{Class: classCold, A: p[0], B: p[1]})
		if err := s.handler(httptest.NewRequest(http.MethodPost, "/multiply", bytes.NewReader(body)), http.StatusOK, &got); err != nil {
			return err
		}
		if k := p[0]*len(s.mats) + p[1]; got.NNZ != s.wantNNZ[k] || got.Flops != s.wantFlops[k] || got.Cached {
			return fmt.Errorf("pair %v: reply %+v, oracle %d entries, %d flops", p, got, s.wantNNZ[k], s.wantFlops[k])
		}
		return nil
	}); err != nil {
		return err
	}

	// internal/mmio on one product: the binary body of a hot pair and the
	// same product as Matrix Market text, both fetched from the server.
	text := map[string]string{"a": s.ids[hot[0]], "b": s.ids[hot[1]], "output": "matrixmarket"}
	textBody, _ := json.Marshal(text)
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/multiply", bytes.NewReader(textBody)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("matrixmarket reply: status %d", rec.Code)
	}
	product := s.hotRef[hot]
	var bin bytes.Buffer
	mbs := func(bytes int, ms float64) float64 { return float64(bytes) / 1e6 / (ms / 1e3) }
	writeMs, err := timeMs(tr, "mmio.write_binary", probeReps, func() error {
		bin.Reset()
		return mmio.WriteBinary(&bin, product)
	})
	if err != nil {
		return err
	}
	out["mmio.write_binary_mbs"] = mbs(bin.Len(), writeMs)
	readMs, err := timeMs(tr, "mmio.read_binary", probeReps, func() error {
		_, err := mmio.ReadBinary(bytes.NewReader(bin.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	out["mmio.read_binary_mbs"] = mbs(bin.Len(), readMs)
	textMs, err := timeMs(tr, "mmio.read_text", probeReps, func() error {
		got, err := mmio.ReadMatrixMarket(bytes.NewReader(rec.Body.Bytes()))
		if err == nil && got.NNZ() != product.NNZ() {
			err = fmt.Errorf("text product has %d entries, oracle %d", got.NNZ(), product.NNZ())
		}
		return err
	})
	if err != nil {
		return err
	}
	out["mmio.read_text_mbs"] = mbs(rec.Body.Len(), textMs)
	return nil
}

// countNNZ is the oracle's own count of the stored entries of A·B: one
// marker pass per row, independent of the program's kernels.
func countNNZ(a, b *pbspgemm.CSR) int64 {
	mark := make([]int32, b.NumCols)
	var nnz int64
	for i := int32(0); i < a.NumRows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			k := a.ColIdx[p]
			for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
				if j := b.ColIdx[q]; mark[j] != i+1 {
					mark[j] = i + 1
					nnz++
				}
			}
		}
	}
	return nnz
}
