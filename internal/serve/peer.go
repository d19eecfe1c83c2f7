package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pbspgemm"
	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/mmio"
)

// RemoteError is a failed exchange with a pbspgemmd peer, classified for
// the shard coordinator's retry ladder: transport failures (Status 0),
// sheds (429, with the server's Retry-After carried as a backoff floor) and
// server faults (5xx) are retryable; everything else — a 4xx the peer will
// repeat verbatim — is not.
type RemoteError struct {
	// Peer is the base URL of the peer that failed.
	Peer string
	// Status is the HTTP status, 0 for transport-level failures (dial,
	// TLS, connection reset mid-body).
	Status int
	// RetryAfterDur carries a 429's Retry-After, 0 otherwise.
	RetryAfterDur time.Duration
	// Err is the underlying cause.
	Err error
}

func (e *RemoteError) Error() string {
	if e.Status == 0 {
		return fmt.Sprintf("serve: peer %s: %v", e.Peer, e.Err)
	}
	return fmt.Sprintf("serve: peer %s: status %d: %v", e.Peer, e.Status, e.Err)
}

func (e *RemoteError) Unwrap() error { return e.Err }

// Retryable implements the shard coordinator's classification interface.
func (e *RemoteError) Retryable() bool {
	return e.Status == 0 || e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// RetryAfter implements the coordinator's backoff-floor interface.
func (e *RemoteError) RetryAfter() time.Duration { return e.RetryAfterDur }

// PeerClient executes block multiplies on a remote pbspgemmd and implements
// shard.Backend. Matrices travel in the PBSP binary framing and are
// deduplicated by the peer's content-addressed registry: a block uploaded
// once is never re-sent while the peer remembers it (the client caches the
// returned content id per *CSR until Forget, and re-uploads transparently on
// a 404 after the peer evicted or restarted). The multiply itself is pinned
// to the PB kernel so every peer folds in the same order — the coordinator's
// bit-identity contract. Safe for concurrent use.
type PeerClient struct {
	base   string
	client *http.Client

	// ids caches the peer-assigned content id per uploaded matrix pointer;
	// inflight collapses concurrent uploads of the same pointer into one.
	mu       sync.Mutex
	ids      map[*pbspgemm.CSR]string
	inflight map[*pbspgemm.CSR]chan struct{}
}

// NewPeerClient wires a client for the pbspgemmd at base (e.g.
// "http://host:8080"). client nil selects a default with sane timeouts.
func NewPeerClient(base string, client *http.Client) *PeerClient {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Minute}
	}
	return &PeerClient{
		base:     base,
		client:   client,
		ids:      make(map[*pbspgemm.CSR]string),
		inflight: make(map[*pbspgemm.CSR]chan struct{}),
	}
}

// Name implements shard.Backend.
func (p *PeerClient) Name() string { return p.base }

// Probe implements shard.Backend: a half-open breaker GETs the peer's
// /healthz before trusting it with a real block again.
func (p *PeerClient) Probe(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return &RemoteError{Peer: p.base, Err: err}
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return &RemoteError{Peer: p.base, Status: resp.StatusCode,
			Err: fmt.Errorf("healthz returned %s", resp.Status)}
	}
	return nil
}

// Multiply implements shard.Backend: upload both factors (deduplicated),
// then POST /multiply with the PB kernel, budget as the request's
// memory_budget_bytes (when > 0) and the binary result framing. A budgeted
// request is never sharded again on the peer (see Server.shardable). A 404 —
// the peer evicted or restarted since the upload — invalidates the cached ids
// and retries once with fresh uploads.
func (p *PeerClient) Multiply(ctx context.Context, a, b *pbspgemm.CSR, budget int64) (*pbspgemm.CSR, error) {
	if faultinject.Enabled {
		if err := faultinject.FireErr(faultinject.SitePeerDial, -1); err != nil {
			return nil, &RemoteError{Peer: p.base, Err: err}
		}
	}
	for attempt := 0; ; attempt++ {
		ida, err := p.uploadID(ctx, a)
		if err != nil {
			return nil, err
		}
		idb, err := p.uploadID(ctx, b)
		if err != nil {
			return nil, err
		}
		c, err := p.multiply(ctx, ida, idb, max(budget, 0))
		var re *RemoteError
		if err != nil && attempt == 0 && errors.As(err, &re) && re.Status == http.StatusNotFound {
			// The peer forgot the factors (eviction, restart): drop our view
			// of its registry and re-upload once.
			p.Forget([]*pbspgemm.CSR{a, b})
			continue
		}
		return c, err
	}
}

// uploadID returns the peer's content id for m, uploading it at most once
// per client (concurrent callers for the same pointer wait for one upload).
func (p *PeerClient) uploadID(ctx context.Context, m *pbspgemm.CSR) (string, error) {
	for {
		p.mu.Lock()
		if id, ok := p.ids[m]; ok {
			p.mu.Unlock()
			return id, nil
		}
		if ch, ok := p.inflight[m]; ok {
			p.mu.Unlock()
			select {
			case <-ch:
				continue // re-check: the winner cached the id (or failed)
			case <-ctx.Done():
				return "", ctx.Err()
			}
		}
		ch := make(chan struct{})
		p.inflight[m] = ch
		p.mu.Unlock()

		id, err := p.upload(ctx, m)
		p.mu.Lock()
		delete(p.inflight, m)
		if err == nil {
			p.ids[m] = id
		}
		p.mu.Unlock()
		close(ch)
		return id, err
	}
}

// Forget drops the cached content ids of ms. The shard coordinator calls it
// with the blocks a product cut once that product has returned: they are
// fresh objects every time, so their ids can never hit again and would pin
// the blocks (and, through a view, the caller's inputs) for the client's life.
func (p *PeerClient) Forget(ms []*pbspgemm.CSR) {
	p.mu.Lock()
	for _, m := range ms {
		delete(p.ids, m)
	}
	p.mu.Unlock()
}

// upload POSTs m in the PBSP binary framing and returns the content id.
func (p *PeerClient) upload(ctx context.Context, m *pbspgemm.CSR) (string, error) {
	buf := bytes.NewBuffer(make([]byte, 0, mmio.BinarySize(m)))
	if err := mmio.WriteBinary(buf, m); err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+"/matrices", buf)
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.client.Do(req)
	if err != nil {
		return "", &RemoteError{Peer: p.base, Err: err}
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return "", p.statusError(resp, "upload")
	}
	var ur uploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		return "", &RemoteError{Peer: p.base, Err: fmt.Errorf("bad upload response: %w", err)}
	}
	return ur.ID, nil
}

// multiply POSTs the product request and decodes the binary result.
func (p *PeerClient) multiply(ctx context.Context, ida, idb string, budget int64) (*pbspgemm.CSR, error) {
	body, err := json.Marshal(multiplyRequest{A: ida, B: idb, Algorithm: "pb", Output: "binary", MemoryBudgetBytes: budget})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+"/multiply", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, &RemoteError{Peer: p.base, Err: err}
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, p.statusError(resp, "multiply")
	}
	// The server states the body's length, so a header claiming more than
	// that fails before anything is allocated for it.
	c, err := mmio.ReadBinary(mmio.LimitReader(resp.Body, resp.ContentLength))
	if err != nil {
		// A truncated or corrupt body is a transport failure: retryable.
		return nil, &RemoteError{Peer: p.base, Err: fmt.Errorf("bad result body: %w", err)}
	}
	return c, nil
}

// statusError folds a non-2xx reply (its JSON error body, Retry-After) into
// a RemoteError.
func (p *PeerClient) statusError(resp *http.Response, op string) *RemoteError {
	re := &RemoteError{Peer: p.base, Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.ParseInt(ra, 10, 64); err == nil && secs > 0 {
			re.RetryAfterDur = time.Duration(secs) * time.Second
		}
	}
	var body struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body) == nil && body.Error != "" {
		re.Err = fmt.Errorf("%s: %s", op, body.Error)
	} else {
		re.Err = fmt.Errorf("%s: %s", op, resp.Status)
	}
	return re
}

// drain consumes and closes a response body so the connection is reusable.
func drain(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(rc, 1<<20))
	rc.Close()
}
