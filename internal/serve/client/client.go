// Package client is the typed Go client for the schedserver HTTP API
// (internal/serve): submit Specs as jobs, fetch status, stream the
// Server-Sent-Events progress feed, cancel, and await results.
//
//	c := &client.Client{BaseURL: "http://localhost:8410"}
//	job, _ := c.Submit(ctx, spec)
//	events, _ := c.Events(ctx, job.ID)
//	for ev := range events { ... }
//	final, _ := c.Job(ctx, job.ID)
//
// The client is built for flaky networks: idempotent requests retry
// transient failures with exponential backoff and jitter, submissions can
// be made retry-safe with SubmitIdempotent (the server deduplicates on the
// Idempotency-Key header), and a severed event stream reconnects with the
// standard Last-Event-ID header so no event is delivered twice.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/solver"
)

// Client talks to one schedserver. Zero value plus BaseURL is ready.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8410".
	BaseURL string
	// HTTPClient overrides http.DefaultClient (streams disable its
	// timeout per-request via context instead).
	HTTPClient *http.Client

	// MaxRetries bounds the retry attempts after a transiently failed
	// request — a transport error, or a 429/502/503/504 response (default
	// 3; <0 disables retrying). Only safely repeatable requests retry:
	// GET/DELETE always, POST only when it carries an idempotency key.
	MaxRetries int
	// RetryBackoff is the first retry's delay; each further retry doubles
	// it, plus up to half of itself in jitter (default 100ms).
	RetryBackoff time.Duration
	// RequestTimeout bounds each non-streaming request attempt (default:
	// none beyond the caller's context). Streams are exempt: an event
	// stream legitimately stays open for the whole job.
	RequestTimeout time.Duration
}

// retries resolves MaxRetries defaults.
func (c *Client) retries() int {
	switch {
	case c.MaxRetries < 0:
		return 0
	case c.MaxRetries == 0:
		return 3
	default:
		return c.MaxRetries
	}
}

// backoff returns the delay before retry attempt (0-based), doubling each
// time with up to 50% jitter.
func (c *Client) backoff(attempt int) time.Duration {
	base := c.RetryBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := base << attempt
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// transientStatus reports response codes worth retrying: throttling and
// gateway-style unavailability. Everything else is either success or a
// deterministic failure a retry cannot fix.
func transientStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// APIError is a non-2xx response: the server's message plus, for 400s
// from Spec validation, the complete field-path error list.
type APIError struct {
	Status  int
	Message string
	Fields  []solver.FieldError
}

// Error implements error.
func (e *APIError) Error() string {
	if len(e.Fields) == 0 {
		return fmt.Sprintf("schedserver: %d: %s", e.Status, e.Message)
	}
	msgs := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		msgs[i] = f.Error()
	}
	return fmt.Sprintf("schedserver: %d: %s (%s)", e.Status, e.Message, strings.Join(msgs, "; "))
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one JSON request and decodes the response into out (which may
// be nil). Non-2xx responses become *APIError. Requests that are safe to
// repeat — GET, DELETE, and POSTs carrying an idempotency key — retry
// transient failures with exponential backoff.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doHeaders(ctx, method, path, nil, in, out)
}

func (c *Client) doHeaders(ctx context.Context, method, path string, hdr http.Header, in, out any) error {
	var raw []byte
	if in != nil {
		var err error
		if raw, err = json.Marshal(in); err != nil {
			return err
		}
	}
	idempotent := method != http.MethodPost || hdr.Get("Idempotency-Key") != ""
	retries := 0
	if idempotent {
		retries = c.retries()
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := c.attempt(ctx, method, path, hdr, raw, out)
		if err == nil {
			return nil
		}
		lastErr = err
		var apiErr *APIError
		transient := !errors.As(err, &apiErr) || transientStatus(apiErr.Status)
		if !transient || attempt >= retries {
			return lastErr
		}
		select {
		case <-ctx.Done():
			return lastErr
		case <-time.After(c.backoff(attempt)):
		}
	}
}

// attempt is one request/response cycle, bounded by RequestTimeout.
func (c *Client) attempt(ctx context.Context, method, path string, hdr http.Header, raw []byte, out any) error {
	if c.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.RequestTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if raw != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeAPIError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// drainClose reads what is left of a response body (bounded) before
// closing it: the transport returns a connection to its idle pool only
// after the body hit EOF, so an unread body — a bodyless success, or the
// newline json.Decoder leaves behind — would cost a fresh dial per call.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 64<<10))
	body.Close()
}

func decodeAPIError(resp *http.Response) error {
	apiErr := &APIError{Status: resp.StatusCode, Message: resp.Status}
	var body serve.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err == nil && body.Error != "" {
		apiErr.Message = body.Error
		apiErr.Fields = body.Fields
	}
	return apiErr
}

// Submit posts a Spec and returns the created job. A plain Submit never
// retries — repeating a failed POST could start duplicate runs; use
// SubmitIdempotent when the connection is unreliable.
func (c *Client) Submit(ctx context.Context, spec solver.Spec) (*serve.JobInfo, error) {
	var info serve.JobInfo
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// SubmitIdempotent posts a Spec under a client-chosen idempotency key,
// making the submission retry-safe: the server maps the key to the job it
// created, so a retried (or repeated) submission returns the existing job
// instead of starting a second run. With the key set, transient failures
// retry automatically like any idempotent request.
func (c *Client) SubmitIdempotent(ctx context.Context, spec solver.Spec, key string) (*serve.JobInfo, error) {
	if key == "" {
		return nil, fmt.Errorf("client: empty idempotency key")
	}
	hdr := http.Header{}
	hdr.Set("Idempotency-Key", key)
	var info serve.JobInfo
	if err := c.doHeaders(ctx, http.MethodPost, "/v1/jobs", hdr, spec, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Job fetches one job's status (and result once terminal).
func (c *Client) Job(ctx context.Context, id string) (*serve.JobInfo, error) {
	var info serve.JobInfo
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Jobs lists all retained jobs.
func (c *Client) Jobs(ctx context.Context) ([]serve.JobInfo, error) {
	var list serve.JobList
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &list); err != nil {
		return nil, err
	}
	return list.Jobs, nil
}

// Cancel requests cancellation and returns the job's current snapshot.
func (c *Client) Cancel(ctx context.Context, id string) (*serve.JobInfo, error) {
	var info serve.JobInfo
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Models lists the registered GA models.
func (c *Client) Models(ctx context.Context) ([]serve.ModelInfo, error) {
	var out []serve.ModelInfo
	if err := c.do(ctx, http.MethodGet, "/v1/models", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Instances lists the benchmark registry.
func (c *Client) Instances(ctx context.Context) ([]serve.InstanceInfo, error) {
	var out []serve.InstanceInfo
	if err := c.do(ctx, http.MethodGet, "/v1/instances", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// OpenMigrantStream opens the peer's federation migrant stream: a POST
// to /v1/federation/stream that upgrades its connection (101 Switching
// Protocols) to serve.MigrantStreamProtocol, returned for writing
// frames. ctx and RequestTimeout bound the handshake only; the stream
// lives until it is closed. It never retries: whether to dial again is
// the caller's call.
func (c *Client) OpenMigrantStream(ctx context.Context) (io.ReadWriteCloser, error) {
	if c.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.RequestTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/federation/stream", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", serve.MigrantStreamProtocol)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		defer drainClose(resp.Body)
		return nil, decodeAPIError(resp)
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if !ok {
		resp.Body.Close()
		return nil, fmt.Errorf("client: the upgraded stream's body is not writable (%T)", resp.Body)
	}
	return rwc, nil
}

// FederationInfo fetches the peer's view of the fleet (shape, rank and
// federation counters). A node without federation configured returns 404.
func (c *Client) FederationInfo(ctx context.Context) (*serve.FederationInfo, error) {
	var info serve.FederationInfo
	if err := c.do(ctx, http.MethodGet, "/v1/federation/info", nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Rebind announces a shard failover to the peer: shard req.Rank of run
// req.Key now runs on fleet node req.Node. Idempotent by construction
// (re-applying the same route is a no-op), so it retries transparently.
func (c *Client) Rebind(ctx context.Context, req serve.RebindRequest) error {
	hdr := http.Header{}
	hdr.Set("Idempotency-Key", fmt.Sprintf("rebind-%s-%d-%d", req.Key, req.Rank, req.Node))
	return c.doHeaders(ctx, http.MethodPost, "/v1/federation/rebind", hdr, req, nil)
}

// Resubmit asks the peer to run a lost federated shard, warm from its
// last epoch checkpoint. The submission is not deduplicated server-side,
// so the request deliberately carries no idempotency key — it gets one
// attempt (a retry against a request that actually landed would start
// the shard twice); a transient failure fails the failover, which falls
// back to degradation.
func (c *Client) Resubmit(ctx context.Context, req serve.ResubmitRequest) (*serve.ResubmitResponse, error) {
	var resp serve.ResubmitResponse
	if err := c.do(ctx, http.MethodPost, "/v1/federation/resubmit", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the server's operational counters as Prometheus text.
func (c *Client) Stats(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/stats", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", decodeAPIError(resp)
	}
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Events opens the job's SSE stream and returns a channel of decoded
// events. The channel closes when the terminal done event arrives, or ctx
// is cancelled; cancel ctx to abandon the stream early. A stream severed
// before the done event reconnects (up to MaxRetries times, with backoff)
// carrying the standard Last-Event-ID header, so the resumed stream picks
// up exactly after the last event delivered — no duplicates, and the
// terminal event is never missed. Only the initial connection's failure is
// returned as an error; reconnect failures close the channel.
func (c *Client) Events(ctx context.Context, id string) (<-chan solver.Event, error) {
	return c.EventsFrom(ctx, id, -1)
}

// EventsFrom is Events resuming after a known event sequence number: only
// events with Seq > after are delivered (the terminal done event always
// is). Pass -1 (or use Events) for the full stream.
func (c *Client) EventsFrom(ctx context.Context, id string, after int64) (<-chan solver.Event, error) {
	resp, err := c.openStream(ctx, id, after)
	if err != nil {
		return nil, err
	}
	out := make(chan solver.Event, 16)
	go func() {
		defer close(out)
		lastSeq := after
		for attempt := 0; ; attempt++ {
			done, progressed := c.consumeStream(ctx, resp, out, &lastSeq)
			if done || ctx.Err() != nil {
				return
			}
			// Severed before the done event: reconnect after lastSeq. Any
			// delivered progress resets the attempt budget — only repeated
			// failures with no forward motion give up.
			if progressed {
				attempt = 0
			}
			if attempt >= c.retries() {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(c.backoff(attempt)):
			}
			if resp, err = c.openStream(ctx, id, lastSeq); err != nil {
				return
			}
		}
	}()
	return out, nil
}

// openStream issues one SSE request, resuming after the given sequence.
func (c *Client) openStream(ctx context.Context, id string, after int64) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if after >= 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(after, 10))
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer drainClose(resp.Body)
		return nil, decodeAPIError(resp)
	}
	return resp, nil
}

// consumeStream decodes one SSE response body into out until it ends,
// tracking the last delivered sequence for reconnects. It reports whether
// the terminal done event arrived and whether any event was delivered.
// Lines have no length cap: a traced job's done event carries its whole
// convergence trace.
func (c *Client) consumeStream(ctx context.Context, resp *http.Response, out chan<- solver.Event, lastSeq *int64) (done, progressed bool) {
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var long, data []byte
	hasData := false
	for {
		line, reuse, err := readLine(br, long)
		if err != nil {
			return false, progressed
		}
		long = reuse
		switch {
		case bytes.HasPrefix(line, dataField):
			// One optional space follows the colon; the lines of a
			// multi-line data field are joined with newlines.
			v := bytes.TrimPrefix(line[len(dataField):], []byte(" "))
			if hasData {
				data = append(data, '\n')
			}
			data = append(data, v...)
			hasData = true
		case len(line) == 0:
			if !hasData {
				continue
			}
			var ev solver.Event
			if err := json.Unmarshal(data, &ev); err == nil {
				// Drop anything at or below the resume point: the server
				// skips these too, but an overlap-replaying server must not
				// produce client-visible duplicates.
				if ev.Seq > *lastSeq || ev.Type == solver.EventDone {
					select {
					case out <- ev:
					case <-ctx.Done():
						return false, progressed
					}
					progressed = true
					if ev.Seq > *lastSeq {
						*lastSeq = ev.Seq
					}
					if ev.Type == solver.EventDone {
						return true, true
					}
				}
			}
			data, hasData = data[:0], false
		}
	}
}

var dataField = []byte("data:")

// readLine returns the next line without its line ending. A line longer
// than the reader's buffer is assembled in long, which is returned for
// reuse; the line is valid until the next call. An unterminated last
// line is an error: it cannot end a frame.
func readLine(br *bufio.Reader, long []byte) (line, reuse []byte, err error) {
	line, err = br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long = append(long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = br.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil {
		return nil, long, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, long, nil
}

// Await streams the job's events until it is terminal (or ctx expires)
// and returns the final job info. When the event stream is unavailable —
// or is severed before the done event — it falls back to polling, so the
// returned info is always terminal.
func (c *Client) Await(ctx context.Context, id string) (*serve.JobInfo, error) {
	if events, err := c.Events(ctx, id); err == nil {
		for range events {
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		info, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if info.State.Terminal() {
			return info, nil
		}
		// The stream ended without the done event (proxy timeout, severed
		// connection): fall through to polling.
	}
	for {
		info, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if info.State.Terminal() {
			return info, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}
