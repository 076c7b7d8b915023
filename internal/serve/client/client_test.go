package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/solver"
)

// flakyClient points a fast-retrying client at the handler.
func flakyClient(t *testing.T, h http.Handler) (*client.Client, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return &client.Client{BaseURL: ts.URL, RetryBackoff: time.Millisecond}, ts
}

// TestClientRetriesTransientGET: a GET rides out transient 503s.
func TestClientRetriesTransientGET(t *testing.T) {
	var calls atomic.Int64
	c, _ := flakyClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `[{"name":"serial"}]`)
	}))
	models, err := c.Models(context.Background())
	if err != nil {
		t.Fatalf("Models after transient failures: %v", err)
	}
	if len(models) != 1 || models[0].Name != "serial" {
		t.Errorf("models %v", models)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("%d requests, want 3 (2 failures + success)", got)
	}
}

// TestClientNoRetryOnDeterministicError: a 400 is not transient; exactly
// one request is made and the field errors come through.
func TestClientNoRetryOnDeterministicError(t *testing.T) {
	var calls atomic.Int64
	c, _ := flakyClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"invalid spec","fields":[{"path":"model","msg":"unknown"}]}`, http.StatusBadRequest)
	}))
	_, err := c.Jobs(context.Background())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("error %v, want APIError 400", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("%d requests for a 400, want 1", got)
	}
}

// TestClientSubmitDoesNotRetry: a bare POST must not be repeated — a retry
// could start a duplicate run.
func TestClientSubmitDoesNotRetry(t *testing.T) {
	var calls atomic.Int64
	c, _ := flakyClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"flaky"}`, http.StatusBadGateway)
	}))
	if _, err := c.Submit(context.Background(), solver.Spec{Model: "serial"}); err == nil {
		t.Fatal("submit against a failing server succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("%d submit requests, want 1 (no retry without an idempotency key)", got)
	}
}

// TestClientSubmitIdempotentRetries: with an idempotency key the POST is
// retry-safe; every attempt carries the key so the server deduplicates.
func TestClientSubmitIdempotentRetries(t *testing.T) {
	var calls atomic.Int64
	c, _ := flakyClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Idempotency-Key") != "k42" {
			t.Errorf("attempt without the idempotency key")
		}
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"flaky"}`, http.StatusBadGateway)
			return
		}
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"id":"j000001","state":"pending"}`)
	}))
	job, err := c.SubmitIdempotent(context.Background(), solver.Spec{Model: "serial"}, "k42")
	if err != nil {
		t.Fatalf("idempotent submit: %v", err)
	}
	if job.ID != "j000001" {
		t.Errorf("job %+v", job)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("%d requests, want 3", got)
	}
	if _, err := c.SubmitIdempotent(context.Background(), solver.Spec{}, ""); err == nil {
		t.Error("empty idempotency key accepted")
	}
}

// TestClientRetriesExhaust: a persistently failing server eventually
// surfaces the last error instead of retrying forever.
func TestClientRetriesExhaust(t *testing.T) {
	var calls atomic.Int64
	c, _ := flakyClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	c.MaxRetries = 2
	_, err := c.Jobs(context.Background())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("error %v, want the final 503", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("%d requests, want 1 + 2 retries", got)
	}
}

// TestClientRequestTimeout: RequestTimeout bounds each attempt, so a hung
// server cannot stall a status query indefinitely.
func TestClientRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	c, _ := flakyClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	c.RequestTimeout = 50 * time.Millisecond
	c.MaxRetries = -1
	start := time.Now()
	if _, err := c.Jobs(context.Background()); err == nil {
		t.Fatal("hung request returned without error")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("timeout did not bound the request: %s", elapsed)
	}
}

// sseFrame writes one SSE frame for the event.
func sseFrame(w http.ResponseWriter, ev solver.Event) {
	data, _ := json.Marshal(ev)
	fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, data)
	if fl, ok := w.(http.Flusher); ok {
		fl.Flush()
	}
}

// TestClientEventsReconnect: a stream severed mid-job reconnects with
// Last-Event-ID and resumes exactly after the last delivered event — every
// event arrives once, ending with done.
func TestClientEventsReconnect(t *testing.T) {
	all := []solver.Event{
		{Type: solver.EventStarted, Seq: 1},
		{Type: solver.EventImproved, Seq: 2, BestObjective: 60},
		{Type: solver.EventImproved, Seq: 3, BestObjective: 57},
		{Type: solver.EventDone, Seq: 4},
	}
	var calls atomic.Int64
	c, _ := flakyClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		switch calls.Add(1) {
		case 1:
			if r.Header.Get("Last-Event-ID") != "" {
				t.Errorf("first connect sent Last-Event-ID %q", r.Header.Get("Last-Event-ID"))
			}
			// Sever after two events, before the terminal one.
			sseFrame(w, all[0])
			sseFrame(w, all[1])
		default:
			if got := r.Header.Get("Last-Event-ID"); got != "2" {
				t.Errorf("reconnect Last-Event-ID %q, want 2", got)
			}
			for _, ev := range all[2:] {
				sseFrame(w, ev)
			}
		}
	}))
	events, err := c.Events(context.Background(), "j000001")
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for ev := range events {
		got = append(got, ev.Seq)
	}
	want := []int64{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("event seqs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event seqs %v, want %v", got, want)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("%d stream requests, want 2", calls.Load())
	}
}

// TestClientEventsLargeDone: a traced job's done event carries one trace
// point per generation, so its data line can exceed any fixed line cap.
// The client still delivers it (here 2 MiB, after a data field split over
// two lines, which SSE joins with a newline).
func TestClientEventsLargeDone(t *testing.T) {
	done := solver.Event{Type: solver.EventDone, Seq: 3, Error: strings.Repeat("x", 2<<20)}
	c, _ := flakyClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		if r.Header.Get("Last-Event-ID") == "" {
			sseFrame(w, solver.Event{Type: solver.EventStarted, Seq: 1})
			fmt.Fprint(w, "event: improved\nid: 2\ndata: {\"type\":\"improved\",\ndata: \"seq\":2,\"best_objective\":57}\n\n")
		}
		sseFrame(w, done)
	}))
	c.MaxRetries = 1
	events, err := c.Events(context.Background(), "j000001")
	if err != nil {
		t.Fatal(err)
	}
	var got []solver.Event
	for ev := range events {
		got = append(got, ev)
	}
	if len(got) != 3 {
		t.Fatalf("got %d events, want started, improved, done", len(got))
	}
	if got[1].Type != solver.EventImproved || got[1].BestObjective != 57 {
		t.Errorf("multi-line data decoded as %+v", got[1])
	}
	if last := got[2]; last.Type != solver.EventDone || last.Error != done.Error {
		t.Errorf("done event lost or truncated: type %q, %d error bytes", last.Type, len(last.Error))
	}
}

// TestClientEventsReconnectGivesUp: repeated severed streams with no
// forward progress close the channel instead of reconnecting forever.
func TestClientEventsReconnectGivesUp(t *testing.T) {
	var calls atomic.Int64
	c, _ := flakyClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		// Always close immediately: no events, no done.
	}))
	c.MaxRetries = 2
	events, err := c.Events(context.Background(), "j000001")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(30 * time.Second)
	for {
		select {
		case _, ok := <-events:
			if !ok {
				if calls.Load() != 3 {
					t.Errorf("%d stream requests, want 1 + 2 reconnects", calls.Load())
				}
				return
			}
			t.Fatal("unexpected event from an empty stream")
		case <-deadline:
			t.Fatal("event channel never closed")
		}
	}
}

// TestClientReusesConnections: bodyless successes (Rebind) and API
// errors both leave the connection reusable, so 50 sequential calls ride
// one TCP connection instead of dialling 50.
func TestClientReusesConnections(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		body   string
	}{
		{"accepted", http.StatusAccepted, "{}\n"},
		{"rejected", http.StatusBadRequest, `{"error":"bad batch"}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var dials atomic.Int64
			ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(tc.status)
				fmt.Fprint(w, tc.body)
			}))
			ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
				if s == http.StateNew {
					dials.Add(1)
				}
			}
			ts.Start()
			t.Cleanup(ts.Close)
			tr := &http.Transport{}
			t.Cleanup(tr.CloseIdleConnections)
			c := &client.Client{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: tr}, MaxRetries: -1}
			for i := 0; i < 50; i++ {
				err := c.Rebind(context.Background(), serve.RebindRequest{Key: "k", Rank: 1, Node: i})
				if (err != nil) != (tc.status >= 400) {
					t.Fatalf("call %d: %v", i, err)
				}
			}
			if got := dials.Load(); got != 1 {
				t.Errorf("50 calls opened %d connections, want 1", got)
			}
		})
	}
}
