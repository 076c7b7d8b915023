package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/solver"
)

// openEvents opens the raw SSE stream of a job, resuming after the given
// sequence when after >= 0.
func openEvents(t *testing.T, ctx context.Context, base, id string, after int64) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if after >= 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(after, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("events: status %s", resp.Status)
	}
	return resp
}

// TestServerEventsRawFrames: the raw stream of a finished job is exactly
// the frames `event: T\nid: N\ndata: <json.Marshal(ev)>\n\n` of its events
// in order — from the start, resumed after a middle event, and resumed at
// the done event (which is still delivered).
func TestServerEventsRawFrames(t *testing.T) {
	srv, c := newTestServer(t, serve.Config{})
	ctx := testCtx(t)
	job, err := srv.Service().SubmitRunner(ctx, durableSpec(40), func(ctx context.Context, emit func(solver.Event)) (*solver.Result, error) {
		for g := 1; g <= 40; g++ {
			typ := solver.EventGeneration
			if g%7 == 1 {
				typ = solver.EventImproved
			}
			emit(solver.Event{Type: typ, Generation: g, Evaluations: int64(30 * g), BestObjective: float64(100 - g/7)})
		}
		emit(solver.Event{Type: solver.EventMigration, Epoch: 1, Generation: 40, Islands: 2, Migrants: 3,
			Exchanges: []solver.MigrationEdge{{From: -1, To: 0, Count: 2}, {From: 1, To: 0, Count: 1}}})
		// HTML-significant bytes: the frames must keep json.Marshal's escaping.
		emit(solver.Event{Type: solver.EventPeerDegraded, Peer: "http://peer<b>&c", Epoch: 2})
		return &solver.Result{Model: "ms", Instance: "ft06", Generations: 40, BestObjective: 95, Gap: 0.5,
			Trace: []solver.TracePoint{{Generation: 1, BestObj: 100}, {Generation: 40, BestObj: 95}}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Await(ctx); err != nil {
		t.Fatal(err)
	}
	var events []solver.Event
	for ev := range job.Events() {
		events = append(events, ev)
	}
	if len(events) != 44 || events[len(events)-1].Type != solver.EventDone {
		t.Fatalf("job recorded %d events, want started, 42 progress, done", len(events))
	}
	render := func(after int64) string {
		var b strings.Builder
		for _, ev := range events {
			if ev.Seq <= after && ev.Type != solver.EventDone {
				continue
			}
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, data)
		}
		return b.String()
	}
	for _, after := range []int64{-1, events[len(events)/2].Seq, events[len(events)-1].Seq} {
		resp := openEvents(t, ctx, c.BaseURL, job.ID(), after)
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := render(after); string(raw) != want {
			t.Errorf("after %d: stream body differs from json.Marshal frames\ngot:\n%.600s\nwant:\n%.600s", after, raw, want)
		}
	}
}

// TestServerEventsNotHeld: a live stream delivers a progress event that
// follows nothing else, and then the done event, without either waiting
// for more events to arrive. The runner blocks after emitting its event
// until the test has read it, so a frame held for a batch that never
// fills would stall the test into its deadline.
func TestServerEventsNotHeld(t *testing.T) {
	srv, c := newTestServer(t, serve.Config{})
	ctx, cancel := context.WithTimeout(testCtx(t), 60*time.Second)
	defer cancel()
	subscribed, seen := make(chan struct{}), make(chan struct{})
	job, err := srv.Service().SubmitRunner(ctx, durableSpec(1), func(ctx context.Context, emit func(solver.Event)) (*solver.Result, error) {
		select {
		case <-subscribed:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		emit(solver.Event{Type: solver.EventImproved, Generation: 1, BestObjective: 60})
		select {
		case <-seen:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &solver.Result{Generations: 1, BestObjective: 60}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := openEvents(t, ctx, c.BaseURL, job.ID(), -1)
	defer resp.Body.Close()
	close(subscribed)
	br := bufio.NewReader(resp.Body)
	var types []string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended after %v: %v", types, err)
		}
		typ, ok := strings.CutPrefix(strings.TrimSuffix(line, "\n"), "event: ")
		if !ok {
			continue
		}
		types = append(types, typ)
		if typ == string(solver.EventImproved) {
			close(seen)
		}
		if typ == string(solver.EventDone) {
			break
		}
	}
	if want := "started improved done"; strings.Join(types, " ") != want {
		t.Errorf("stream events %v, want %s", types, want)
	}
}
