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
	"sync"
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

// spin busy-waits for d, standing in for a model's work between events.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// readFrames reads a raw SSE stream to its end and returns each frame's
// event type and id.
func readFrames(t *testing.T, body io.Reader) (types []string, ids []int64) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if typ, ok := strings.CutPrefix(line, "event: "); ok {
			types = append(types, typ)
		}
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			id, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("frame id %q: %v", v, err)
			}
			ids = append(ids, id)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return types, ids
}

// TestServerEventsQuietWindow: a runner emits 300 progress events about
// 20 us apart under a live stream. Every one of the 302 frames arrives, in
// order, while the writer wakes at most twice per flush window (once for
// the event that opens a window, once for its timer) plus once for the
// done event: progress inside an open window wakes nobody. The bound is
// counted from the stream's own lifetime, so a slow host loosens it
// instead of failing it; a writer woken per event exceeds it ~30-fold.
func TestServerEventsQuietWindow(t *testing.T) {
	const progress, window = 300, 5 * time.Millisecond
	srv, c := newTestServer(t, serve.Config{})
	// Room for the whole job, so the half-full bell never rings.
	srv.Service().EventBuffer = 1024
	serve.SetStreamWindow(srv, window)
	var mu sync.Mutex
	wakes := map[string]int{}
	serve.SetStreamWakeHook(srv, func(cause string) {
		mu.Lock()
		wakes[cause]++
		mu.Unlock()
	})
	ctx := testCtx(t)
	subscribed := make(chan struct{})
	job, err := srv.Service().SubmitRunner(ctx, durableSpec(progress), func(ctx context.Context, emit func(solver.Event)) (*solver.Result, error) {
		select {
		case <-subscribed:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		for g := 1; g <= progress; g++ {
			spin(20 * time.Microsecond)
			emit(solver.Event{Type: solver.EventGeneration, Generation: g, Evaluations: int64(30 * g), BestObjective: 60})
		}
		return &solver.Result{Generations: progress, BestObjective: 60}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp := openEvents(t, ctx, c.BaseURL, job.ID(), -1)
	close(subscribed)
	types, ids := readFrames(t, resp.Body)
	resp.Body.Close()
	lifetime := time.Since(start)

	if len(types) != progress+2 || types[0] != string(solver.EventStarted) || types[len(types)-1] != string(solver.EventDone) {
		t.Fatalf("stream carried %d frames %v, want started, %d generation, done", len(types), types, progress)
	}
	for i, id := range ids {
		if id != int64(i+1) {
			t.Fatalf("frame %d has id %d, want %d: frames lost or reordered", i, id, i+1)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, n := range wakes {
		total += n
	}
	windows := int(lifetime/window) + 2
	t.Logf("writer woke %d times %v over %v", total, wakes, lifetime)
	if limit := 2*windows + 1; total > limit || wakes["bell"] != 0 {
		t.Errorf("writer woke %d times %v over %v (%d windows), want at most %d and no bell",
			total, wakes, lifetime, windows, limit)
	}
}

// TestServerEventsHalfFullBell: with a flush window far longer than the
// test, a subscription pushed past half its capacity still wakes the
// writer, through the bell, before the window ends; the job then
// finishes and the done frame is flushed with every frame before it.
// Without the bell the runner would wait for that wake-up until its
// deadline.
func TestServerEventsHalfFullBell(t *testing.T) {
	const buffer = 8
	srv, c := newTestServer(t, serve.Config{})
	srv.Service().EventBuffer = buffer
	serve.SetStreamWindow(srv, time.Hour)
	// Room for every wake-up of this short stream (a handful), so the
	// hook never blocks the writer.
	wakes := make(chan string, 64)
	serve.SetStreamWakeHook(srv, func(cause string) { wakes <- cause })
	ctx, cancel := context.WithTimeout(testCtx(t), 60*time.Second)
	defer cancel()
	// awaitWake blocks until the writer reports a wake-up with the cause.
	awaitWake := func(ctx context.Context, cause string) error {
		for {
			select {
			case got := <-wakes:
				if got == cause {
					return nil
				}
			case <-ctx.Done():
				return fmt.Errorf("no %q wake-up: %w", cause, ctx.Err())
			}
		}
	}
	subscribed := make(chan struct{})
	job, err := srv.Service().SubmitRunner(ctx, durableSpec(buffer), func(ctx context.Context, emit func(solver.Event)) (*solver.Result, error) {
		select {
		case <-subscribed:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		// The started frame opens the window; then fill the subscription
		// past half its capacity (at most buffer+1: the started event
		// may be replayed into it) without overflowing it.
		if err := awaitWake(ctx, "event"); err != nil {
			return nil, err
		}
		for g := 1; g <= buffer; g++ {
			emit(solver.Event{Type: solver.EventGeneration, Generation: g, BestObjective: 60})
		}
		if err := awaitWake(ctx, "bell"); err != nil {
			return nil, err
		}
		return &solver.Result{Generations: buffer, BestObjective: 60}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := openEvents(t, ctx, c.BaseURL, job.ID(), -1)
	defer resp.Body.Close()
	close(subscribed)
	types, ids := readFrames(t, resp.Body)
	if _, err := job.Await(ctx); err != nil {
		t.Fatalf("job: %v", err)
	}
	want := "started" + strings.Repeat(" generation", buffer) + " done"
	if got := strings.Join(types, " "); got != want {
		t.Fatalf("stream events %q, want %q", got, want)
	}
	for i, id := range ids {
		if id != int64(i+1) {
			t.Fatalf("frame %d has id %d, want %d", i, id, i+1)
		}
	}
}
