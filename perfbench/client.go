package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// The wire types below mirror the subset of the daemon's JSON API the
// benchmark uses (solver.Spec, solver.Result, serve.JobInfo). The server
// rejects unknown spec fields, so these names must match its JSON tags.

type spec struct {
	Problem problem `json:"problem"`
	Model   string  `json:"model"`
	Params  params  `json:"params"`
	Budget  budget  `json:"budget"`
	Seed    uint64  `json:"seed"`
}

type problem struct {
	Kind     string `json:"kind"`
	Jobs     int    `json:"jobs"`
	Machines int    `json:"machines"`
	Seed     int64  `json:"seed"`
}

type params struct {
	Pop      int  `json:"pop"`
	Workers  int  `json:"workers,omitempty"`
	Islands  int  `json:"islands,omitempty"`
	Interval int  `json:"interval,omitempty"`
	Federate bool `json:"federate,omitempty"`
}

type budget struct {
	Generations int `json:"generations"`
}

type result struct {
	Model         string  `json:"model"`
	Encoding      string  `json:"encoding"`
	BestObjective float64 `json:"best_objective"`
	Evaluations   int64   `json:"evaluations"`
	Generations   int     `json:"generations"`
	ElapsedNS     int64   `json:"elapsed_ns"`
	Canceled      bool    `json:"canceled"`
	Nodes         []struct {
		Rank          int     `json:"rank"`
		BestObjective float64 `json:"best_objective"`
		Degraded      bool    `json:"degraded"`
	} `json:"nodes"`
}

type jobInfo struct {
	ID        string    `json:"id"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
}

// outcome is one job as the client saw it.
type outcome struct {
	submit time.Duration // POST /v1/jobs round trip
	total  time.Duration // submit sent → done event received
	events int           // SSE frames received, done included
	queue  time.Duration // server-side started − submitted (traced runs only)
	res    result
}

// client drives one daemon over HTTP with keep-alive connections.
type client struct {
	http *http.Client
	base string
}

// run submits sp, follows the job's SSE stream to its done event, and
// returns what it measured. trace adds a status fetch for the queue wait.
func (c *client) run(ctx context.Context, sp spec, trace bool) (outcome, error) {
	var out outcome
	body, err := json.Marshal(sp)
	if err != nil {
		return out, err
	}
	start := time.Now()
	var info jobInfo
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", body, http.StatusCreated, &info); err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	out.submit = time.Since(start)

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+info.ID+"/events", nil)
	if err != nil {
		return out, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return out, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("events: status %s", resp.Status)
	}
	done, n, err := readUntilDone(resp.Body)
	out.total = time.Since(start)
	out.events = n
	if err != nil {
		return out, fmt.Errorf("job %s events: %w", info.ID, err)
	}
	if done.Error != "" || done.Result == nil {
		return out, fmt.Errorf("job %s failed: %q", info.ID, done.Error)
	}
	out.res = *done.Result
	// Drain the rest so the connection goes back to the pool.
	_, _ = io.Copy(io.Discard, resp.Body)

	if trace {
		var st jobInfo
		if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+info.ID, nil, http.StatusOK, &st); err != nil {
			return out, fmt.Errorf("status: %w", err)
		}
		out.queue = st.Started.Sub(st.Submitted)
	}
	return out, nil
}

type doneEvent struct {
	Result *result `json:"result"`
	Error  string  `json:"error"`
}

// readUntilDone reads Server-Sent Events frames until the done event and
// returns its payload and the number of frames read.
func readUntilDone(r io.Reader) (doneEvent, int, error) {
	var done doneEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	frames, event := 0, ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			frames++
		case strings.HasPrefix(line, "data: ") && event == "done":
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &done)
			return done, frames, err
		}
	}
	if err := sc.Err(); err != nil {
		return done, frames, err
	}
	return done, frames, io.ErrUnexpectedEOF
}

// do sends one JSON request and decodes the response into v, failing on
// any status other than want.
func (c *client) do(ctx context.Context, method, path string, body []byte, want int, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// fedAccepted sums the migrants every node of a federated fleet accepted.
func fedAccepted(ctx context.Context, hc *http.Client, urls []string) (int64, error) {
	var sum int64
	for _, u := range urls {
		var info struct {
			Counters struct {
				Accepted int64 `json:"migrants_accepted"`
			} `json:"counters"`
		}
		c := &client{http: hc, base: u}
		if err := c.do(ctx, http.MethodGet, "/v1/federation/info", nil, http.StatusOK, &info); err != nil {
			return 0, err
		}
		sum += info.Counters.Accepted
	}
	return sum, nil
}
