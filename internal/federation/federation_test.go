package federation_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/shop"
	"repro/internal/solver"
)

// fleetNode is one in-process fleet member: a full serve.Server with its
// federation node composed in front, reachable over a real HTTP listener.
type fleetNode struct {
	Srv  *serve.Server
	Node *federation.Node
	URL  string
	// Kill simulates the node dying: every further HTTP request is
	// refused and the node's in-flight jobs are cancelled.
	Kill func()
}

// newFleet spins size federated daemons on httptest listeners. Listener
// addresses must be known before the nodes exist (the peer list is the
// fleet), so each listener starts behind a swappable handler that the
// finished node is stored into.
func newFleet(t *testing.T, size int, fcfg federation.Config) []*fleetNode {
	t.Helper()
	handlers := make([]atomic.Pointer[http.Handler], size)
	urls := make([]string, size)
	for i := 0; i < size; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := handlers[i].Load()
			if h == nil {
				http.Error(w, "node not ready", http.StatusServiceUnavailable)
				return
			}
			(*h).ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	fleet := make([]*fleetNode, size)
	for i := 0; i < size; i++ {
		srv, err := serve.New(serve.Config{})
		if err != nil {
			t.Fatalf("serve.New: %v", err)
		}
		cfg := fcfg
		cfg.Self = urls[i]
		cfg.Peers = urls
		cfg.Service = srv.Service()
		node, err := federation.New(cfg)
		if err != nil {
			t.Fatalf("federation.New: %v", err)
		}
		srv.SetFederation(node)
		root := http.NewServeMux()
		root.Handle("/v1/federation/", node.Handler())
		root.Handle("/", srv.Handler())
		var h http.Handler = root
		handlers[i].Store(&h)
		i := i
		fleet[i] = &fleetNode{Srv: srv, Node: node, URL: urls[i], Kill: func() {
			var dead http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "node killed", http.StatusServiceUnavailable)
			})
			handlers[i].Store(&dead)
			srv.Service().Close()
		}}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = srv.Drain(ctx)
		})
	}
	return fleet
}

func fedSpec(seed uint64) solver.Spec {
	return solver.Spec{
		Problem: solver.ProblemSpec{Instance: "ft06"},
		Model:   "island",
		Seed:    seed,
		Params: solver.Params{
			Federate: true,
			Islands:  4,
			Pop:      40,
			Interval: 2,
			Migrants: 1,
		},
		Budget: solver.Budget{Generations: 24},
	}
}

// TestFederatedDeterminism is the issue's acceptance test: a two-node
// fleet with a fixed seed reproduces the same final best objective across
// two invocations, with demes running (and migrants flowing) on both
// nodes.
func TestFederatedDeterminism(t *testing.T) {
	fleet := newFleet(t, 2, federation.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	runOnce := func() *solver.Result {
		t.Helper()
		job, err := fleet[0].Node.SubmitFederated(ctx, fedSpec(7))
		if err != nil {
			t.Fatalf("SubmitFederated: %v", err)
		}
		res, err := job.Await(ctx)
		if err != nil {
			t.Fatalf("Await: %v", err)
		}
		return res
	}

	r1 := runOnce()
	r2 := runOnce()

	if r1.BestObjective != r2.BestObjective {
		t.Errorf("federated run not replayable: best %v then %v", r1.BestObjective, r2.BestObjective)
	}
	if len(r1.Nodes) != 2 {
		t.Fatalf("Nodes provenance: got %d entries, want 2: %+v", len(r1.Nodes), r1.Nodes)
	}
	for _, nr := range r1.Nodes {
		if nr.Degraded {
			t.Errorf("healthy fleet: node %s (rank %d) marked degraded", nr.Node, nr.Rank)
		}
		if nr.Evaluations <= 0 || nr.BestObjective <= 0 {
			t.Errorf("node %s provenance empty: %+v", nr.Node, nr)
		}
	}
	if r1.Schedule == nil {
		t.Error("owner result lacks a schedule")
	} else if err := r1.Schedule.Validate(); err != nil {
		t.Errorf("owner schedule invalid: %v", err)
	}
	if r1.Reference != 55 {
		t.Errorf("ft06 reference %v, want 55", r1.Reference)
	}
	if sum := r1.Nodes[0].Evaluations + r1.Nodes[1].Evaluations; r1.Evaluations != sum {
		t.Errorf("owner evaluations %d, want sum of shards %d", r1.Evaluations, sum)
	}
	for i, fn := range fleet {
		c := fn.Node.Counters()
		if c.Shards < 2 { // two invocations, one shard each
			t.Errorf("node %d ran %d shards, want >= 2", i, c.Shards)
		}
		if c.MigrantsSent == 0 || c.MigrantsAccepted == 0 {
			t.Errorf("node %d exchanged no migrants: %+v", i, c)
		}
		if c.MigrantsRejected != 0 || c.PeerTimeouts != 0 {
			t.Errorf("healthy fleet: node %d counters %+v", i, c)
		}
	}
}

// TestFederatedDegradedPeer: one live node fleeted with a dead address.
// The remote shard never starts and the live node's epoch barriers time
// out once, degrade the peer, and the run still terminates with a valid,
// reference-gapped Result carrying the degradation in its provenance and
// a typed peer_degraded event in the owner's stream.
func TestFederatedDegradedPeer(t *testing.T) {
	// A listener that is closed again: connection refused, immediately.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	handlers := [1]atomic.Pointer[http.Handler]{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := handlers[0].Load(); h != nil {
			(*h).ServeHTTP(w, r)
			return
		}
		http.Error(w, "not ready", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	node, err := federation.New(federation.Config{
		Self:         ts.URL,
		Peers:        []string{ts.URL, dead},
		Service:      srv.Service(),
		EpochTimeout: 150 * time.Millisecond,
		PushTimeout:  100 * time.Millisecond,
		MaxRetries:   -1,
		RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetFederation(node)
	root := http.NewServeMux()
	root.Handle("/v1/federation/", node.Handler())
	root.Handle("/", srv.Handler())
	var h http.Handler = root
	handlers[0].Store(&h)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	job, err := node.SubmitFederated(ctx, fedSpec(11))
	if err != nil {
		t.Fatalf("SubmitFederated: %v", err)
	}
	res, err := job.Await(ctx)
	if err != nil {
		t.Fatalf("Await: %v", err)
	}
	if res.BestObjective <= 0 || res.Schedule == nil {
		t.Fatalf("degraded run result invalid: best %v, schedule %v", res.BestObjective, res.Schedule != nil)
	}
	if res.Reference != 55 || res.Gap < 0 {
		t.Errorf("degraded run reference/gap: %v/%v", res.Reference, res.Gap)
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("Nodes provenance: %+v", res.Nodes)
	}
	for _, nr := range res.Nodes {
		wantDegraded := nr.Node == dead
		if nr.Degraded != wantDegraded {
			t.Errorf("node %s degraded=%v, want %v", nr.Node, nr.Degraded, wantDegraded)
		}
	}
	if c := node.Counters(); c.PeerTimeouts == 0 {
		t.Errorf("no peer timeout recorded: %+v", c)
	}
	sawDegraded := false
	for ev := range job.Events() {
		if ev.Type == solver.EventPeerDegraded {
			sawDegraded = true
			if ev.Peer != dead {
				t.Errorf("peer_degraded names %q, want %q", ev.Peer, dead)
			}
		}
	}
	if !sawDegraded {
		t.Error("owner stream carries no peer_degraded event")
	}
}

// TestFederationEndpoints drives the HTTP surface through the typed
// client: fleet info, Prometheus stats with the federation block, and the
// migrant inbox's shape validation.
func TestFederationEndpoints(t *testing.T) {
	fleet := newFleet(t, 2, federation.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := &client.Client{BaseURL: fleet[0].URL}

	info, err := c.FederationInfo(ctx)
	if err != nil {
		t.Fatalf("FederationInfo: %v", err)
	}
	if info.Self != fleet[0].URL || len(info.Peers) != 2 || info.Rank != fleet[0].Node.Rank() {
		t.Errorf("federation info %+v", info)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	for _, want := range []string{
		"schedserver_jobs{state=\"running\"}",
		"schedserver_queue_depth",
		"schedserver_evaluations_total",
		"schedserver_replay_ring_drops_total",
		"schedserver_federation_peers 2",
		"schedserver_federation_migrants_sent_total",
		"schedserver_federation_peer_timeouts_total",
		"schedserver_federation_failovers_total",
		"schedserver_federation_inbox_dropped_total",
	} {
		if !strings.Contains(stats, want) {
			t.Errorf("stats missing %q:\n%s", want, stats)
		}
	}
	if info.EpochTimeoutMS != 5000 {
		t.Errorf("info.EpochTimeoutMS %d, want the 5000 default", info.EpochTimeoutMS)
	}
	if info.ActiveJobs != 0 {
		t.Errorf("idle node reports %d active jobs", info.ActiveJobs)
	}

	// A batch from an out-of-fleet rank is rejected at the door.
	err = c.PushMigrants(ctx, serve.MigrantBatch{Key: "k", Epoch: 0, From: 9})
	if err == nil {
		t.Error("push with rank 9 accepted, want 400")
	}
	// A well-formed batch for a not-yet-started key is buffered (202).
	if err := c.PushMigrants(ctx, serve.MigrantBatch{
		Key: "early", Epoch: 0, From: 1 - fleet[0].Node.Rank(),
		Migrants: []solver.Migrant{{Genome: solver.Genome{Seq: []int{0}}, Obj: 1}},
	}); err != nil {
		t.Errorf("push for unknown key: %v", err)
	}
}

// TestFederatedFailover is the tentpole's e2e: a three-node fleet with
// failover enabled loses one non-owner node mid-run. The owner confirms
// the death by probing, resumes the lost shard from its last piggybacked
// epoch checkpoint on the surviving node, and the run completes with
// zero degraded nodes and a failover on the books.
func TestFederatedFailover(t *testing.T) {
	fleet := newFleet(t, 3, federation.Config{
		FailoverEnabled: true,
		EpochTimeout:    500 * time.Millisecond,
		PushTimeout:     250 * time.Millisecond,
		MaxRetries:      -1,
		RetryBackoff:    10 * time.Millisecond,
		ProbeRetries:    2,
		ProbeInterval:   20 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	spec := fedSpec(21)
	spec.Budget = solver.Budget{Generations: 600} // keep the run in flight across the kill
	job, err := fleet[0].Node.SubmitFederated(ctx, spec)
	if err != nil {
		t.Fatalf("SubmitFederated: %v", err)
	}
	// Drain the owner stream so emit never blocks on a full subscriber.
	go func() {
		for range job.Events() {
		}
	}()

	// Let the victim's shard checkpoint at least once: its exchange from
	// epoch 1 onward piggybacks a checkpoint on the owner-bound push, and
	// each epoch ships migrants to two peer hosts.
	victim := fleet[1]
	deadline := time.Now().Add(60 * time.Second)
	for victim.Node.Counters().MigrantsSent < 8 {
		if time.Now().After(deadline) {
			t.Fatal("victim shard never exchanged migrants")
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.Kill()

	res, err := job.Await(ctx)
	if err != nil {
		t.Fatalf("Await: %v", err)
	}
	if len(res.Nodes) != 3 {
		t.Fatalf("Nodes provenance: %+v", res.Nodes)
	}
	for _, nr := range res.Nodes {
		if nr.Degraded {
			t.Errorf("node %s (rank %d) degraded despite failover: %+v", nr.Node, nr.Rank, nr)
		}
		if nr.Evaluations <= 0 || nr.BestObjective <= 0 {
			t.Errorf("node %s provenance empty: %+v", nr.Node, nr)
		}
	}
	if got := fleet[0].Node.Counters().Failovers; got != 1 {
		t.Errorf("owner recorded %d failovers, want 1", got)
	}
	// Three primary shard starts plus the resumed one.
	var shards int64
	for _, fn := range fleet {
		shards += fn.Node.Counters().Shards
	}
	if shards < 4 {
		t.Errorf("fleet ran %d shard(s), want >= 4 (3 primaries + 1 resumed)", shards)
	}
	if res.Schedule == nil {
		t.Fatal("failover run lacks a schedule")
	} else if err := res.Schedule.Validate(); err != nil {
		t.Errorf("failover schedule invalid: %v", err)
	}
	if res.Reference != 55 || res.Gap < 0 {
		t.Errorf("failover run reference/gap: %v/%v", res.Reference, res.Gap)
	}
}

// TestFederationInboxOverflow: flooding one key's pending inbox past its
// cap drops batches into the counter (and the stats text) instead of
// silently vanishing.
func TestFederationInboxOverflow(t *testing.T) {
	fleet := newFleet(t, 2, federation.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := &client.Client{BaseURL: fleet[0].URL}
	from := 1 - fleet[0].Node.Rank() // the other node's rank

	// maxPendingBatches is 512; single-key floods cannot evict their way
	// out, so everything past the cap must be counted as dropped.
	for i := 0; i < 520; i++ {
		if err := c.PushMigrants(ctx, serve.MigrantBatch{
			Key: "flood", Epoch: i, From: from,
			Migrants: []solver.Migrant{{Genome: solver.Genome{Seq: []int{0}}, Obj: 1}},
		}); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if got := fleet[0].Node.Counters().InboxDropped; got < 1 {
		t.Fatalf("no inbox drops recorded after flooding past the cap")
	}
	if stats := fleet[0].Node.StatsText(); !strings.Contains(stats, "schedserver_federation_inbox_dropped_total 8") {
		t.Errorf("stats do not expose the 8 dropped batches:\n%s", stats)
	}
}

// TestFederatedSingleNode: a fleet of one degrades to a plain local
// island run — no shard coordinates, no provenance, no waiting.
func TestFederatedSingleNode(t *testing.T) {
	fleet := newFleet(t, 1, federation.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := fleet[0].Node.SubmitFederated(ctx, fedSpec(3))
	if err != nil {
		t.Fatalf("SubmitFederated: %v", err)
	}
	res, err := job.Await(ctx)
	if err != nil {
		t.Fatalf("Await: %v", err)
	}
	if res.BestObjective <= 0 || res.Schedule == nil {
		t.Fatalf("single-node federated result invalid: %+v", res)
	}
	if len(res.Nodes) != 0 || res.BestGenome != nil {
		t.Errorf("single-node run carries federation artifacts: nodes %v, genome %v", res.Nodes, res.BestGenome)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestFederatedCheckpointGating: shards ship epoch checkpoints only when
// failover can use them. Without failover no migrant batch on the wire
// carries a checkpoint and the owner tracks none; with it, every shard
// hosted away from the owner ships its checkpoints to the owner's node
// alone, and the owner tracks one per remote rank (never its own).
func TestFederatedCheckpointGating(t *testing.T) {
	for _, tc := range []struct {
		name     string
		failover bool
		size     int
	}{{"off", false, 2}, {"on", true, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			var ownerHost atomic.Pointer[string]
			var batches, withCP, strayCP atomic.Int64
			spy := roundTripFunc(func(r *http.Request) (*http.Response, error) {
				if r.URL.Path != "/v1/federation/migrants" || r.Body == nil {
					return http.DefaultTransport.RoundTrip(r)
				}
				body, err := io.ReadAll(r.Body)
				r.Body.Close()
				if err != nil {
					return nil, err
				}
				var b struct {
					Checkpoint json.RawMessage `json:"checkpoint"`
				}
				if err := json.Unmarshal(body, &b); err != nil {
					t.Errorf("batch on the wire does not parse: %v", err)
				}
				batches.Add(1)
				if len(b.Checkpoint) > 0 && string(b.Checkpoint) != "null" {
					withCP.Add(1)
					if h := ownerHost.Load(); h == nil || r.URL.Host != *h {
						strayCP.Add(1)
					}
				}
				r2 := r.Clone(r.Context())
				r2.Body = io.NopCloser(bytes.NewReader(body))
				return http.DefaultTransport.RoundTrip(r2)
			})
			fleet := newFleet(t, tc.size, federation.Config{
				FailoverEnabled: tc.failover,
				NewClient: func(base string) *client.Client {
					return &client.Client{BaseURL: base, HTTPClient: &http.Client{Transport: spy}, RequestTimeout: 2 * time.Second}
				},
			})
			owner := fleet[0]
			host := strings.TrimPrefix(owner.URL, "http://")
			ownerHost.Store(&host)
			remote := make([]int, 0, tc.size-1)
			for _, fn := range fleet[1:] {
				remote = append(remote, fn.Node.Rank())
			}
			sort.Ints(remote)

			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			spec := fedSpec(13)
			spec.Budget = solver.Budget{Generations: 400}
			job, err := owner.Node.SubmitFederated(ctx, spec)
			if err != nil {
				t.Fatalf("SubmitFederated: %v", err)
			}
			go func() {
				for range job.Events() {
				}
			}()
			done := make(chan struct{})
			var res *solver.Result
			var awaitErr error
			go func() {
				defer close(done)
				res, awaitErr = job.Await(ctx)
			}()
			// Sample the owner's tracked checkpoints until the run ends
			// (ownership state is released with it).
			sawAll, sawAny, sawOwn := false, false, false
		poll:
			for {
				for _, ranks := range owner.Node.TrackedCheckpointRanks() {
					sawAny = sawAny || len(ranks) > 0
					sawAll = sawAll || fmt.Sprint(ranks) == fmt.Sprint(remote)
					for _, r := range ranks {
						sawOwn = sawOwn || r == owner.Node.Rank()
					}
				}
				select {
				case <-done:
					break poll
				case <-time.After(time.Millisecond):
				}
			}
			if awaitErr != nil {
				t.Fatalf("Await: %v", awaitErr)
			}
			for _, nr := range res.Nodes {
				if nr.Degraded {
					t.Errorf("healthy fleet: node %s degraded", nr.Node)
				}
			}
			if batches.Load() == 0 {
				t.Fatal("no migrant batch crossed the wire")
			}
			if !tc.failover && withCP.Load() != 0 {
				t.Errorf("failover off, %d of %d batches carried a checkpoint", withCP.Load(), batches.Load())
			}
			if !tc.failover && sawAny {
				t.Error("failover off, the owner tracked checkpoints")
			}
			if sawOwn {
				t.Error("the owner tracked a checkpoint of its own shard")
			}
			if tc.failover {
				if withCP.Load() == 0 {
					t.Error("failover on, no batch carried a checkpoint")
				}
				if !sawAll {
					t.Errorf("owner never tracked a checkpoint for every remote rank %v", remote)
				}
			}
			if strayCP.Load() != 0 {
				t.Errorf("%d checkpoints shipped to a node that does not own the run", strayCP.Load())
			}
		})
	}
}

// TestResubmitRejectsOldWireCheckpoint: a resubmitted checkpoint whose
// genomes use the retired int-array form is a 400 at parse time, never a
// job.
func TestResubmitRejectsOldWireCheckpoint(t *testing.T) {
	fleet := newFleet(t, 2, federation.Config{})
	spec := fedSpec(3)
	spec.Params.FedKey, spec.Params.FedNodes, spec.Params.FedRank = "f0-x-1", 2, 1
	rawSpec, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"spec":` + string(rawSpec) + `,"fleet_epoch":2,"checkpoint":{"model":"island","encoding":"seq","epoch":1,` +
		`"demes":[{"pop":[{"seq":[0,1,2,3,4,5]}],"objs":[60],"best":{"seq":[0,1,2,3,4,5]},"best_objective":60}]}}`
	resp, err := http.Post(fleet[0].URL+"/v1/federation/resubmit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb serve.ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, "parsing resubmit") {
		t.Errorf("old-format resubmit: %d %q, want 400 parsing resubmit", resp.StatusCode, eb.Error)
	}
	if n := fleet[0].Srv.Service().Stats().Jobs; n[solver.JobPending]+n[solver.JobRunning] != 0 {
		t.Errorf("rejected resubmit left jobs behind: %v", n)
	}
}

// TestResubmitRejectsInstancePath: a resubmitted shard spec must name a
// registry instance, exactly like POST /v1/jobs. A file path is a 400
// before anything opens it, even when the file holds a valid instance, and
// no job is created.
func TestResubmitRejectsInstancePath(t *testing.T) {
	fleet := newFleet(t, 2, federation.Config{})
	data, err := shop.FT06().JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ft06.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	spec := fedSpec(3)
	spec.Problem.Instance = path
	spec.Params.Federate = false // a shard spec carries coordinates instead
	spec.Params.FedKey, spec.Params.FedNodes, spec.Params.FedRank = "f0-x-1", 2, 1
	body, err := json.Marshal(serve.ResubmitRequest{
		Spec: spec, FleetEpoch: 2, Checkpoint: &solver.Checkpoint{Model: "island", Encoding: "seq", Epoch: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fleet[0].URL+"/v1/federation/resubmit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb serve.ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, "registry names only") {
		t.Errorf("file-path resubmit: %d %q, want 400 registry names only", resp.StatusCode, eb.Error)
	}
	for state, n := range fleet[0].Srv.Service().Stats().Jobs {
		if n != 0 {
			t.Errorf("rejected resubmit left %d %s jobs", n, state)
		}
	}
}
