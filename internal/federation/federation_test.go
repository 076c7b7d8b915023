package federation_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
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
	// refused, its migrant streams are severed (so its shards send no
	// Done notice), and its in-flight jobs are cancelled.
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
			node.Close()
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

// TestFederatedDeterminism: a two-node fleet with a fixed seed replays
// exactly — the same best objective, evaluation and generation counts,
// per-node provenance and schedule across ten invocations — with demes
// running (and migrants flowing) on both nodes. Each barrier injects the
// batches its peers sent one epoch earlier, which it waits for unless
// their sender finished; a sender's Done follows its batches on the same
// stream, so every barrier, the last one included, always injects the
// same migrants.
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

	const replays = 10
	r1 := runOnce()
	for i := 1; i < replays; i++ {
		r2 := runOnce()
		if r1.BestObjective != r2.BestObjective || r1.Evaluations != r2.Evaluations || r1.Generations != r2.Generations {
			t.Errorf("replay %d: best %v, %d evals, %d gens; first run %v, %d evals, %d gens", i,
				r2.BestObjective, r2.Evaluations, r2.Generations, r1.BestObjective, r1.Evaluations, r1.Generations)
		}
		if !reflect.DeepEqual(r1.Nodes, r2.Nodes) {
			t.Errorf("replay %d: provenance %+v, first run %+v", i, r2.Nodes, r1.Nodes)
		}
		if r1.Schedule == nil || r2.Schedule == nil || !reflect.DeepEqual(r1.Schedule.Ops, r2.Schedule.Ops) {
			t.Errorf("replay %d: schedule differs from the first run's", i)
		}
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
		if c.Shards < replays { // one shard per invocation
			t.Errorf("node %d ran %d shards, want >= %d", i, c.Shards, replays)
		}
		if c.MigrantsSent == 0 || c.MigrantsAccepted == 0 {
			t.Errorf("node %d exchanged no migrants: %+v", i, c)
		}
		if c.MigrantsRejected != 0 || c.PeerTimeouts != 0 || c.StreamFailures != 0 || c.FramesRejected != 0 {
			t.Errorf("healthy fleet: node %d counters %+v", i, c)
		}
		if c.Barriers == 0 || c.BarrierWaitNS <= 0 {
			t.Errorf("node %d recorded no barrier waits: %+v", i, c)
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
// migrant stream's shape validation.
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
		"schedserver_federation_stream_failures_total",
		"schedserver_federation_frames_rejected_total",
		"schedserver_federation_barrier_wait_seconds_total",
		"schedserver_federation_barriers_total",
		"schedserver_federation_barrier_late_seconds_total",
		"schedserver_federation_barrier_wake_seconds_total",
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

	// A batch from an out-of-fleet rank is rejected at the door: dropped
	// and counted, with the stream left open for the frames behind it.
	stream, err := c.OpenMigrantStream(ctx)
	if err != nil {
		t.Fatalf("OpenMigrantStream: %v", err)
	}
	defer stream.Close()
	writeFrame(t, stream, &serve.MigrantBatch{Key: "k", Epoch: 0, From: 9})
	// A well-formed batch for a not-yet-started key is buffered.
	writeFrame(t, stream, &serve.MigrantBatch{
		Key: "early", Epoch: 0, From: 1 - fleet[0].Node.Rank(),
		Migrants: []solver.Migrant{{Genome: solver.Genome{Seq: []int{0}}, Obj: 1}},
	})
	waitFor(t, "the buffered early batch", func() bool { return fleet[0].Node.PendingBatches("early") == 1 })
	if got := fleet[0].Node.Counters().FramesRejected; got != 1 {
		t.Errorf("frame with rank 9: %d frames rejected, want 1", got)
	}
	if fleet[0].Node.PendingBatches("k") != 0 {
		t.Error("frame with rank 9 was buffered")
	}

	// The stream endpoint refuses a request that does not upgrade, and the
	// retired per-batch POST endpoint is gone.
	for _, tc := range []struct {
		path string
		want int
	}{{"/v1/federation/stream", http.StatusBadRequest}, {"/v1/federation/migrants", http.StatusNotFound}} {
		resp, err := http.Post(fleet[0].URL+tc.path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("plain POST %s: %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// writeFrame writes one batch onto a migrant stream.
func writeFrame(t *testing.T, w io.Writer, b *serve.MigrantBatch) {
	t.Helper()
	frame, err := federation.AppendFrame(nil, b)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	if _, err := w.Write(frame); err != nil {
		t.Fatalf("writing frame: %v", err)
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
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

// TestFederatedFailoverToOwner: on a two-node fleet the only survivor
// of the non-owner's death is the owner itself, so the owner resumes the
// lost shard on its own node; the run completes with zero degraded nodes
// and one failover.
func TestFederatedFailoverToOwner(t *testing.T) {
	fleet := newFleet(t, 2, federation.Config{
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

	spec := fedSpec(23)
	spec.Budget = solver.Budget{Generations: 600} // keep the run in flight across the kill
	owner, victim := fleet[0], fleet[1]
	job, err := owner.Node.SubmitFederated(ctx, spec)
	if err != nil {
		t.Fatalf("SubmitFederated: %v", err)
	}
	go func() {
		for range job.Events() {
		}
	}()
	// From epoch 1 on, each of the victim's batches to the owner carries
	// a checkpoint.
	waitFor(t, "the victim shard's migrants", func() bool { return victim.Node.Counters().MigrantsSent >= 4 })
	victim.Kill()

	res, err := job.Await(ctx)
	if err != nil {
		t.Fatalf("Await: %v", err)
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("Nodes provenance: %+v", res.Nodes)
	}
	for _, nr := range res.Nodes {
		if nr.Degraded {
			t.Errorf("node %s (rank %d) degraded despite failover: %+v", nr.Node, nr.Rank, nr)
		}
	}
	if got := owner.Node.Counters().Failovers; got != 1 {
		t.Errorf("owner recorded %d failovers, want 1", got)
	}
	// The owner ran its own shard and the resumed one.
	if got := owner.Node.Counters().Shards; got < 2 {
		t.Errorf("owner ran %d shard(s), want 2 (its own + the resumed one)", got)
	}
	if res.Schedule == nil {
		t.Fatal("failover run lacks a schedule")
	} else if err := res.Schedule.Validate(); err != nil {
		t.Errorf("failover schedule invalid: %v", err)
	}
}

// TestFederatedResultMatchesLocal: a federated job reports the header a
// local solve of the same spec does — the resolved instance name, kind,
// encoding and seed, and the same reference — because both finish
// through the solver.
func TestFederatedResultMatchesLocal(t *testing.T) {
	fleet := newFleet(t, 2, federation.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spec := fedSpec(0) // seed 0 resolves to the default seed
	spec.Problem = solver.ProblemSpec{Kind: "job", Jobs: 6, Machines: 4}

	job, err := fleet[0].Node.SubmitFederated(ctx, spec)
	if err != nil {
		t.Fatalf("SubmitFederated: %v", err)
	}
	fed, err := job.Await(ctx)
	if err != nil {
		t.Fatalf("Await: %v", err)
	}
	if len(fed.Nodes) != 2 {
		t.Fatalf("job did not federate: %+v", fed.Nodes)
	}
	local, err := solver.Solve(ctx, spec)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if fed.Instance != local.Instance || fed.Kind != local.Kind || fed.Encoding != local.Encoding ||
		fed.Seed != local.Seed || fed.Reference != local.Reference || fed.RefKind != local.RefKind {
		t.Errorf("federated header {%q %q %q seed %d ref %v %q}, local {%q %q %q seed %d ref %v %q}",
			fed.Instance, fed.Kind, fed.Encoding, fed.Seed, fed.Reference, fed.RefKind,
			local.Instance, local.Kind, local.Encoding, local.Seed, local.Reference, local.RefKind)
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
	stream, err := c.OpenMigrantStream(ctx)
	if err != nil {
		t.Fatalf("OpenMigrantStream: %v", err)
	}
	defer stream.Close()

	// maxPendingBatches is 512; single-key floods cannot evict their way
	// out, so everything past the cap must be counted as dropped.
	for i := 0; i < 520; i++ {
		writeFrame(t, stream, &serve.MigrantBatch{
			Key: "flood", Epoch: i, From: from,
			Migrants: []solver.Migrant{{Genome: solver.Genome{Seq: []int{0}}, Obj: 1}},
		})
	}
	// The stream is one-way: wait until the reader has delivered the
	// whole flood.
	waitFor(t, "the flood's delivery", func() bool {
		return fleet[0].Node.PendingBatches("flood")+int(fleet[0].Node.Counters().InboxDropped) == 520
	})
	if got := fleet[0].Node.Counters().InboxDropped; got < 1 {
		t.Fatalf("no inbox drops recorded after flooding past the cap")
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if !strings.Contains(stats, "schedserver_federation_inbox_dropped_total 8") {
		t.Errorf("stats do not expose the 8 dropped batches:\n%s", stats)
	}
}

// TestFederationInboxEvictsFinishedFirst: once a key's shard finished
// here, a peer's late batch for it is dropped, not buffered; and when the
// pending cap fills, the key's record of the Done notice still due goes
// before any key's early batch.
func TestFederationInboxEvictsFinishedFirst(t *testing.T) {
	node := streamNode(t, federation.Config{})
	send := func(key string, epoch int) {
		t.Helper()
		frame, err := federation.AppendFrame(nil, &serve.MigrantBatch{
			Key: key, Epoch: epoch, From: 1 - node.Rank(),
			Migrants: []solver.Migrant{{Genome: solver.Genome{Seq: []int{0}}, Obj: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.ServeStream(bytes.NewReader(frame)); err != io.EOF {
			t.Fatalf("ServeStream: %v", err)
		}
	}
	node.ShardStarted("f0-done-1", node.Rank(), 2, 0)
	node.ShardFinished("f0-done-1", node.Rank())
	send("f0-done-1", 3) // the peer's final batch
	if got := node.PendingBatches("f0-done-1"); got != 0 || node.KeyStates() != 1 {
		t.Fatalf("finished key: %d batches buffered, %d key states; want 0 and its record", got, node.KeyStates())
	}
	for e := 0; e < 512; e++ {
		send("flood", e)
	}
	if got := node.PendingBatches("flood"); got != 512 || node.KeyStates() != 1 || node.Counters().InboxDropped != 0 {
		t.Errorf("cap reached: %d early batches, %d key states, %d dropped; want 512, 1, 0",
			got, node.KeyStates(), node.Counters().InboxDropped)
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

// spyStream wraps the writable body of an upgraded migrant stream and
// hands every whole frame written through it to onFrame.
type spyStream struct {
	io.ReadWriteCloser
	onFrame func(*serve.MigrantBatch, error)
	mu      sync.Mutex
	pending []byte
}

func (s *spyStream) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.pending = append(s.pending, p...)
	for len(s.pending) >= 4 {
		n := 4 + int(binary.BigEndian.Uint32(s.pending))
		if len(s.pending) < n {
			break
		}
		s.onFrame(federation.ReadFrame(bytes.NewReader(s.pending[:n])))
		s.pending = s.pending[n:]
	}
	s.mu.Unlock()
	return s.ReadWriteCloser.Write(p)
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
				resp, err := http.DefaultTransport.RoundTrip(r)
				if err != nil || r.URL.Path != "/v1/federation/stream" || resp.StatusCode != http.StatusSwitchingProtocols {
					return resp, err
				}
				host := r.URL.Host
				resp.Body = &spyStream{ReadWriteCloser: resp.Body.(io.ReadWriteCloser), onFrame: func(b *serve.MigrantBatch, err error) {
					if err != nil {
						t.Errorf("batch on the wire does not parse: %v", err)
						return
					}
					batches.Add(1)
					if b.Checkpoint != nil {
						withCP.Add(1)
						if h := ownerHost.Load(); h == nil || host != *h {
							strayCP.Add(1)
						}
					}
				}}
				return resp, nil
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
// before anything opens it, even when the file holds a valid instance,
// with the same fields array as POST /v1/jobs, and no job is created.
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
	if len(eb.Fields) == 0 || eb.Fields[0].Path != "problem.instance" {
		t.Errorf("file-path resubmit: fields %+v, want the problem.instance field error POST /v1/jobs returns", eb.Fields)
	}
	for state, n := range fleet[0].Srv.Service().Stats().Jobs {
		if n != 0 {
			t.Errorf("rejected resubmit left %d %s jobs", n, state)
		}
	}
}

// TestFederatedKeyStateReleased: whatever path a run key takes, once the
// peers' Done notices have arrived no surviving node holds state for it.
// The cases run in turn through one three-node fleet with failover on:
// healthy jobs owned by each node, whose later finishers' final batches
// and Done notices reach nodes whose own shards already finished;
// rebinds for a finished key and a never-seen one; a failed-over job; a
// job degraded by the dead node; and a resubmit the service refuses.
func TestFederatedKeyStateReleased(t *testing.T) {
	// The default epoch timeout: a live peer that misses a barrier under
	// load is degraded and sends this node no Done, so its record would
	// wait for the cap instead.
	fleet := newFleet(t, 3, federation.Config{
		FailoverEnabled: true,
		PushTimeout:     250 * time.Millisecond,
		MaxRetries:      -1,
		RetryBackoff:    10 * time.Millisecond,
		ProbeRetries:    2,
		ProbeInterval:   20 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	survivors := fleet
	released := func(what string) {
		t.Helper()
		for _, fn := range survivors {
			waitFor(t, what+": no key state left on "+fn.URL, func() bool { return fn.Node.KeyStates() == 0 })
		}
	}
	// solve runs one federated job owned by owner, calling during while it
	// is in flight, and returns the nodes its result marks degraded.
	solve := func(owner *fleetNode, spec solver.Spec, during func()) map[string]bool {
		t.Helper()
		job, err := owner.Node.SubmitFederated(ctx, spec)
		if err != nil {
			t.Fatalf("SubmitFederated: %v", err)
		}
		go func() {
			for range job.Events() {
			}
		}()
		if during != nil {
			during()
		}
		res, err := job.Await(ctx)
		if err != nil {
			t.Fatalf("Await: %v", err)
		}
		degraded := map[string]bool{}
		for _, nr := range res.Nodes {
			if nr.Degraded {
				degraded[nr.Node] = true
			}
		}
		return degraded
	}

	for i, owner := range fleet {
		for j := 0; j < 3; j++ {
			if d := solve(owner, fedSpec(uint64(10*i+j+1)), nil); len(d) != 0 {
				t.Errorf("healthy job owned by %s: degraded %v", owner.URL, d)
			}
		}
	}
	released("healthy jobs")

	// A rebind for a key that finished here, onto this node or another,
	// and one for a key never seen here.
	var finished string
	for _, j := range fleet[1].Srv.Service().Jobs() {
		if k := j.Spec().Params.FedKey; k != "" {
			finished = k
		}
	}
	if finished == "" {
		t.Fatal("no shard job on the second node")
	}
	c := &client.Client{BaseURL: fleet[1].URL}
	for _, key := range []string{finished, "f0-never-1"} {
		for _, node := range []int{fleet[1].Node.Rank(), fleet[2].Node.Rank()} {
			if err := c.Rebind(ctx, serve.RebindRequest{Key: key, Rank: fleet[2].Node.Rank(), Node: node, Epoch: 1}); err != nil {
				t.Fatalf("Rebind %s onto rank %d: %v", key, node, err)
			}
		}
	}
	released("rebinds")

	owner, victim := fleet[0], fleet[1]
	failovers := owner.Node.Counters().Failovers
	spec := fedSpec(21)
	spec.Budget = solver.Budget{Generations: 600} // keep the run in flight across the kill
	d := solve(owner, spec, func() {
		sent := victim.Node.Counters().MigrantsSent
		waitFor(t, "the victim shard's migrants", func() bool { return victim.Node.Counters().MigrantsSent >= sent+8 })
		victim.Kill()
	})
	if len(d) != 0 || owner.Node.Counters().Failovers != failovers+1 {
		t.Errorf("failed-over job: degraded %v, %d failovers, want none and 1", d, owner.Node.Counters().Failovers-failovers)
	}
	survivors = []*fleetNode{fleet[0], fleet[2]}
	released("failed-over job")

	if d := solve(owner, fedSpec(31), nil); len(d) != 1 || !d[victim.URL] {
		t.Errorf("job with a dead peer: degraded %v, want only %s", d, victim.URL)
	}
	released("degraded job")

	// A valid resubmit to a node whose service takes no more jobs is
	// refused with 422, after its fast-forward was registered.
	shards, err := solver.ShardSpecs(fedSpec(41), "f0-refused-1", len(fleet))
	if err != nil {
		t.Fatal(err)
	}
	shard := shards[fleet[2].Node.Rank()]
	var cp *solver.Checkpoint
	if _, err := solver.SolveWithCheckpoints(ctx, shard, solver.CheckpointOptions{
		Every: shard.Params.Interval, Save: func(c *solver.Checkpoint) { cp = c },
	}); err != nil || cp == nil {
		t.Fatalf("solving the shard for a checkpoint: %v (checkpoint %v)", err, cp != nil)
	}
	fleet[2].Srv.Service().Close()
	_, err = (&client.Client{BaseURL: fleet[2].URL, MaxRetries: -1}).Resubmit(ctx,
		serve.ResubmitRequest{Spec: shard, Checkpoint: cp, FleetEpoch: cp.Epoch + 1})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("resubmit to a closed service: %v, want 422", err)
	}
	released("refused resubmit")
}
