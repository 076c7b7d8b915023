// Package federation promotes the island model across process and machine
// boundaries: schedserver instances form a static fleet, a job submitted
// to any node fans its demes out over the peers, and the nodes exchange
// migrant elites over the wire at every migration epoch — the survey's
// coarse-grained taxonomy at horizontal scale, and the architecture of
// the dual heterogeneous island GA (arXiv:1903.10722), where islands
// cooperate purely through elite exchange.
//
// Topology. The fleet is coordinator-less: every node is configured with
// the same -peers list, the list is sorted, and a node's rank is its
// index in the sorted list. A federated job is sharded over the first
// min(fleet, islands) ranks; shard rank r starts on sorted peer r, so
// every node derives the same placement from the same list. A failover
// (below) can rebind a shard rank onto a different node mid-run; the
// rebinding is broadcast so every survivor routes the rank's batches to
// its new host.
//
// Determinism. Each shard derives its RNG from the job seed split
// FedNodes ways at its rank (the same rng.SplitN discipline the sharded
// engine pipeline uses), migrant batches are applied at epoch barriers
// in sender-rank order, and the barrier blocks until every live peer's
// batch arrived — so a federated run over a healthy fleet is replayable:
// the same fleet shape and seed reproduce the same incumbent trajectory.
// A run that needed a failover is not bit-replayable (the resumed shard
// rejoins mid-stream); its determinism guarantee is traded for the
// stronger result guarantee below.
//
// Degradation. Migration is an accelerator, not a correctness
// dependency. A peer that misses an epoch barrier (crash, partition,
// timeout) is skipped and never waited for again in that run; the skip
// surfaces as a typed peer_degraded event and a counter, pushes to it
// stop, and the run terminates normally on the demes that remain. The
// submitting node always owns the terminal Result: a best-of-fleet
// reduction with per-node provenance, degraded peers marked.
//
// Failover. With Config.FailoverEnabled, degradation is the fallback,
// not the first response. It is a fleet-wide setting, like the peer list:
// the shard's node decides whether to ship checkpoints and the owner's
// node whether to use them. Every shard hosted away from the owner's
// node piggybacks its newest epoch checkpoint (per-deme population, RNG
// streams, epoch counter) on the migrant batch pushed to the owner's
// node, which tracks the latest checkpoint per shard rank; a shard on
// the owner's node ships nothing, since it would die with the owner, and
// a fleet without failover ships no checkpoints at all. Genomes travel in
// solver.Genome's packed frame. When a shard's job dies with its node, the
// owner health-probes the peer (bounded retries); if the peer is
// confirmed dead and a checkpoint exists, the owner resubmits the shard
// — resumed warm from that checkpoint — onto the least-loaded surviving
// node, and broadcasts the rebinding so the survivors clear the rank's
// degradation and re-route its batches. The resumed shard replays its
// checkpointed epochs without waiting at barriers the fleet has already
// passed (fast-forward), then rejoins the exchange. Only a shard that
// never checkpointed (died during epoch 0, or its node runs without
// failover), a peer that is merely slow (probe succeeds), or a failed
// resubmission falls back to degradation.
package federation

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/solver"
)

// Bounds on what the migrant inbox accepts; they protect the daemon from
// hostile or runaway peers, sitting far above anything a real fleet ships.
const (
	// MaxBatchMigrants bounds the migrants in one POSTed batch.
	MaxBatchMigrants = 4096
	// MaxBatchBytes bounds the POST /v1/federation/migrants and
	// /v1/federation/resubmit bodies. A piggybacked checkpoint rides
	// inside this cap; a shard population too large to fit simply loses
	// failover coverage (push fails, owner keeps no checkpoint) and falls
	// back to degradation.
	MaxBatchBytes = 8 << 20
	// epochWindow bounds how far ahead of the local barrier a buffered
	// batch may run; beyond it the sender has long since degraded us.
	epochWindow = 16
	// maxPendingBatches bounds batches buffered for keys whose shard has
	// not started yet (the peer submitted and raced ahead).
	maxPendingBatches = 512
)

// Config parameterises a Node.
type Config struct {
	// Self is this node's advertised base URL (e.g. "http://10.0.0.1:8410");
	// it must appear in Peers.
	Self string
	// Peers is the full static fleet, Self included, in any order; ranks
	// are derived from the sorted list, identically on every node.
	Peers []string
	// Service is the node's job service. New registers itself as the
	// service's migrant exchange.
	Service *solver.Service
	// EpochTimeout bounds how long an epoch barrier waits for a peer's
	// batch before degrading it (default 5s). Must comfortably exceed the
	// fleet's slowest epoch compute time, or healthy peers degrade and
	// determinism is lost. A spec overrides it per job via
	// params.fed_epoch_timeout_ms.
	EpochTimeout time.Duration
	// PushTimeout bounds one migrant push attempt (default 2s).
	PushTimeout time.Duration
	// MaxRetries and RetryBackoff configure the typed client's transient
	// retry policy for pushes and shard submissions (defaults: client's).
	MaxRetries   int
	RetryBackoff time.Duration
	// FailoverEnabled turns on shard failover: lost shards are resumed
	// from their last piggybacked checkpoint on a surviving node instead
	// of being degraded (see the package doc's Failover paragraph). Set it
	// on every node: shards only ship checkpoints from nodes that have it,
	// and only owners that have it track and use them.
	FailoverEnabled bool
	// ProbeRetries bounds the health probes of a silent peer before it is
	// declared dead (default 3).
	ProbeRetries int
	// ProbeInterval is the delay between health probes (default 500ms).
	ProbeInterval time.Duration
	// NewClient overrides client construction (tests inject doctored
	// transports). Default: a client.Client with the settings above.
	NewClient func(base string) *client.Client
	// Logf receives degradation and transport diagnostics (default silent).
	Logf func(format string, args ...any)
}

// Node is one member of the fleet. It implements solver.MigrantExchange
// (the shard-side epoch barrier) and serve.Federation (the submit-side
// fan-out and the stats hook), and serves the federation endpoints via
// Handler.
type Node struct {
	cfg     Config
	peers   []string // sorted, self included
	rank    int      // index of Self in peers
	svc     *solver.Service
	clients []*client.Client // by rank; nil at self
	logf    func(format string, args ...any)

	mu sync.Mutex
	// runs is keyed (run key, shard rank): after a failover two shards of
	// one key may be co-hosted on one node.
	runs map[string]map[int]*run
	// routes maps a shard rank to the fleet rank currently hosting it,
	// for keys this node participates in; absent means identity (shard r
	// on node r). Rebind broadcasts populate it.
	routes map[string]map[int]int
	// owned marks keys whose owner job runs here; ckpts tracks, for owned
	// keys only, the newest piggybacked checkpoint per shard rank.
	owned map[string]bool
	ckpts map[string]map[int]*solver.Checkpoint
	// fastFwd pre-registers the fleet epoch a resubmitted shard should
	// fast-forward to; consumed by ShardStarted.
	fastFwd    map[string]map[int]int
	pending    map[string][]*serve.MigrantBatch
	pendingN   int
	dropLogged bool // inbox-overflow drops log once per process, count always

	// nonce makes run keys unique per process incarnation: peers keep
	// their idempotency maps and pending batches in memory across this
	// node's restart, so a restarted owner reusing "f<rank>-<seq>" would
	// be deduped to a previous run's shard jobs and adopt its strays.
	nonce  string
	keySeq atomic.Int64

	// Monotonic counters (see serve.FederationCounters). Accepted counts
	// migrants handed to a barrier's run; rejected counts the subset the
	// solver's per-encoding validation then dropped.
	sent         atomic.Int64
	accepted     atomic.Int64
	rejected     atomic.Int64
	timeouts     atomic.Int64
	shards       atomic.Int64
	failovers    atomic.Int64
	inboxDropped atomic.Int64
}

// run is the exchange state of one live shard: the inbox of peer batches
// keyed epoch → sender rank, the barrier's notification channel, and the
// per-run degradation and completion sets.
type run struct {
	rank         int
	nodes        int
	epochTimeout time.Duration

	mu     sync.Mutex
	notify chan struct{} // closed and replaced on every delivery
	epoch  int           // the barrier currently (or next) waited on
	// fastForward: barriers below it collect without waiting — a
	// failover-resumed shard replaying epochs the fleet already passed
	// must not stall an epochTimeout per replayed epoch.
	fastForward int
	batches     map[int]map[int]*serve.MigrantBatch
	finished    map[int]bool // ranks whose sender declared Done
	degraded    map[int]bool // ranks that missed a barrier; never waited again
}

// New builds the node, derives its rank from the sorted peer list and
// registers it as cfg.Service's migrant exchange.
func New(cfg Config) (*Node, error) {
	if cfg.Service == nil {
		return nil, fmt.Errorf("federation: Config.Service is required")
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("federation: Config.Self is required")
	}
	if cfg.EpochTimeout <= 0 {
		cfg.EpochTimeout = 5 * time.Second
	}
	if cfg.PushTimeout <= 0 {
		cfg.PushTimeout = 2 * time.Second
	}
	if cfg.ProbeRetries <= 0 {
		cfg.ProbeRetries = 3
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	peers := append([]string(nil), cfg.Peers...)
	sort.Strings(peers)
	// Dedup (a repeated address would split one node over two ranks).
	peers = dedup(peers)
	rank := -1
	for i, p := range peers {
		if p == cfg.Self {
			rank = i
		}
	}
	if rank < 0 {
		return nil, fmt.Errorf("federation: Self %q not in Peers %v", cfg.Self, peers)
	}
	n := &Node{
		cfg:     cfg,
		peers:   peers,
		rank:    rank,
		svc:     cfg.Service,
		clients: make([]*client.Client, len(peers)),
		logf:    cfg.Logf,
		runs:    map[string]map[int]*run{},
		routes:  map[string]map[int]int{},
		owned:   map[string]bool{},
		ckpts:   map[string]map[int]*solver.Checkpoint{},
		fastFwd: map[string]map[int]int{},
		pending: map[string][]*serve.MigrantBatch{},
		nonce:   newNonce(),
	}
	newClient := cfg.NewClient
	if newClient == nil {
		newClient = func(base string) *client.Client {
			return &client.Client{
				BaseURL:        base,
				MaxRetries:     cfg.MaxRetries,
				RetryBackoff:   cfg.RetryBackoff,
				RequestTimeout: cfg.PushTimeout,
			}
		}
	}
	for i, p := range peers {
		if i != rank {
			n.clients[i] = newClient(p)
		}
	}
	n.svc.Exchange = n
	return n, nil
}

// newNonce returns a short random hex string identifying this process
// incarnation; it is folded into every run key (see Node.nonce).
func newNonce() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Nothing secret here — fall back to a time-derived value.
		return strconv.FormatInt(time.Now().UnixNano(), 36)
	}
	return hex.EncodeToString(b[:])
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// ownerRank parses the owner's fleet rank out of a run key
// ("f<rank>-<nonce>-<seq>", see SubmitFederated); -1 if the key does not
// carry one. Keys are fleet-generated, so within a healthy fleet the
// parse always succeeds; a foreign key simply gets no checkpoint
// tracking.
func ownerRank(key string) int {
	if len(key) < 2 || key[0] != 'f' {
		return -1
	}
	i := strings.IndexByte(key, '-')
	if i < 0 {
		return -1
	}
	r, err := strconv.Atoi(key[1:i])
	if err != nil || r < 0 {
		return -1
	}
	return r
}

// Self returns this node's advertised address.
func (n *Node) Self() string { return n.cfg.Self }

// Rank returns this node's rank in the sorted fleet.
func (n *Node) Rank() int { return n.rank }

// Peers returns the sorted fleet, self included.
func (n *Node) Peers() []string { return append([]string(nil), n.peers...) }

// Counters snapshots the federation counters.
func (n *Node) Counters() serve.FederationCounters {
	return serve.FederationCounters{
		MigrantsSent:     n.sent.Load(),
		MigrantsAccepted: n.accepted.Load(),
		MigrantsRejected: n.rejected.Load(),
		PeerTimeouts:     n.timeouts.Load(),
		Shards:           n.shards.Load(),
		Failovers:        n.failovers.Load(),
		InboxDropped:     n.inboxDropped.Load(),
	}
}

// StatsText implements serve.Federation.
func (n *Node) StatsText() string {
	return serve.FederationStatsText(len(n.peers), n.Counters())
}

// activeJobs is this node's pending+running job count — the load signal
// failover target selection compares across survivors.
func (n *Node) activeJobs() int {
	st := n.svc.Stats()
	return st.Jobs[solver.JobPending] + st.Jobs[solver.JobRunning]
}

// Handler serves the federation endpoints; cmd/schedserver composes it in
// front of the main API handler.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/federation/migrants", n.handleMigrants)
	mux.HandleFunc("GET /v1/federation/info", n.handleInfo)
	mux.HandleFunc("POST /v1/federation/rebind", n.handleRebind)
	mux.HandleFunc("POST /v1/federation/resubmit", n.handleResubmit)
	return mux
}

// handleMigrants: POST /v1/federation/migrants — one peer's elites for
// one epoch. Shape-validated here (bounds, rank range); genome validation
// happens at injection, through the solver's per-encoding validators.
func (n *Node) handleMigrants(w http.ResponseWriter, r *http.Request) {
	var batch serve.MigrantBatch
	body := http.MaxBytesReader(w, r.Body, MaxBatchBytes)
	if err := json.NewDecoder(body).Decode(&batch); err != nil {
		writeJSON(w, http.StatusBadRequest, serve.ErrorBody{Error: "parsing batch: " + err.Error()})
		return
	}
	if err := n.checkBatch(&batch); err != nil {
		writeJSON(w, http.StatusBadRequest, serve.ErrorBody{Error: err.Error()})
		return
	}
	n.deliver(&batch)
	writeJSON(w, http.StatusAccepted, struct{}{})
}

func (n *Node) checkBatch(b *serve.MigrantBatch) error {
	switch {
	case b.Key == "" || len(b.Key) > 200:
		return fmt.Errorf("federation: batch key missing or too long")
	case b.Epoch < 0:
		return fmt.Errorf("federation: batch epoch %d is negative", b.Epoch)
	case b.From < 0 || b.From >= len(n.peers):
		return fmt.Errorf("federation: batch sender rank %d outside fleet of %d", b.From, len(n.peers))
	case b.From == n.rank:
		return fmt.Errorf("federation: batch sender rank %d is this node", b.From)
	case len(b.Migrants) > MaxBatchMigrants:
		return fmt.Errorf("federation: batch carries %d migrants, cap %d", len(b.Migrants), MaxBatchMigrants)
	}
	return nil
}

// handleInfo: GET /v1/federation/info.
func (n *Node) handleInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, serve.FederationInfo{
		Self:           n.cfg.Self,
		Peers:          n.Peers(),
		Rank:           n.rank,
		Counters:       n.Counters(),
		EpochTimeoutMS: n.cfg.EpochTimeout.Milliseconds(),
		ActiveJobs:     n.activeJobs(),
	})
}

// handleRebind: POST /v1/federation/rebind — the owner moved a shard rank
// onto a new host. Applied only to keys this node already participates in
// (live runs or ownership); anything else is acknowledged and ignored, so
// strays cannot grow unbounded routing state.
func (n *Node) handleRebind(w http.ResponseWriter, r *http.Request) {
	var req serve.RebindRequest
	body := http.MaxBytesReader(w, r.Body, 1<<16)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, serve.ErrorBody{Error: "parsing rebind: " + err.Error()})
		return
	}
	if req.Key == "" || len(req.Key) > 200 ||
		req.Rank < 0 || req.Rank >= len(n.peers) ||
		req.Node < 0 || req.Node >= len(n.peers) || req.Epoch < 0 {
		writeJSON(w, http.StatusBadRequest, serve.ErrorBody{Error: "federation: rebind coordinates outside fleet"})
		return
	}
	n.applyRebind(req.Key, req.Rank, req.Node)
	writeJSON(w, http.StatusOK, struct{}{})
}

// applyRebind routes future batches for (key, rank) to the given fleet
// node and clears the rank's degradation in live local runs of the key,
// so barriers wait for the resumed shard again.
func (n *Node) applyRebind(key string, rank, node int) {
	n.mu.Lock()
	km := n.runs[key]
	if len(km) > 0 || n.owned[key] {
		rm := n.routes[key]
		if rm == nil {
			rm = map[int]int{}
			n.routes[key] = rm
		}
		rm[rank] = node
	}
	sts := make([]*run, 0, len(km))
	for _, st := range km {
		sts = append(sts, st)
	}
	n.mu.Unlock()
	for _, st := range sts {
		st.mu.Lock()
		delete(st.degraded, rank)
		st.mu.Unlock()
	}
}

// handleResubmit: POST /v1/federation/resubmit — run a lost shard here,
// warm from its checkpoint. The checkpoint passes the same semantic
// validation gate as restart recovery before the job is accepted; a
// damaged one is a 400, never a crash.
func (n *Node) handleResubmit(w http.ResponseWriter, r *http.Request) {
	var req serve.ResubmitRequest
	body := http.MaxBytesReader(w, r.Body, MaxBatchBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, serve.ErrorBody{Error: "parsing resubmit: " + err.Error()})
		return
	}
	spec := req.Spec
	if spec.Params.FedKey == "" || req.Checkpoint == nil || req.FleetEpoch < 0 {
		writeJSON(w, http.StatusBadRequest, serve.ErrorBody{Error: "federation: resubmit needs a shard spec, a checkpoint and a fleet epoch"})
		return
	}
	if err := serve.ValidateSpec(spec); err != nil {
		writeJSON(w, http.StatusBadRequest, serve.ErrorBody{Error: err.Error()})
		return
	}
	if err := solver.ValidateCheckpoint(spec, req.Checkpoint); err != nil {
		writeJSON(w, http.StatusBadRequest, serve.ErrorBody{Error: err.Error()})
		return
	}
	n.setFastForward(spec.Params.FedKey, spec.Params.FedRank, req.FleetEpoch)
	// The job outlives the request — it runs under the service's
	// lifetime, like any submitted job.
	job, err := n.svc.SubmitOpts(context.Background(), spec, solver.SubmitOptions{Resume: req.Checkpoint})
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, serve.ErrorBody{Error: err.Error()})
		return
	}
	n.logf("federation: resumed shard %d of %s from epoch %d as job %s",
		spec.Params.FedRank, spec.Params.FedKey, req.Checkpoint.Epoch, job.ID())
	writeJSON(w, http.StatusCreated, serve.ResubmitResponse{ID: job.ID()})
}

// setFastForward pre-registers the fleet epoch a resubmitted shard should
// replay to without barrier waits; ShardStarted consumes it.
func (n *Node) setFastForward(key string, rank, epoch int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	m := n.fastFwd[key]
	if m == nil {
		m = map[int]int{}
		n.fastFwd[key] = m
	}
	m[rank] = epoch
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// deliver routes an inbound batch to every local run of its key (except
// the sender's own), records its piggybacked checkpoint when this node
// owns the key, or buffers it when no local shard has started yet.
func (n *Node) deliver(b *serve.MigrantBatch) {
	n.mu.Lock()
	if b.Checkpoint != nil && n.cfg.FailoverEnabled && n.owned[b.Key] {
		km := n.ckpts[b.Key]
		if km == nil {
			km = map[int]*solver.Checkpoint{}
			n.ckpts[b.Key] = km
		}
		km[b.From] = b.Checkpoint
	}
	var targets []*run
	for _, st := range n.runs[b.Key] {
		if st.rank != b.From {
			targets = append(targets, st)
		}
	}
	if len(targets) == 0 {
		// No local shard yet. For owned keys the checkpoint above was the
		// batch's payload of interest; still buffer migrants in case a
		// failover co-hosts a shard here later. The buffer also collects
		// strays for keys that already finished (late Done notices,
		// post-finish pushes), so at capacity we evict some other key's
		// strays first — a genuine race is milliseconds old, a stray can
		// be arbitrarily stale.
		if n.pendingN >= maxPendingBatches {
			for k, bs := range n.pending {
				if k != b.Key {
					delete(n.pending, k)
					n.pendingN -= len(bs)
					break
				}
			}
		}
		if n.pendingN >= maxPendingBatches {
			n.inboxDropped.Add(1)
			logIt := !n.dropLogged
			n.dropLogged = true
			n.mu.Unlock()
			if logIt {
				n.logf("federation: pending inbox full, dropping batch %s/%d from %d (counted in inbox_dropped; logged once)", b.Key, b.Epoch, b.From)
			}
			return
		}
		n.pending[b.Key] = append(n.pending[b.Key], b)
		n.pendingN++
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	for _, st := range targets {
		st.deliver(b)
	}
}

// deliver stores one batch in the run's inbox and wakes the barrier.
// At-most-one batch per (epoch, sender) — redelivery (client retries)
// overwrites, which is idempotent because batches are immutable.
func (st *run) deliver(b *serve.MigrantBatch) {
	st.mu.Lock()
	defer st.mu.Unlock()
	// checkBatch bounds From by the fleet, but this run may span fewer
	// nodes — a rank outside the run must not inject into it.
	if b.From >= st.nodes {
		return
	}
	if b.Done {
		st.finished[b.From] = true
	}
	// Reject stale (already collected) and absurdly-early epochs, and
	// senders the run has degraded: a degraded peer does not know it was
	// dropped and keeps pushing, but the barrier no longer waits for it,
	// so whether its batch lands is a timing race — injecting it would
	// make the run nondeterministic.
	if !st.degraded[b.From] && b.Epoch >= st.epoch && b.Epoch < st.epoch+epochWindow && len(b.Migrants) > 0 {
		em := st.batches[b.Epoch]
		if em == nil {
			em = map[int]*serve.MigrantBatch{}
			st.batches[b.Epoch] = em
		}
		em[b.From] = b
	}
	close(st.notify)
	st.notify = make(chan struct{})
}

// ShardStarted implements solver.MigrantExchange: register the run's
// inbox, consume any pre-registered fast-forward epoch, and adopt
// batches that arrived before the shard started. It asks for the shard's
// checkpoints only when failover is enabled here and the owner lives on
// another node: a shard co-hosted with its owner dies with it, so its
// checkpoint could never be resumed from.
func (n *Node) ShardStarted(key string, rank, nodes int, epochTimeoutMS int64) (wantCheckpoints bool) {
	timeout := n.cfg.EpochTimeout
	if epochTimeoutMS > 0 {
		timeout = time.Duration(epochTimeoutMS) * time.Millisecond
	}
	st := &run{
		rank: rank, nodes: nodes, epochTimeout: timeout,
		notify:   make(chan struct{}),
		batches:  map[int]map[int]*serve.MigrantBatch{},
		finished: map[int]bool{},
		degraded: map[int]bool{},
	}
	n.mu.Lock()
	km := n.runs[key]
	if km == nil {
		km = map[int]*run{}
		n.runs[key] = km
	}
	km[rank] = st
	if ff := n.fastFwd[key]; ff != nil {
		if e, ok := ff[rank]; ok {
			st.fastForward = e
			delete(ff, rank)
			if len(ff) == 0 {
				delete(n.fastFwd, key)
			}
		}
	}
	early := n.pending[key]
	delete(n.pending, key)
	n.pendingN -= len(early)
	n.mu.Unlock()
	for _, b := range early {
		if b.From != rank {
			st.deliver(b)
		}
	}
	n.shards.Add(1)
	owner := ownerRank(key)
	return n.cfg.FailoverEnabled && owner >= 0 && owner != n.rank
}

// MigrantRejected implements solver.MigrantExchange.
func (n *Node) MigrantRejected(string) { n.rejected.Add(1) }

// ShardFinished implements solver.MigrantExchange: tell the peers not to
// wait for this shard at any further barrier, then drop the inbox.
func (n *Node) ShardFinished(key string, rank int) {
	n.mu.Lock()
	km := n.runs[key]
	var st *run
	if km != nil {
		st = km[rank]
		delete(km, rank)
		if len(km) == 0 {
			delete(n.runs, key)
			if !n.owned[key] {
				delete(n.routes, key)
			}
		}
	}
	n.mu.Unlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	epoch := st.epoch
	degraded := make(map[int]bool, len(st.degraded))
	for r := range st.degraded {
		degraded[r] = true
	}
	st.mu.Unlock()
	done := serve.MigrantBatch{Key: key, Epoch: epoch, From: st.rank, Done: true}
	for _, h := range n.peerHosts(key, st, degraded) {
		if h == n.rank {
			b := done
			go n.deliver(&b)
			continue
		}
		go n.push(h, done)
	}
}

// peerHosts resolves the distinct fleet nodes currently hosting the
// run's other live shard ranks, mapping ranks through failover rebinds
// (identity by default). A co-hosted shard resolves to self — the caller
// delivers locally instead of pushing.
func (n *Node) peerHosts(key string, st *run, degraded map[int]bool) []int {
	n.mu.Lock()
	route := n.routes[key]
	n.mu.Unlock()
	seen := map[int]bool{}
	var out []int
	for r := 0; r < st.nodes && r < len(n.peers); r++ {
		if r == st.rank || degraded[r] {
			continue
		}
		h := r
		if v, ok := route[r]; ok {
			h = v
		}
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}

// push ships one batch to one peer with the retrying client, bounded by
// PushTimeout per attempt.
func (n *Node) push(rank int, b serve.MigrantBatch) {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.PushTimeout*time.Duration(n.clientRetries()+1)*2)
	defer cancel()
	if err := n.clients[rank].PushMigrants(ctx, b); err != nil {
		n.logf("federation: push %s/%d to %s: %v", b.Key, b.Epoch, n.peers[rank], err)
		return
	}
	n.sent.Add(int64(len(b.Migrants)))
}

func (n *Node) clientRetries() int {
	if n.cfg.MaxRetries != 0 {
		if n.cfg.MaxRetries < 0 {
			return 0
		}
		return n.cfg.MaxRetries
	}
	return 3
}

// ExchangeMigrants implements solver.MigrantExchange: one epoch barrier.
// Ship the local elites to every live peer (the batch bound for the
// owner's node carries cp, when the shard ships one), wait (bounded) for
// each live peer's batch for this epoch, degrade the ones that miss it,
// and return the arrived migrants in sender-rank order. Barriers below
// the run's fast-forward epoch collect without waiting.
func (n *Node) ExchangeMigrants(ctx context.Context, key string, rank, epoch int, out []solver.Migrant, cp *solver.Checkpoint) solver.ExchangeReport {
	n.mu.Lock()
	st := n.runs[key][rank]
	n.mu.Unlock()
	if st == nil {
		return solver.ExchangeReport{}
	}

	st.mu.Lock()
	st.epoch = epoch
	wait := epoch >= st.fastForward
	timeout := st.epochTimeout
	waiting := make([]int, 0, st.nodes)
	for r := 0; r < st.nodes && r < len(n.peers); r++ {
		if r != st.rank && !st.degraded[r] {
			waiting = append(waiting, r)
		}
	}
	degraded := make(map[int]bool, len(st.degraded))
	for r := range st.degraded {
		degraded[r] = true
	}
	st.mu.Unlock()

	// Ship our elites asynchronously: the barrier depends on the peers'
	// pushes, not our own, and a dead peer must not serialise retries
	// into the epoch. The owner's node additionally gets the shard's
	// checkpoint — on the migrant batch when the owner hosts a live
	// shard, on a dedicated empty batch otherwise.
	owner := ownerRank(key)
	ownerServed := false
	for _, h := range n.peerHosts(key, st, degraded) {
		b := serve.MigrantBatch{Key: key, Epoch: epoch, From: st.rank, Migrants: out}
		if h == owner {
			b.Checkpoint = cp
			ownerServed = true
		}
		if h == n.rank {
			bb := b
			go n.deliver(&bb)
			continue
		}
		go n.push(h, b)
	}
	if cp != nil && owner >= 0 && !ownerServed {
		if owner == n.rank {
			n.deliver(&serve.MigrantBatch{Key: key, Epoch: epoch, From: st.rank, Checkpoint: cp})
		} else {
			go n.push(owner, serve.MigrantBatch{Key: key, Epoch: epoch, From: st.rank, Checkpoint: cp})
		}
	}

	var report solver.ExchangeReport
	if wait {
		deadline := time.NewTimer(timeout)
		defer deadline.Stop()
		for {
			st.mu.Lock()
			missing := missingRanks(st, epoch, waiting)
			notify := st.notify
			st.mu.Unlock()
			if len(missing) == 0 {
				break
			}
			select {
			case <-notify:
			case <-deadline.C:
				st.mu.Lock()
				for _, r := range missingRanks(st, epoch, waiting) {
					st.degraded[r] = true
					n.timeouts.Add(1)
					report.Degraded = append(report.Degraded, n.peers[r])
					n.logf("federation: %s epoch %d: peer %s missed the barrier, degraded", key, epoch, n.peers[r])
				}
				st.mu.Unlock()
			case <-ctx.Done():
				// Cancellation mid-barrier: return what arrived; the run is
				// stopping anyway.
			}
			if ctx.Err() != nil {
				break
			}
		}
	}

	// Collect in sender-rank order — the injection order every node must
	// agree on for the run to be replayable. Only ranks the barrier
	// actually waited on are injected: a sender degraded at this barrier
	// (or earlier, with its batch buffered out of order before the
	// degradation) raced the timeout, and injecting it would be
	// nondeterministic.
	st.mu.Lock()
	em := st.batches[epoch]
	ranks := make([]int, 0, len(em))
	for r := range em {
		if !st.degraded[r] && r < st.nodes {
			ranks = append(ranks, r)
		}
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		report.In = append(report.In, em[r].Migrants...)
	}
	// Drop this epoch and anything staler; redeliveries are stale now.
	for e := range st.batches {
		if e <= epoch {
			delete(st.batches, e)
		}
	}
	st.epoch = epoch + 1
	st.mu.Unlock()
	n.accepted.Add(int64(len(report.In)))
	return report
}

// missingRanks lists the waited-on ranks whose epoch batch has not
// arrived and whose sender has neither finished nor been degraded.
// Callers hold st.mu.
func missingRanks(st *run, epoch int, waiting []int) []int {
	var out []int
	for _, r := range waiting {
		if st.degraded[r] || st.finished[r] {
			continue
		}
		if em := st.batches[epoch]; em != nil && em[r] != nil {
			continue
		}
		out = append(out, r)
	}
	return out
}
