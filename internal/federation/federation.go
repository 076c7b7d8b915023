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
// Transport. Each node keeps one long-lived, ordered migrant stream to
// every peer it sends to (stream.go): a shard writes its epoch batches
// and its final Done notice onto it from its own goroutine, nothing is
// acknowledged, and the peer delivers the frames in the order written.
// A batch for a key whose shard has not started here is buffered until
// it starts; once the key's shards here have finished, its peers' final
// batches are dropped until their Done notices have arrived. The inbox
// stamps each batch's arrival, which splits a barrier's wait into the
// peer's lateness and the wake-up (barrier_late_ns and barrier_wake_ns).
//
// Determinism. Each shard derives its RNG from the job seed split
// FedNodes ways at its rank (the same rng.SplitN discipline the sharded
// engine pipeline uses), and migrants are injected one epoch late: the
// barrier at epoch e ships the shard's epoch-e elites and injects the
// batches the peers sent at epoch e-1, in sender-rank order. It blocks
// until every live peer's e-1 batch arrived, so it waits only for a peer
// more than an epoch behind. Epoch 0 injects nothing, but waits for the
// epoch-0 batches, so the shards start in step and a dead peer is found
// at the first barrier. A sender's Done follows its final batch on the
// same stream, so a finished sender is never waited for, and every batch
// a barrier injects arrived before that Done. When every shard runs the
// same epochs (a generation budget), no barrier injects a final batch:
// the last barrier injects the one before it. The final batch carries
// the sender's own elites, which its NodeResult reports, so the fleet
// best is unaffected. (A shard that stops early on its target leaves its
// peers running; their next barrier injects its final batch, which
// arrived before its Done either way.) A federated run over a healthy
// fleet is therefore replayable: the same fleet shape and seed reproduce
// the same trajectory, evaluation count included.
// A run that needed a failover is not bit-replayable (the resumed shard
// rejoins mid-stream, and its checkpoint does not carry the peers' batch
// it would have injected next); its determinism guarantee is traded for
// the stronger result guarantee below.
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
// node (the owner's own included), and broadcasts the rebinding so the
// survivors clear the rank's degradation and re-route its batches. The
// shard spec travels with the budget it was submitted with; the solver
// grants the resumed shard only what its checkpoint left of the wall
// budget. The resumed shard replays its checkpointed epochs without
// waiting at barriers the fleet has already passed (fast-forward), then
// rejoins the exchange; with the lag, its barriers wait only for batches
// sent at or after the fast-forward epoch, since the older ones went to
// the dead host. Only a shard that
// never checkpointed (died during epoch 0, or its node runs without
// failover), a peer that is merely slow (probe succeeds), or a failed
// resubmission falls back to degradation.
package federation

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
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
	// MaxBatchMigrants bounds the migrants in one batch.
	MaxBatchMigrants = 4096
	// MaxBatchBytes bounds one migrant stream frame and the
	// /v1/federation/resubmit body. A piggybacked checkpoint rides inside
	// this cap; a shard population too large to fit is sent without it,
	// so the shard loses failover coverage (the owner keeps no checkpoint)
	// and falls back to degradation.
	MaxBatchBytes = 8 << 20
	// epochWindow bounds how far ahead of the local barrier a buffered
	// batch may run; beyond it the sender has long since degraded us.
	epochWindow = 16
	// maxPendingBatches bounds batches buffered for keys whose shard has
	// not started yet (the peer submitted and raced ahead), together with
	// the records of keys finished here whose peers' Done is still due.
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
	// PushTimeout bounds one frame's send on a migrant stream, a dial and
	// one re-send included, and each health probe (default 2s).
	PushTimeout time.Duration
	// MaxRetries and RetryBackoff configure the typed client's transient
	// retry policy for shard submissions and rebinds (defaults: client's).
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
// fan-out and the Info snapshot), and serves the federation endpoints via
// Handler.
type Node struct {
	cfg     Config
	peers   []string // sorted, self included
	rank    int      // index of Self in peers
	svc     *solver.Service
	clients []*client.Client // by rank; nil at self
	streams []*peerStream    // outbound migrant streams by rank; nil at self
	logf    func(format string, args ...any)

	// mu guards the fields below; a run's own mu nests inside it. parked
	// sums keyState.held, bounded by maxPendingBatches.
	mu         sync.Mutex
	keys       map[string]*keyState
	parked     int
	dropLogged bool // inbox-overflow drops log once per process, count always
	// conns holds every live migrant stream connection, inbound and
	// outbound, for Close; closed refuses new ones. streamers counts the
	// goroutines that serve them (see track).
	conns     map[io.Closer]struct{}
	closed    bool
	streamers sync.WaitGroup

	// nonce makes run keys unique per process incarnation: peers keep
	// their idempotency maps and pending batches in memory across this
	// node's restart, so a restarted owner reusing "f<rank>-<seq>" would
	// be deduped to a previous run's shard jobs and adopt its strays.
	nonce  string
	keySeq atomic.Int64

	// Monotonic counters (see serve.FederationCounters). Accepted counts
	// migrants handed to a barrier's run; rejected counts the subset the
	// solver's per-encoding validation then dropped.
	sent           atomic.Int64
	accepted       atomic.Int64
	rejected       atomic.Int64
	timeouts       atomic.Int64
	shards         atomic.Int64
	failovers      atomic.Int64
	inboxDropped   atomic.Int64
	streamFailures atomic.Int64
	framesRejected atomic.Int64
	barrierLateNS  atomic.Int64
	barrierWakeNS  atomic.Int64
	barriers       atomic.Int64
}

// keyState is everything a node tracks for one run key. withKey creates
// it on first use; settle releases it.
type keyState struct {
	// runs holds the key's live shard runs here by shard rank: after a
	// failover two shards of one key may be co-hosted on one node.
	runs map[int]*run
	// routes maps a shard rank to the fleet rank hosting it; absent means
	// identity (shard r on node r). Rebind broadcasts populate it.
	routes map[int]int
	// owned marks a key whose owner job runs here; ckpts holds, for an
	// owned key, the newest piggybacked checkpoint per shard rank.
	owned bool
	ckpts map[int]*solver.Checkpoint
	// fastFwd pre-registers the fleet epoch a resubmitted shard rank
	// replays to without barrier waits; consumed by ShardStarted.
	fastFwd map[int]int
	// early buffers batches that arrived before a local shard started.
	early []*serve.MigrantBatch
	// doneDue is set when the key's last local run ends: the peer ranks,
	// neither degraded nor finished then, whose Done is still due here.
	doneDue map[int]bool
	// held is what the key counts against maxPendingBatches: its early
	// batches, or one for a finished key's record.
	held int
}

// finished reports whether the key's runs here all ended and none can
// start again: nothing here injects the peers' batches that still come.
func (k *keyState) finished() bool {
	return k.doneDue != nil && len(k.runs) == 0 && len(k.fastFwd) == 0 && !k.owned
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
	// epoch is the barrier currently (or next) waited on; it collects the
	// peers' batches of epoch-1 (see ExchangeMigrants).
	epoch int
	// fastForward: barriers whose batches come from below it collect
	// without waiting — a failover-resumed shard replaying epochs the
	// fleet already passed must not stall an epochTimeout per replayed
	// epoch, nor wait for a batch the peers sent to the dead host.
	fastForward int
	batches     map[int]map[int]inbound
	finished    map[int]time.Time // ranks whose sender declared Done, and when
	degraded    map[int]bool      // ranks that missed a barrier; never waited again
}

// inbound is one buffered batch and the time it reached the inbox, which
// splits a barrier's wait into the peer's lateness and the wake-up.
type inbound struct {
	b  *serve.MigrantBatch
	at time.Time
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
		streams: make([]*peerStream, len(peers)),
		logf:    cfg.Logf,
		keys:    map[string]*keyState{},
		conns:   map[io.Closer]struct{}{},
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
			n.streams[i] = &peerStream{n: n, rank: i}
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
// carry a rank of this fleet. Keys are fleet-generated, so within a
// healthy fleet the parse always succeeds; a foreign key (a shard spec
// submitted by hand) simply gets no checkpoint tracking.
func (n *Node) ownerRank(key string) int {
	if len(key) < 2 || key[0] != 'f' {
		return -1
	}
	i := strings.IndexByte(key, '-')
	if i < 0 {
		return -1
	}
	r, err := strconv.Atoi(key[1:i])
	if err != nil || r < 0 || r >= len(n.peers) {
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
	// Every barrier splits its whole wait into late and wake, so the
	// total wait is their sum.
	late, wake := n.barrierLateNS.Load(), n.barrierWakeNS.Load()
	return serve.FederationCounters{
		MigrantsSent:     n.sent.Load(),
		MigrantsAccepted: n.accepted.Load(),
		MigrantsRejected: n.rejected.Load(),
		PeerTimeouts:     n.timeouts.Load(),
		Shards:           n.shards.Load(),
		Failovers:        n.failovers.Load(),
		InboxDropped:     n.inboxDropped.Load(),
		StreamFailures:   n.streamFailures.Load(),
		FramesRejected:   n.framesRejected.Load(),
		BarrierWaitNS:    late + wake,
		Barriers:         n.barriers.Load(),
		BarrierLateNS:    late,
		BarrierWakeNS:    wake,
	}
}

// Info implements serve.Federation: the snapshot GET /v1/federation/info
// encodes as JSON and GET /v1/stats renders as Prometheus text.
func (n *Node) Info() serve.FederationInfo {
	return serve.FederationInfo{
		Self:           n.cfg.Self,
		Peers:          n.Peers(),
		Rank:           n.rank,
		Counters:       n.Counters(),
		EpochTimeoutMS: n.cfg.EpochTimeout.Milliseconds(),
		ActiveJobs:     n.activeJobs(),
	}
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
	mux.HandleFunc("POST /v1/federation/stream", n.handleStream)
	mux.HandleFunc("GET /v1/federation/info", n.handleInfo)
	mux.HandleFunc("POST /v1/federation/rebind", n.handleRebind)
	mux.HandleFunc("POST /v1/federation/resubmit", n.handleResubmit)
	return mux
}

// checkBatch shape-validates an inbound batch (bounds, rank range);
// genome validation happens at injection, through the solver's
// per-encoding validators.
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
	serve.WriteJSON(w, http.StatusOK, n.Info())
}

// handleRebind: POST /v1/federation/rebind — the owner moved a shard rank
// onto a new host. A rebind for a key this node holds no state for leaves
// none, so strays cannot grow routing state.
func (n *Node) handleRebind(w http.ResponseWriter, r *http.Request) {
	var req serve.RebindRequest
	body := http.MaxBytesReader(w, r.Body, 1<<16)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("parsing rebind: %w", err))
		return
	}
	if req.Key == "" || len(req.Key) > 200 ||
		req.Rank < 0 || req.Rank >= len(n.peers) ||
		req.Node < 0 || req.Node >= len(n.peers) || req.Epoch < 0 {
		serve.WriteError(w, http.StatusBadRequest, errors.New("federation: rebind coordinates outside fleet"))
		return
	}
	n.applyRebind(req.Key, req.Rank, req.Node)
	serve.WriteJSON(w, http.StatusOK, struct{}{})
}

// applyRebind routes future batches for (key, rank) to the given fleet
// node and clears the rank's degradation in live local runs of the key,
// so barriers wait for the resumed shard again. A rebind onto this node
// re-opens a finished key.
func (n *Node) applyRebind(key string, rank, node int) {
	n.withKey(key, func(k *keyState) {
		if node == n.rank {
			k.doneDue = nil
		}
		k.routes[rank] = node
		for _, st := range k.runs {
			st.mu.Lock()
			delete(st.degraded, rank)
			st.mu.Unlock()
		}
	})
}

// handleResubmit: POST /v1/federation/resubmit — run a lost shard here,
// warm from its checkpoint (resumeLocal). A spec or checkpoint the gates
// reject is a 400, a service that takes no job a 422.
func (n *Node) handleResubmit(w http.ResponseWriter, r *http.Request) {
	var req serve.ResubmitRequest
	body := http.MaxBytesReader(w, r.Body, MaxBatchBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("parsing resubmit: %w", err))
		return
	}
	spec := req.Spec
	if spec.Params.FedKey == "" || req.Checkpoint == nil || req.FleetEpoch < 0 {
		serve.WriteError(w, http.StatusBadRequest, errors.New("federation: resubmit needs a shard spec, a checkpoint and a fleet epoch"))
		return
	}
	// The job outlives the request — it runs under the service's
	// lifetime, like any submitted job.
	job, err := n.resumeLocal(context.Background(), spec, req.Checkpoint, req.FleetEpoch)
	switch {
	case errors.Is(err, solver.ErrDraining) || errors.Is(err, solver.ErrBusy):
		serve.WriteError(w, http.StatusUnprocessableEntity, err)
		return
	case err != nil:
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	n.logf("federation: resumed shard %d of %s from epoch %d as job %s",
		spec.Params.FedRank, spec.Params.FedKey, req.Checkpoint.Epoch, job.ID())
	serve.WriteJSON(w, http.StatusCreated, serve.ResubmitResponse{ID: job.ID()})
}

// setFastForward pre-registers the fleet epoch a resubmitted shard should
// replay to without barrier waits; ShardStarted consumes it.
func (n *Node) setFastForward(key string, rank, epoch int) {
	n.withKey(key, func(k *keyState) { k.fastFwd[rank] = epoch })
}

// withKey runs fn on key's state under n.mu, creating the state first,
// and then settles it: a state fn leaves empty is released at once.
func (n *Node) withKey(key string, fn func(*keyState)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := n.keys[key]
	if k == nil {
		k = &keyState{runs: map[int]*run{}, routes: map[int]int{}, ckpts: map[int]*solver.Checkpoint{}, fastFwd: map[int]int{}}
		n.keys[key] = k
	}
	fn(k)
	n.settle(key, k)
}

// settle is the one place a key's state is released; callers hold n.mu
// and call it after changing k. A finished key drops its early batches,
// a key that takes the node past the cap evicts another's, and the state
// goes once no run, ownership, fast-forward, batch or due Done is left.
func (n *Node) settle(key string, k *keyState) {
	held := len(k.early)
	if k.finished() {
		k.early, held = nil, min(len(k.doneDue), 1)
	}
	n.parked += held - k.held
	k.held = held
	if held == 0 && len(k.runs) == 0 && !k.owned && len(k.fastFwd) == 0 {
		delete(n.keys, key)
	}
	if n.parked > maxPendingBatches {
		n.evict(key)
	}
}

// evict makes room under maxPendingBatches for key, dropping another
// key's finished record (a Done lost with its frame) before any key's
// early batches. False when no other key holds any. Callers hold n.mu.
func (n *Node) evict(key string) bool {
	var v *keyState
	vkey := ""
	for kk, k := range n.keys {
		if kk != key && k.held > 0 && (v == nil || len(v.early) > 0) {
			v, vkey = k, kk
		}
	}
	if v != nil {
		v.early, v.doneDue = nil, nil
		n.settle(vkey, v)
	}
	return v != nil
}

// deliver routes an inbound batch to every local run of its key (except
// the sender's own) and records its piggybacked checkpoint when this node
// owns the key. With no run to take it, a batch with migrants or a Done is
// buffered until a shard of the key starts here, unless the key finished.
func (n *Node) deliver(b *serve.MigrantBatch) {
	logDrop := false
	n.withKey(b.Key, func(k *keyState) {
		if b.Checkpoint != nil && n.cfg.FailoverEnabled && k.owned {
			k.ckpts[b.From] = b.Checkpoint
		}
		// Delivering under n.mu orders a Done against ShardFinished's
		// record of the Done notices still due.
		delivered := false
		for _, st := range k.runs {
			if st.rank != b.From {
				st.deliver(b)
				delivered = true
			}
		}
		if b.Done {
			delete(k.doneDue, b.From)
		}
		switch {
		case delivered, k.finished():
		case !b.Done && len(b.Migrants) == 0:
			// A checkpoint-only batch: nothing in it would be injected.
		case n.parked >= maxPendingBatches && !n.evict(b.Key):
			n.inboxDropped.Add(1)
			logDrop, n.dropLogged = !n.dropLogged, true
		default:
			k.early = append(k.early, b)
		}
	})
	if logDrop {
		n.logf("federation: pending inbox full, dropping batch %s/%d from %d (counted in inbox_dropped; logged once)", b.Key, b.Epoch, b.From)
	}
}

// deliver stores one batch in the run's inbox and wakes the barrier.
// At-most-one batch per (epoch, sender) — redelivery (a re-send after a
// stream failure) overwrites, which is idempotent because batches are
// immutable.
func (st *run) deliver(b *serve.MigrantBatch) {
	st.mu.Lock()
	defer st.mu.Unlock()
	// checkBatch bounds From by the fleet, but this run may span fewer
	// nodes — a rank outside the run must not inject into it.
	if b.From >= st.nodes {
		return
	}
	now := time.Now()
	if b.Done {
		st.finished[b.From] = now
	}
	// Reject stale (already collected) and absurdly-early epochs, and
	// senders the run has degraded: a degraded peer does not know it was
	// dropped and keeps pushing, but the barrier no longer waits for it,
	// so whether its batch lands is a timing race — injecting it would
	// make the run nondeterministic. The barrier at st.epoch collects the
	// batches of st.epoch-1, so that is the oldest one still wanted.
	oldest := st.epoch - 1
	if !st.degraded[b.From] && b.Epoch >= oldest && b.Epoch < oldest+epochWindow && len(b.Migrants) > 0 {
		em := st.batches[b.Epoch]
		if em == nil {
			em = map[int]inbound{}
			st.batches[b.Epoch] = em
		}
		em[b.From] = inbound{b, now}
	}
	close(st.notify)
	st.notify = make(chan struct{})
}

// ShardStarted implements solver.MigrantExchange: register the run's
// inbox, consume any pre-registered fast-forward epoch, and adopt
// batches that arrived before the shard started, and opens the streams
// to the run's peers so its first epoch pays no dial. It asks for the
// shard's checkpoints only when failover is enabled here and the owner
// lives on another node: a shard co-hosted with its owner dies with it,
// so its checkpoint could never be resumed from.
func (n *Node) ShardStarted(key string, rank, nodes int, epochTimeoutMS int64) (wantCheckpoints bool) {
	timeout := n.cfg.EpochTimeout
	if epochTimeoutMS > 0 {
		timeout = time.Duration(epochTimeoutMS) * time.Millisecond
	}
	st := &run{
		rank: rank, nodes: nodes, epochTimeout: timeout,
		notify:   make(chan struct{}),
		batches:  map[int]map[int]inbound{},
		finished: map[int]time.Time{},
		degraded: map[int]bool{},
	}
	var hosts []int
	n.withKey(key, func(k *keyState) {
		k.runs[rank] = st
		k.doneDue = nil
		if e, ok := k.fastFwd[rank]; ok {
			st.fastForward = e
			delete(k.fastFwd, rank)
		}
		for _, b := range k.early {
			if b.From != rank {
				st.deliver(b)
			}
		}
		k.early = nil
		hosts = n.peerHosts(k, st, nil)
	})
	for _, h := range hosts {
		if h != n.rank {
			n.streams[h].predial()
		}
	}
	n.shards.Add(1)
	owner := n.ownerRank(key)
	return n.cfg.FailoverEnabled && owner >= 0 && owner != n.rank
}

// MigrantRejected implements solver.MigrantExchange.
func (n *Node) MigrantRejected(string) { n.rejected.Add(1) }

// ShardFinished implements solver.MigrantExchange: tell the peers not to
// wait for this shard at any further barrier, then drop the inbox. The
// Done notice follows the shard's final batch on each stream.
func (n *Node) ShardFinished(key string, rank int) {
	var done *serve.MigrantBatch
	var hosts []int
	n.withKey(key, func(k *keyState) {
		st := k.runs[rank]
		if st == nil {
			return
		}
		delete(k.runs, rank)
		st.mu.Lock()
		defer st.mu.Unlock()
		done = &serve.MigrantBatch{Key: key, Epoch: st.epoch, From: rank, Done: true}
		hosts = n.peerHosts(k, st, st.degraded)
		if len(k.runs) == 0 {
			// No co-hosted shard is left to tell.
			hosts = slices.DeleteFunc(hosts, func(h int) bool { return h == n.rank })
			k.doneDue = map[int]bool{}
			for r := 0; r < st.nodes && r < len(n.peers); r++ {
				if _, ok := st.finished[r]; r != st.rank && !ok && !st.degraded[r] {
					k.doneDue[r] = true
				}
			}
		}
	})
	for _, h := range hosts {
		n.send(h, done)
	}
}

// peerHosts resolves the distinct fleet nodes currently hosting the
// run's other live shard ranks, mapping ranks through failover rebinds
// (identity by default). A co-hosted shard resolves to self — the caller
// delivers locally instead of pushing. Callers hold n.mu, and st.mu when
// degraded is the run's own set.
func (n *Node) peerHosts(k *keyState, st *run, degraded map[int]bool) []int {
	var out []int
	for r := 0; r < st.nodes && r < len(n.peers); r++ {
		if r == st.rank || degraded[r] {
			continue
		}
		h := r
		if v, ok := k.routes[r]; ok {
			h = v
		}
		if !slices.Contains(out, h) {
			out = append(out, h)
		}
	}
	return out
}

// send hands one batch to the fleet node hosting its receivers, on the
// caller's goroutine: a co-hosted shard gets it delivered in place, a
// peer through its migrant stream (bounded by PushTimeout). Either way
// the batches of one sender arrive in the order it sent them.
func (n *Node) send(host int, b *serve.MigrantBatch) {
	if host == n.rank {
		n.deliver(b)
		return
	}
	if n.streams[host].send(b) {
		n.sent.Add(int64(len(b.Migrants)))
	}
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

// ExchangeMigrants implements solver.MigrantExchange: one epoch barrier,
// with a fixed lag of one epoch. Ship the local elites of this epoch to
// every live peer (the batch bound for the owner's node carries cp, when
// the shard ships one), wait (bounded) for each live peer's batch of the
// previous epoch, degrade the ones that miss it, and return those
// migrants in sender-rank order. The batches had a whole epoch of compute
// to arrive, so the barrier only waits for a peer more than an epoch
// behind. Epoch 0 injects nothing, but waits for the peers' epoch-0
// batches: the shards start in step, and a dead or hung peer is found at
// the first barrier. A barrier whose batches come from below the run's
// fast-forward epoch collects without waiting.
func (n *Node) ExchangeMigrants(ctx context.Context, key string, rank, epoch int, out []solver.Migrant, cp *solver.Checkpoint) solver.ExchangeReport {
	n.mu.Lock()
	k := n.keys[key]
	if k == nil || k.runs[rank] == nil {
		n.mu.Unlock()
		return solver.ExchangeReport{}
	}
	st := k.runs[rank]
	st.mu.Lock()
	st.epoch = epoch
	// in is the epoch whose batches this barrier injects; need is the one
	// it waits for (the same, except at epoch 0).
	in := epoch - 1
	need := max(in, 0)
	wait := need >= st.fastForward
	timeout := st.epochTimeout
	waiting := make([]int, 0, st.nodes)
	for r := 0; r < st.nodes && r < len(n.peers); r++ {
		if r != st.rank && !st.degraded[r] {
			waiting = append(waiting, r)
		}
	}
	hosts := n.peerHosts(k, st, st.degraded)
	st.mu.Unlock()
	n.mu.Unlock()

	// Ship our elites first, in order, each send bounded by PushTimeout:
	// the barrier depends on the peers' batches, not on any answer to
	// ours. The owner's node additionally gets the shard's checkpoint —
	// on the migrant batch when the owner hosts a live shard, on a
	// dedicated empty batch otherwise.
	owner := n.ownerRank(key)
	ownerServed := false
	for _, h := range hosts {
		b := &serve.MigrantBatch{Key: key, Epoch: epoch, From: st.rank, Migrants: out}
		if h == owner {
			b.Checkpoint = cp
			ownerServed = true
		}
		n.send(h, b)
	}
	if cp != nil && owner >= 0 && !ownerServed {
		n.send(owner, &serve.MigrantBatch{Key: key, Epoch: epoch, From: st.rank, Checkpoint: cp})
	}

	var report solver.ExchangeReport
	if wait {
		waitStart := time.Now()
		deadline := time.NewTimer(timeout)
		defer deadline.Stop()
		// released is when the last awaited batch or Done notice reached
		// the inbox, or when the barrier gave up on the rest.
		var released time.Time
		for {
			st.mu.Lock()
			if len(missingRanks(st, need, waiting)) == 0 {
				released = lastArrival(st, need, waiting, released)
				st.mu.Unlock()
				break
			}
			notify := st.notify
			st.mu.Unlock()
			select {
			case <-notify:
			case <-deadline.C:
				st.mu.Lock()
				for _, r := range missingRanks(st, need, waiting) {
					st.degraded[r] = true
					n.timeouts.Add(1)
					report.Degraded = append(report.Degraded, n.peers[r])
					n.logf("federation: %s epoch %d: peer %s missed the barrier, degraded", key, epoch, n.peers[r])
				}
				st.mu.Unlock()
				released = time.Now()
			case <-ctx.Done():
				// Cancellation mid-barrier: return what arrived; the run is
				// stopping anyway.
				released = time.Now()
			}
			if ctx.Err() != nil {
				break
			}
		}
		wait := time.Since(waitStart)
		late := min(max(released.Sub(waitStart), 0), wait)
		n.barrierLateNS.Add(int64(late))
		n.barrierWakeNS.Add(int64(wait - late))
		n.barriers.Add(1)
	}

	// Collect in sender-rank order — the injection order every node must
	// agree on for the run to be replayable. Only ranks the barrier
	// actually waited on are injected: a sender degraded at this barrier
	// (or earlier, with its batch buffered out of order before the
	// degradation) raced the timeout, and injecting it would be
	// nondeterministic.
	st.mu.Lock()
	em := st.batches[in]
	ranks := make([]int, 0, len(em))
	for r := range em {
		if !st.degraded[r] && r < st.nodes {
			ranks = append(ranks, r)
		}
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		report.In = append(report.In, em[r].b.Migrants...)
	}
	// Drop the collected epoch and anything staler; redeliveries are
	// stale now.
	for e := range st.batches {
		if e <= in {
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
		if st.degraded[r] {
			continue
		}
		if _, done := st.finished[r]; done {
			continue
		}
		if _, ok := st.batches[epoch][r]; ok {
			continue
		}
		out = append(out, r)
	}
	return out
}

// lastArrival is the latest of t and the inbox arrivals that satisfied
// the waited-on ranks: each rank's epoch batch, or its Done notice when
// no batch came. Callers hold st.mu.
func lastArrival(st *run, epoch int, waiting []int, t time.Time) time.Time {
	for _, r := range waiting {
		in, ok := st.batches[epoch][r]
		at := in.at
		if !ok {
			at = st.finished[r] // zero for a rank degraded instead
		}
		if at.After(t) {
			t = at
		}
	}
	return t
}
