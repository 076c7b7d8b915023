package solver

import (
	"context"
	"fmt"
	"sort"
)

// This file is the solver side of the distributed island federation: the
// exchange seam a federation layer plugs into the Service, the wire form
// of a migrant, the split of a federated spec into shard specs, and the
// reduction of the shard Results into the job's one terminal Result. The
// federation layer itself (peer discovery, HTTP transport, epoch
// barriers) lives in internal/federation; this package only defines the
// contract so the island runner can ship and absorb migrants without
// knowing about HTTP.

// Migrant is the wire form of one elite crossing a node boundary: the
// encoding-agnostic packed genome plus the objective it scored on its
// home node. Inbound migrants are unpacked through the same per-encoding
// validators as checkpoints, so a damaged migrant is rejected, never
// decoded blind.
type Migrant struct {
	Genome Genome  `json:"genome"`
	Obj    float64 `json:"obj"`
}

// ExchangeReport is what one epoch barrier returned: the migrants to
// inject, which the peers sent one epoch earlier (already ordered by
// peer rank — the order they must be injected in for determinism; empty
// at epoch 0), and the peers that missed the barrier this epoch
// (reported once per peer per epoch, surfaced as typed peer_degraded
// events by the island runner).
type ExchangeReport struct {
	In       []Migrant
	Degraded []string // peer addresses that missed this epoch's barrier
}

// MigrantExchange is the federation seam threaded into shard runs
// (Service.Exchange). The island runner calls it only when the spec
// carries shard coordinates (Params.FedKey set): once at shard start,
// once per migration epoch with the shard's current elites, and once at
// shard end. Implementations own the transport, the epoch barrier and
// the degradation policy; the solver owns packing, validation and
// deterministic injection.
type MigrantExchange interface {
	// ShardStarted announces a shard run: key identifies the federated
	// job fleet-wide, rank/nodes are this shard's coordinates, and
	// epochTimeoutMS the spec's barrier timeout override (0 keeps the
	// node's default). After a failover two shards of one key may run on
	// the same node, so exchange state is keyed (key, rank). The answer
	// says whether the exchange can use the shard's epoch checkpoints
	// (a failover-enabled node whose owner lives elsewhere); when it is
	// false the island runner never snapshots for the exchange and every
	// ExchangeMigrants call gets cp == nil.
	ShardStarted(key string, rank, nodes int, epochTimeoutMS int64) (wantCheckpoints bool)
	// ExchangeMigrants runs one epoch barrier: ship the local elites of
	// this epoch, wait (bounded) for the batches the peers shipped at the
	// previous one, and return them in rank order. The one-epoch lag lets
	// a batch travel while its receiver computes, so the barrier waits
	// only for a peer more than an epoch behind; epoch 0 returns nothing.
	// ctx is the shard job's context — barrier waits must abort on
	// cancellation. cp, when non-nil, is the shard's
	// newest epoch checkpoint; implementations piggyback it on the
	// outbound batch so the owner can resubmit the shard elsewhere if
	// this node dies. It is nil when ShardStarted declined checkpoints,
	// and during epoch 0 (nothing to resume from yet) unless the shard
	// itself resumed from one.
	ExchangeMigrants(ctx context.Context, key string, rank, epoch int, out []Migrant, cp *Checkpoint) ExchangeReport
	// MigrantRejected reports an inbound migrant that failed the
	// per-encoding unpack validation and was dropped (the damaged-migrant
	// counter's feed: validation lives solver-side, counting node-side).
	MigrantRejected(key string)
	// ShardFinished releases the (key, rank) exchange state. Called
	// exactly once per ShardStarted, after the run's last epoch.
	ShardFinished(key string, rank int)
}

// NodeResult is one node's contribution to a federated Result — the
// per-node provenance of the best-of-fleet reduction.
type NodeResult struct {
	Node          string  `json:"node"` // peer base URL
	Rank          int     `json:"rank"`
	BestObjective float64 `json:"best_objective,omitempty"`
	Evaluations   int64   `json:"evaluations,omitempty"`
	Generations   int     `json:"generations,omitempty"`
	// Degraded marks a node that never returned a shard result (submit
	// failed or the peer died mid-run); its zero objective is not part of
	// the reduction.
	Degraded bool `json:"degraded,omitempty"`
}

// ShardSpecs splits a federated island spec (Params.Federate) into one
// shard spec per rank of a fleet of the given size, stamped with the
// run key: shard rank r holds a contiguous slice of the island count
// (remainder islands to the low ranks) and the matching exact-sum slice
// of the population, and carries the FedKey/FedNodes/FedRank coordinates
// newRun turns into its RNG substream. The fan-out spans min(fleet,
// islands) ranks; with nothing to federate over (a fleet of one, or one
// island) it returns no shards and the job runs locally. Every shard is
// validated, so a malformed split fails the submission synchronously,
// not a remote node asynchronously.
func ShardSpecs(spec Spec, key string, fleet int) ([]Spec, error) {
	islands := spec.Params.Islands
	if islands <= 0 {
		islands = defaultIslands
	}
	nodes := min(fleet, islands)
	if nodes <= 1 {
		return nil, nil
	}
	pop := spec.Params.Pop
	if pop <= 0 {
		pop = defaultPop
	}
	base, rem := islands/nodes, islands%nodes
	shards := make([]Spec, nodes)
	cum := 0 // islands assigned to ranks < r
	for r := range shards {
		si := base
		if r < rem {
			si++
		}
		sp := spec
		sp.Params.Federate = false
		sp.Params.FedKey = key
		sp.Params.FedNodes = nodes
		sp.Params.FedRank = r
		sp.Params.Islands = si
		sp.Params.Pop = pop*(cum+si)/islands - pop*cum/islands
		cum += si
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("solver: shard %d spec invalid: %w", r, err)
		}
		shards[r] = sp
	}
	return shards, nil
}

// ReduceShards is the best-of-fleet reduction that finishes a federated
// job: shards holds the shard Results by rank, nil where a shard returned
// none. Evaluations sum, generations take the maximum, and a cancelled
// shard marks the whole run cancelled. The winner is the first shard, by
// best objective with the lower rank first on ties, whose schedule is in
// hand (a shard run on this node) or whose packed BestGenome rebuilds
// into a valid schedule with the objective it claimed; a damaged or
// stale genome is never decoded blind, it passes the win on. The spec
// resolves through newRun and the Result is finished like Solve's.
func ReduceShards(spec Spec, shards []*Result) (*Result, error) {
	run, _, err := newRun(spec, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	var order []int
	for r, s := range shards {
		if s == nil {
			continue
		}
		order = append(order, r)
		res.Evaluations += s.Evaluations
		res.Generations = max(res.Generations, s.Generations)
		res.Canceled = res.Canceled || s.Canceled
	}
	sort.SliceStable(order, func(i, j int) bool {
		return shards[order[i]].BestObjective < shards[order[j]].BestObjective
	})
	for _, r := range order {
		s := shards[r]
		sched := s.Schedule
		if sched == nil && s.BestGenome != nil {
			g, derr := run.decodeGenome(*s.BestGenome)
			if derr == nil && g.Validate() == nil && run.Objective(g) == s.BestObjective {
				sched = g
			}
		}
		if sched != nil {
			res.BestObjective, res.Schedule = s.BestObjective, sched
			return run.finish(res)
		}
	}
	return nil, fmt.Errorf("solver: no shard returned a usable schedule")
}
