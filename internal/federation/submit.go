package federation

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/solver"
)

// SubmitFederated implements serve.Federation: fan a Params.Federate spec
// out over the fleet as one shard per node (solver.ShardSpecs), await
// them all, and reduce to a best-of-fleet Result with per-node
// provenance.
//
// Sharding is deterministic from the sorted fleet and the spec alone:
// shard rank r runs on sorted peer r and derives its RNG from the job
// seed split FedNodes ways at rank r. On a fleet of one (or a
// single-island spec) the job simply runs locally, unfederated.
//
// The returned owner job lives on this node's service. Its event stream
// relays the local shard's progress (generations, migrations, degraded
// peers); its terminal Result carries the fleet-best schedule, summed
// evaluations, and a NodeResult per shard — nodes that failed to return
// a result are present but marked degraded.
func (n *Node) SubmitFederated(ctx context.Context, spec solver.Spec) (*solver.Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !spec.Params.Federate {
		return nil, fmt.Errorf("federation: spec does not request federation (params.federate)")
	}
	// The run key carries the owner rank, a per-incarnation nonce, and a
	// sequence number: peers dedupe shard submissions and buffer batches
	// by key in memory, so keys must not repeat across owner restarts.
	key := "f" + strconv.Itoa(n.rank) + "-" + n.nonce + "-" + strconv.FormatInt(n.keySeq.Add(1), 10)
	shards, err := solver.ShardSpecs(spec, key, len(n.peers))
	if err != nil {
		return nil, err
	}
	if shards == nil {
		// Nothing to federate over: run the plain island job locally.
		local := spec
		local.Params.Federate = false
		return n.svc.Submit(ctx, local)
	}
	return n.svc.SubmitRunner(ctx, spec, func(ctx context.Context, emit func(solver.Event)) (*solver.Result, error) {
		return n.runFederated(ctx, spec, key, shards, emit)
	})
}

// runFederated is the owner job's body: launch every shard, await them
// all, record each node's provenance, and reduce through the solver.
func (n *Node) runFederated(ctx context.Context, spec solver.Spec, key string, shards []solver.Spec, emit func(solver.Event)) (*solver.Result, error) {
	start := time.Now()
	// Own the key for the run's lifetime: inbound batches carry shard
	// checkpoints that failover resumes lost shards from. No shard of the
	// key starts here after the run, so its early batches go with it.
	n.withKey(key, func(k *keyState) { k.owned = true })
	defer n.withKey(key, func(k *keyState) {
		k.owned, k.early = false, nil
		clear(k.ckpts)
		clear(k.fastFwd)
	})
	outs := make([]*solver.Result, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for r := range shards {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			outs[r], errs[r] = n.runShard(ctx, r, shards[r], emit)
		}(r)
	}
	wg.Wait()

	nodes := make([]solver.NodeResult, len(shards))
	for r, o := range outs {
		nodes[r] = solver.NodeResult{Node: n.peers[r], Rank: r, Degraded: errs[r] != nil || o == nil}
		if errs[r] != nil {
			n.logf("federation: %s shard %d on %s: %v", key, r, n.peers[r], errs[r])
		}
		if o != nil {
			nodes[r].BestObjective, nodes[r].Evaluations, nodes[r].Generations = o.BestObjective, o.Evaluations, o.Generations
		}
	}
	res, err := solver.ReduceShards(spec, outs)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("federation: %s: %w", key, err)
	}
	res.Nodes = nodes
	res.Elapsed = time.Since(start)
	res.Canceled = res.Canceled || ctx.Err() != nil
	return res, nil
}

// runShard executes one shard: locally through the service when the rank
// is ours, remotely through the peer's API otherwise. Remote submissions
// are idempotent under a key derived from the run key and rank, so
// transient submit failures retry without double-starting the shard.
//
// A remote shard that errors out gets one failover attempt when
// Config.FailoverEnabled: if the peer is confirmed dead and the shard has
// a tracked checkpoint, it is resumed on a surviving node (failover.go);
// otherwise — and on any failover error — the original error stands and
// the shard degrades as before.
func (n *Node) runShard(ctx context.Context, rank int, shard solver.Spec, emit func(solver.Event)) (*solver.Result, error) {
	if rank == n.rank {
		job, err := n.svc.Submit(ctx, shard)
		if err != nil {
			return nil, err
		}
		// Relay the local shard's progress into the owner's stream (its
		// lifecycle events stay local — the owner has its own).
		if emit != nil {
			for ev := range job.Events() {
				switch ev.Type {
				case solver.EventStarted, solver.EventDone:
				default:
					emit(ev)
				}
			}
		}
		return job.Await(ctx)
	}

	res, err := n.remoteShard(ctx, rank, shard)
	if err == nil || !n.cfg.FailoverEnabled || ctx.Err() != nil {
		return res, err
	}
	res, ferr := n.failover(ctx, rank, shard, err)
	if ferr != nil {
		n.logf("federation: %s shard %d: no failover (%v); degrading", key(shard), rank, ferr)
		return nil, err
	}
	return res, nil
}

// remoteShard runs one shard on its primary host over the peer's API.
func (n *Node) remoteShard(ctx context.Context, rank int, shard solver.Spec) (*solver.Result, error) {
	info, err := n.clients[rank].SubmitIdempotent(ctx, shard, key(shard)+"-r"+strconv.Itoa(rank))
	if err != nil {
		return nil, err
	}
	return n.awaitRemote(ctx, rank, info.ID)
}

// awaitRemote awaits job id on fleet node host: a failed job is an
// error, and cancellation propagates best-effort, so the node's job does
// not run on after the owner is gone.
func (n *Node) awaitRemote(ctx context.Context, host int, id string) (*solver.Result, error) {
	c := n.clients[host]
	info, err := c.Await(ctx, id)
	if err != nil {
		if ctx.Err() != nil {
			cctx, cancel := context.WithTimeout(context.Background(), n.cfg.PushTimeout)
			_, _ = c.Cancel(cctx, id)
			cancel()
		}
		return nil, err
	}
	if info.Error != "" {
		return nil, fmt.Errorf("federation: shard job %s on %s failed: %s", id, n.peers[host], info.Error)
	}
	return info.Result, nil
}

func key(shard solver.Spec) string { return shard.Params.FedKey }
