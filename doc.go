// Package repro is a complete Go reproduction of "A Survey on Parallel
// Genetic Algorithms for Shop Scheduling Problems" (Luo & El Baz, IPDPS
// Workshops 2018): the full family of parallel GA models the survey
// taxonomises (master-slave, fine-grained, island, hybrid), the shop
// scheduling environments it covers (flow / job / open shop and the
// flexible variants, with setups, lot streaming, fuzzy and stochastic
// extensions; not the blocking job shop), and an experiment harness that
// regenerates the survey's five tables plus the quantitative claims of the ~25 surveyed
// works as figure-equivalent experiments.
//
// The internal/solver package is the unified entry point, and its job
// Service the primary API: a declarative, JSON-serialisable Spec
// (statically checked by Spec.Validate, which reports every field-path
// error at once) is submitted through Service.Submit and becomes a Job —
// observable via Job.Events (typed Started/Generation/Improved/Migration/
// Done progress streamed from the engines' generation and epoch seams),
// awaitable via Job.Await, and cancellable mid-run with a valid partial
// result. The blocking Solve remains for call-and-wait uses, and the
// concurrent batch Pool (a thin layer over the Service, with
// deterministic per-run seed derivation) covers many-scenario workloads.
// Every Result embeds its reference objective, kind and gap.
//
// internal/serve exposes the Service over HTTP — cmd/schedserver is the
// scheduling daemon (REST + Server-Sent-Events progress streams, bounded
// concurrency, per-job deadlines, graceful drain) and serve/client the
// typed Go client.
//
// Jobs are durable when the daemon runs with a store directory: the
// crash-safe internal/jobstore persists per-job records with atomic
// renames and CRC-checksummed checkpoint frames (torn or corrupt frames
// are quarantined, never fatal), the checkpointable models snapshot
// their full state — flat population for serial/ms, a per-deme layout
// (population, objectives, incumbent, RNG stream, epoch counter) for
// the epoch models island/hybrid — through solver.SolveWithCheckpoints
// / Service.OnCheckpoint, and a
// restarted daemon replays the store: terminal jobs served from disk,
// in-flight jobs resumed bit-identically from their newest checkpoint
// with the wall budget they had left (cold restart is the validated
// fallback for anything damaged or non-checkpointable). The client
// retries transient failures with backoff, deduplicates submissions via
// idempotency keys, and reconnects severed event streams with
// Last-Event-ID. A SIGKILL-mid-job e2e plus a fault-injection suite
// (jobstore.FaultStore) pin the recovery paths.
//
// internal/federation scales the island model across machines: daemons
// started with the same -peers list form a static, coordinator-less
// fleet (rank = index in the sorted list), a Spec submitted with
// params.federate to any node fans its demes across the fleet, and the
// nodes exchange migrant elites each migration epoch over
// POST /v1/federation/migrants — packed genomes re-validated on
// arrival, injected at epoch barriers in sender-rank order, per-rank
// seeds derived via rng.SplitN, so a healthy federated run is
// replayable by seed. A peer missing a barrier is degraded (skipped
// thereafter, surfaced as a peer_degraded event and a counter on
// GET /v1/stats, the Prometheus endpoint) while the submitting node
// always reduces a best-of-fleet Result with per-node provenance. With
// -fed-failover (fleet-wide, like -peers), degradation is the fallback,
// not the first response: shards hosted away from the owner piggyback
// their newest epoch checkpoint on owner-bound migrant batches (a fleet
// without failover ships none), and a shard lost with its node is
// health-probed, then
// resumed warm from that checkpoint on the least-loaded survivor, the
// rebinding broadcast fleet-wide so barriers wait for it again.
//
// Evaluation — the hot path of every parallel model — is a three-rung
// ladder in internal/decode: schedule-building oracle decoders (reference
// semantics, final results), allocation-free makespan kernels decoding
// into a reusable Scratch workspace, and batch kernels (BatchScratch) that
// decode whole slices of genomes per call over precomputed instance
// tables: the flow shop sweeps each permutation once per block of five
// stages with that block's machine-free times in registers (block-major
// int32 duration tables, the last block zero-padded), and the job shop
// decodes four genomes in lockstep — hiding the scalar decoder's
// completion-time dependency chain behind neighbouring genomes'
// arithmetic — with one packed op word per operation, each genome's state
// in one int32 row and a sentinel op per job absorbing over-long tokens.
// Both fall back to the scalar kernel for the irregular kinds and for
// instances whose completion times could overflow int32. Property and fuzz tests pin each rung to the
// one below bit for bit, and BENCH_hotpath.json records the measured gaps.
// Problems expose the batch rung through core.BatchEvalProblem, the
// engine's only evaluation seam, and keep Evaluate as the concurrency-safe
// scalar oracle.
// Above the kernels, every core.Engine step is the sharded generation
// pipeline: core.Config.Workers executors (0 or 1: one inline executor)
// run whole shards of each generation (selection, crossover, mutation,
// evaluation) end-to-end with per-shard RNG substreams (rng.SplitN) and
// executor-owned scratches — each shard of 4 children is exactly one
// batch tile — allocation-free and bit-identical for any worker count, so
// the serial and master-slave models are one trajectory;
// Spec.Params.Workers threads the width through every model. Variation
// inside a shard is linear and branch-free: JOX and OX are compaction
// kernels pinned to reference bodies, and elitism takes its few elites
// from an O(n·k) stable selection instead of sorting the population.
//
// See README.md for the layout, the solver API and the performance
// architecture, and exp.All for the per-experiment index; each
// experiment's table notes set paper claims beside measured shapes. The
// top-level bench suites (bench_test.go, hotpath_bench_test.go) time one
// kernel per table, the solver pool, and the alloc-guarded evaluation hot
// path.
package repro
