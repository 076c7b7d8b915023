// Command perfbench is the repository's end-to-end benchmark. It starts
// cmd/schedserver daemons, drives them over HTTP with closed-loop clients
// (each submits its next job only after the previous job's SSE stream
// delivered its done event), checks every result against bounds it
// computes itself from the generated instance, and prints one JSON line.
// perfbench/run.sh builds both binaries and runs it:
//
//	bash perfbench/run.sh --workload ms --seed 1 --seconds 10 --trace 0
//
// Every job is a distinct instance and GA seed drawn from --seed, so no
// job repeats another; the first timed job is submitted again after the
// timed window and must reproduce its result.
//
// With --trace 0 the metrics are end to end: job latency (submit → done)
// as median and p90, and set-up time (fleet launch → first short job
// done, median of several launches). With --trace 1 they are per layer,
// measured around each call into the daemon plus what the daemon reports:
// POST round trip, queue wait, model run time and its cost per
// evaluation, the HTTP/SSE overhead around the run, SSE volume, daemon
// CPU, migrants exchanged.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"sync"
	"syscall"
	"time"
)

// workload is one kind of job the clients submit, and the fleet it runs
// on.
type workload struct {
	name     string
	nodes    int // daemons in the fleet
	slots    int // -max-concurrent of every daemon (0: the daemon's default)
	clients  int // closed-loop submitters
	kind     string
	jobs     int
	machines int
	model    string
	params   params
	gens     int
}

// The job shapes are the ones the repository documents for the daemon,
// on a freshly generated instance of the documented size per job: ft10 is
// a 10x10 job shop, ta001 a 20x5 flow shop. Every job pins its workers,
// since the island jobs' default is GOMAXPROCS, which would change the
// job with the host. A job runs two workers, the width the documented ms
// job sets: spread over both CPUs of a small host it sees their average
// speed, where a single-threaded one lands on whichever CPU is slower at
// the moment. Two jobs run one worker instead, because with two their
// time swung by ±15-20% from run to run on a 2-vCPU VM. The flow job's
// evaluations are cheap, so presumably the per-generation hand-off
// between two workers dominates it. The federated job's two nodes share
// one host here where each would have its own in use; with two workers
// each, the four crowd two CPUs and the epoch barriers pace the run by
// whichever node the scheduler starves.
var workloads = []workload{
	{
		// The CI serve-smoke ms job (ft10, pop 80, workers 2) with the
		// README's 300-generation budget: the sharded generation pipeline
		// over the default operation-sequence decode.
		name:  "ms",
		nodes: 1, clients: 1, kind: "job", jobs: 10, machines: 10, model: "ms",
		params: params{Pop: 80, Workers: 2}, gens: 300,
	},
	{
		// The benchsuite smoke ta001 cell (20x5 flow shop, pop 160, 300
		// generations) on the ms model: permutations, so the 4-wide
		// lockstep batch kernel evaluates every generation. One worker,
		// see above.
		name:  "flow",
		nodes: 1, clients: 1, kind: "flow", jobs: 20, machines: 5, model: "ms",
		params: params{Pop: 160, Workers: 1}, gens: 300,
	},
	{
		// The README's single-node island job (ft10, pop 120, islands 4,
		// 300 generations): demes, epochs and in-process migration.
		name:  "island",
		nodes: 1, clients: 1, kind: "job", jobs: 10, machines: 10, model: "island",
		params: params{Pop: 120, Workers: 2, Islands: 4}, gens: 300,
	},
	{
		// The README island job from four clients at once on a daemon with
		// two job slots, so every job waits in the pool queue for one.
		name:  "queue",
		nodes: 1, slots: 2, clients: 4, kind: "job", jobs: 10, machines: 10, model: "island",
		params: params{Pop: 120, Workers: 2, Islands: 4}, gens: 300,
	},
	{
		// The README and CI federation-smoke job (ft10, pop 400, islands 4,
		// federate, 400 generations) on a two-node fleet, the CI fleet's
		// size: migrant exchange and epoch barriers over HTTP.
		name:  "fed2",
		nodes: 2, clients: 1, kind: "job", jobs: 10, machines: 10, model: "island",
		params: params{Pop: 400, Workers: 1, Islands: 4, Federate: true}, gens: 400,
	},
}

const (
	setupLaunches = 15 // fleet launches per run; setup_s is their median
	setupGens     = 10 // generations of the cold job that ends a launch
	warmupJobs    = 2  // untimed jobs per client before the timed window
	jobTimeout    = 30 * time.Second
	maxSeed       = 1<<31 - 3 // instance seeds and seed+1 stay in Taillard's range
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "timed window in seconds")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics instead of end-to-end ones")
		server  = flag.String("server", "", "schedserver binary")
		workdir = flag.String("workdir", "", "directory for daemon logs")
	)
	flag.Parse()
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *server == "" || *workdir == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -server BIN -workdir DIR --workload ms|flow|island|queue|fed2 --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	rep, err := run(ctx, workloads[i], *seed, time.Duration(*seconds)*time.Second, *trace == 1, *server, *workdir)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(ctx context.Context, w workload, seed uint64, window time.Duration, trace bool, bin, workdir string) (*report, error) {
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	keep := true // daemon logs stay for inspection when the run fails
	defer func() {
		if !keep {
			os.RemoveAll(dir)
		}
	}()

	// Every client keeps its POST and SSE connections alive.
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * w.clients}}
	rep := &report{Correct: true}
	var mu sync.Mutex // guards rep, rng and the outcomes below
	fail := func(format string, a ...any) {
		mu.Lock()
		rep.Correct = false
		mu.Unlock()
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...)
	}
	// job runs one spec on f and checks its result; ok is false on any
	// failure.
	job := func(f *fleet, sp spec) (outcome, bool) {
		jctx, cancel := context.WithTimeout(ctx, jobTimeout)
		defer cancel()
		c := &client{http: hc, base: f.urls[0]}
		out, err := c.run(jctx, sp, trace)
		if err == nil {
			err = w.check(sp, out.res)
		}
		if err != nil {
			fail("%s: %v", w.name, err)
			return out, false
		}
		return out, true
	}

	// Set-up is what a user waits for before the first answer: launch the
	// fleet, wait until it is healthy, and run one short job on it cold.
	// The last fleet stays up for the timed window.
	setupRNG := rand.New(rand.NewPCG(seed, 1))
	var setups []float64
	var f *fleet
	for i := 0; i < setupLaunches; i++ {
		sub, err := os.MkdirTemp(dir, "fleet-")
		if err != nil {
			return nil, err
		}
		t := time.Now()
		f, err = startFleet(ctx, bin, sub, w.nodes, w.slots)
		if err != nil {
			return nil, err
		}
		sp := w.spec(setupRNG)
		sp.Budget.Generations = setupGens
		job(f, sp)
		setups = append(setups, time.Since(t).Seconds())
		if i < setupLaunches-1 {
			if err := f.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer f.stop()

	// clients runs w.clients closed-loop submitters, each submitting its
	// next job once its previous one is done, while more allows it for the
	// client's n-th job. Timed jobs are counted and kept.
	rng := rand.New(rand.NewPCG(seed, 0))
	var specs []spec
	var outs []outcome
	jobsRun := 0
	clients := func(more func(n int) bool, timed bool) {
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; more(n) && ctx.Err() == nil; n++ {
					mu.Lock()
					sp := w.spec(rng)
					jobsRun++
					if timed {
						rep.Attempted++
					}
					mu.Unlock()
					out, ok := job(f, sp)
					mu.Lock()
					switch {
					case !timed:
					case ok:
						specs, outs = append(specs, sp), append(outs, out)
					default:
						rep.Failed++
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	clients(func(n int) bool { return n < warmupJobs }, false)
	var migrants0 int64
	if trace && w.nodes > 1 {
		if migrants0, err = fedAccepted(ctx, hc, f.urls); err != nil {
			return nil, err
		}
	}
	end := time.Now().Add(window)
	clients(func(int) bool { return time.Now().Before(end) }, true)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("%s: no job completed", w.name)
	}

	var migrants int64
	if trace && w.nodes > 1 {
		m, err := fedAccepted(ctx, hc, f.urls)
		if err != nil {
			return nil, err
		}
		migrants = m - migrants0
	}
	// Replay: the same spec must give the same result on a warm daemon.
	// A federated run's evaluation count is exempt: a peer's Done notice
	// can overtake its final-epoch batch, and the owner shard then injects
	// (and evaluates) fewer migrants at the last barrier. The fleet best is
	// unaffected, since those migrants are the peer's own elites.
	if again, ok := job(f, specs[0]); ok && rep.Failed == 0 {
		a, b := outs[0].res, again.res
		if w.nodes > 1 {
			b.Evaluations = a.Evaluations
		}
		if a.BestObjective != b.BestObjective || a.Evaluations != b.Evaluations || a.Generations != b.Generations {
			fail("%s: replay of seed %d gave %g/%d evals, first run %g/%d", w.name, specs[0].Seed,
				b.BestObjective, b.Evaluations, a.BestObjective, a.Evaluations)
		}
	}
	jobsRun++
	if err := f.stop(); err != nil {
		return nil, err
	}
	// The kept fleet's CPU also covers its short set-up job, counted as
	// the share of a job its generations are.
	perJob := float64(jobsRun) + float64(setupGens)/float64(w.gens)

	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	med := func(pick func(o outcome) float64) float64 { return quantile(values(outs, pick), 0.5) }
	runTime := func(o outcome) time.Duration { return time.Duration(o.res.ElapsedNS) }
	rep.Metrics = map[string]metric{}
	if !trace {
		totals := values(outs, func(o outcome) float64 { return ms(o.total) })
		rep.Metrics["job_ms"] = metric{quantile(totals, 0.5), "ms"}
		rep.Metrics["job_p90_ms"] = metric{quantile(totals, 0.9), "ms"}
		rep.Metrics["setup_s"] = metric{quantile(setups, 0.5), "s"}
	} else {
		rep.Metrics["submit_ms"] = metric{med(func(o outcome) float64 { return ms(o.submit) }), "ms"}
		rep.Metrics["queue_ms"] = metric{med(func(o outcome) float64 { return ms(o.queue) }), "ms"}
		rep.Metrics["run_ms"] = metric{med(func(o outcome) float64 { return ms(runTime(o)) }), "ms"}
		rep.Metrics["overhead_ms"] = metric{med(func(o outcome) float64 { return ms(o.total - o.queue - runTime(o)) }), "ms"}
		rep.Metrics["ns_per_eval"] = metric{med(func(o outcome) float64 {
			return float64(o.res.ElapsedNS) / float64(o.res.Evaluations)
		}), "ns"}
		rep.Metrics["events_per_job"] = metric{med(func(o outcome) float64 { return float64(o.events) }), "count"}
		rep.Metrics["daemon_cpu_ms_per_job"] = metric{ms(f.cpu) / perJob, "ms"}
		rep.Metrics["migrants_per_job"] = metric{float64(migrants) / float64(rep.Attempted), "count"}
	}
	keep = !rep.Correct
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d jobs (%d failed) in %s, setup median %.4fs\n",
		w.name, seed, rep.Attempted, rep.Failed, window, quantile(setups, 0.5))
	return rep, nil
}

// spec draws the next job: a fresh generated instance and GA seed.
func (w workload) spec(rng *rand.Rand) spec {
	return spec{
		Problem: problem{Kind: w.kind, Jobs: w.jobs, Machines: w.machines, Seed: 1 + rng.Int64N(maxSeed)},
		Model:   w.model,
		Params:  w.params,
		Budget:  budget{Generations: w.gens},
		Seed:    1 + rng.Uint64N(1<<62),
	}
}

// check validates a result against the spec that produced it: the model
// asked for and the kind's default encoding, a whole makespan within the instance's bounds,
// a run within budget, and for a federated job a healthy fleet whose best
// node is the reported best.
func (w workload) check(sp spec, r result) error {
	enc := "seq"
	if sp.Problem.Kind == "flow" {
		enc = "perm"
	}
	if r.Canceled || r.Model != sp.Model || r.Encoding != enc {
		return fmt.Errorf("seed %d: result %s/%s canceled=%v", sp.Seed, r.Model, r.Encoding, r.Canceled)
	}
	if r.Evaluations <= 0 || r.Generations <= 0 || r.Generations > sp.Budget.Generations {
		return fmt.Errorf("seed %d: %d evaluations over %d generations", sp.Seed, r.Evaluations, r.Generations)
	}
	in := jobShop(sp.Problem.Jobs, sp.Problem.Machines, int32(sp.Problem.Seed))
	if sp.Problem.Kind == "flow" {
		in = flowShop(sp.Problem.Jobs, sp.Problem.Machines, int32(sp.Problem.Seed))
	}
	if err := in.checkMakespan(r.BestObjective); err != nil {
		return fmt.Errorf("seed %d: %w", sp.Seed, err)
	}
	if w.nodes > 1 {
		if len(r.Nodes) != w.nodes {
			return fmt.Errorf("seed %d: %d nodes in provenance, want %d", sp.Seed, len(r.Nodes), w.nodes)
		}
		best := r.Nodes[0].BestObjective
		for _, n := range r.Nodes {
			if n.Degraded {
				return fmt.Errorf("seed %d: node %d degraded", sp.Seed, n.Rank)
			}
			best = min(best, n.BestObjective)
		}
		if best != r.BestObjective {
			return fmt.Errorf("seed %d: fleet best %g, nodes' best %g", sp.Seed, r.BestObjective, best)
		}
	}
	return nil
}

func values(outs []outcome, pick func(outcome) float64) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = pick(o)
	}
	return v
}

// quantile returns the q-quantile of v, interpolating between the two
// nearest ranks.
func quantile(v []float64, q float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
