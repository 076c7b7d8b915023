package bench

import (
	"context"
	"fmt"

	"repro/internal/solver"
)

// Options configures one suite run.
type Options struct {
	// Profile names the catalogue entry to run (default "smoke").
	Profile string
	// Seeds overrides the profile's seed count when > 0.
	Seeds int
	// Models overrides the profile's model list when non-empty.
	Models []string
	// PoolWorkers bounds the solver.Pool (default GOMAXPROCS). The report
	// is identical for any value; it only changes how long the sweep takes.
	PoolWorkers int
}

// Run executes the named catalogue profile; see RunProfile.
func Run(ctx context.Context, opts Options) (*Report, error) {
	name := opts.Profile
	if name == "" {
		name = "smoke"
	}
	prof, err := ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return RunProfile(ctx, prof, opts)
}

// RunProfile executes the profile's sweep and aggregates the report. Runs
// use fixed seeds 1..S for every (instance, model) cell, and the engines
// are deterministic by seed, so quality figures are machine-independent;
// cancelling the context aborts the sweep with an error.
func RunProfile(ctx context.Context, prof Profile, opts Options) (*Report, error) {
	if opts.Seeds > 0 {
		prof.Seeds = opts.Seeds
	}
	if len(opts.Models) > 0 {
		prof.Models = opts.Models
	}
	for _, m := range prof.Models {
		if _, ok := solver.Lookup(m); !ok {
			return nil, fmt.Errorf("bench: unknown model %q (registered: %v)", m, solver.Names())
		}
	}

	// One flat spec batch in deterministic order: workload-major, then
	// model, then seed. The pool preserves input order in its results.
	specs := make([]solver.Spec, 0, len(prof.Workloads)*len(prof.Models)*prof.Seeds)
	for _, w := range prof.Workloads {
		for _, m := range prof.Models {
			for s := 0; s < prof.Seeds; s++ {
				specs = append(specs, solver.Spec{
					Problem: solver.ProblemSpec{Instance: w.Instance},
					Model:   m,
					Params:  solver.Params{Pop: w.Pop, Workers: 4, Islands: 4},
					Budget:  solver.Budget{Generations: w.Generations},
					Seed:    uint64(s + 1),
				})
			}
		}
	}
	pool := &solver.Pool{Workers: opts.PoolWorkers}
	items := pool.Solve(ctx, specs)

	report := newReport(prof.Name)
	idx := 0
	for _, w := range prof.Workloads {
		for _, m := range prof.Models {
			entry := Entry{Instance: w.Instance, Model: m, Seeds: prof.Seeds}
			var sumObj float64
			for s := 0; s < prof.Seeds; s++ {
				item := items[idx]
				idx++
				if item.Err != nil {
					return nil, fmt.Errorf("bench: %s/%s seed %d: %w", w.Instance, m, s+1, item.Err)
				}
				res := item.Result
				if res.Canceled {
					// A truncated run must never become a baseline number.
					return nil, fmt.Errorf("bench: %s/%s seed %d: canceled mid-run", w.Instance, m, s+1)
				}
				entry.Kind = res.Kind
				// The reference rides on every Result (resolved once by the
				// solver); all seeds of a cell share the instance, so any
				// run's copy anchors the cell.
				entry.Reference = res.Reference
				entry.RefKind = string(res.RefKind)
				obj := res.BestObjective
				if s == 0 || obj < entry.Best {
					entry.Best = obj
				}
				sumObj += obj
				entry.Evaluations += res.Evaluations
			}
			entry.Mean = sumObj / float64(prof.Seeds)
			if entry.Reference > 0 {
				entry.Gap = (entry.Best - entry.Reference) / entry.Reference
				entry.MeanGap = (entry.Mean - entry.Reference) / entry.Reference
			}
			report.Entries = append(report.Entries, entry)
		}
	}
	return report, nil
}
