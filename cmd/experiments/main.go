// Command experiments regenerates every table and figure-equivalent of the
// survey reproduction (exp.All lists them in order), and can run
// ad-hoc cross-model comparisons through the unified solver layer.
//
// Usage:
//
//	experiments                 # run everything, aligned text to stdout
//	experiments -exp T3a,T5f    # run a subset
//	experiments -format md      # GitHub Markdown output
//	experiments -format csv     # CSV output
//	experiments -list           # list experiment IDs
//
//	experiments -compare all -instance ft06 -seeds 5
//	                            # every registered model x 5 seeds on ft06,
//	                            # solved concurrently by a solver.Pool
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/solver"
	"repro/internal/tables"
)

func main() {
	var (
		which  = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		format = flag.String("format", "text", "output format: text, md, csv")
		list   = flag.Bool("list", false, "list experiment IDs and exit")

		compare     = flag.String("compare", "", "comma-separated solver models (or 'all'): run a cross-model comparison instead of the survey experiments")
		instance    = flag.String("instance", "ft06", "comparison instance: 'ft06' or a JSON file path")
		seeds       = flag.Int("seeds", 3, "comparison seeds per model")
		pop         = flag.Int("pop", 80, "comparison population")
		generations = flag.Int("generations", 100, "comparison generation budget")
		workers     = flag.Int("pool-workers", 0, "solver.Pool width (0: GOMAXPROCS)")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}

	if *compare != "" {
		tb, err := compareModels(*compare, *instance, *seeds, *pop, *generations, *workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		emit(tb, *format)
		return
	}

	var selected []exp.Experiment
	if *which == "all" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*which, ",") {
			e, ok := exp.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		start := time.Now()
		tabs := e.Run()
		fmt.Printf("=== %s — %s (%s)\n\n", e.ID, e.Title, time.Since(start).Round(time.Millisecond))
		for _, tb := range tabs {
			emit(tb, *format)
		}
	}
}

// compareModels races every requested model on one instance at equal
// budgets: models x seeds Specs batched through one solver.Pool.
func compareModels(models, instance string, seeds, pop, generations, workers int) (*tables.Table, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("-seeds must be >= 1, got %d", seeds)
	}
	var names []string
	if models == "all" {
		names = solver.Names()
	} else {
		for _, m := range strings.Split(models, ",") {
			names = append(names, strings.TrimSpace(m))
		}
	}
	var specs []solver.Spec
	for _, m := range names {
		for s := 0; s < seeds; s++ {
			specs = append(specs, solver.Spec{
				Problem: solver.ProblemSpec{Instance: instance},
				Model:   m,
				Params:  solver.Params{Pop: pop},
				Budget:  solver.Budget{Generations: generations},
				Seed:    uint64(s + 1),
			})
		}
	}
	start := time.Now()
	items := (&solver.Pool{Workers: workers, BaseSeed: 1}).Solve(context.Background(), specs)
	elapsed := time.Since(start)

	tb := &tables.Table{
		ID:      "compare",
		Title:   fmt.Sprintf("Cross-model comparison on %s (%d seeds, %d generations, pop %d)", instance, seeds, generations, pop),
		Columns: []string{"model", "encoding", "best", "mean best", "mean evals", "mean ms/run"},
	}
	for i, m := range names {
		var best, sumBest, sumEvals, sumMS float64
		n := 0
		for _, it := range items[i*seeds : (i+1)*seeds] {
			if it.Err != nil {
				return nil, fmt.Errorf("model %s: %w", m, it.Err)
			}
			r := it.Result
			if n == 0 || r.BestObjective < best {
				best = r.BestObjective
			}
			sumBest += r.BestObjective
			sumEvals += float64(r.Evaluations)
			sumMS += float64(r.Elapsed.Milliseconds())
			n++
		}
		enc := items[i*seeds].Result.Encoding
		tb.AddRow(m, enc,
			fmt.Sprintf("%.0f", best),
			fmt.Sprintf("%.1f", sumBest/float64(n)),
			fmt.Sprintf("%.0f", sumEvals/float64(n)),
			fmt.Sprintf("%.1f", sumMS/float64(n)))
	}
	tb.Note("%d runs solved concurrently by solver.Pool in %s wall time", len(specs), elapsed.Round(time.Millisecond))
	return tb, nil
}

func emit(tb *tables.Table, format string) {
	switch format {
	case "md":
		fmt.Println(tb.Markdown())
	case "csv":
		fmt.Println(tb.CSV())
	default:
		fmt.Println(tb.Render())
	}
}
