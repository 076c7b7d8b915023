// Package exp is the experiment harness: one function per table/figure-
// equivalent of the survey, listed in order by All. Each experiment returns
// rendered tables whose notes set the paper's claim beside the measured
// shape; cmd/experiments runs them.
//
// Experiments are deterministic: all randomness flows from fixed seeds, and
// virtual-time results come from the analytical sim package, so the tables
// regenerate bit-identically on any host.
package exp

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tables"
)

// Experiment couples a table identifier (T1, T3a, ...) with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func() []*tables.Table
}

// All returns every experiment in survey-table order.
func All() []Experiment {
	return []Experiment{
		{ID: "T1", Title: "Table I: schedule feasibility conditions", Run: T1Feasibility},
		{ID: "T2", Title: "Table II: simple GA baseline", Run: T2SimpleGA},
		{ID: "T3a", Title: "Master-slave speedup vs workers (Mui, Somani)", Run: T3aSpeedup},
		{ID: "T3b", Title: "Explored solutions in fixed budget (AitZai)", Run: T3bExplored},
		{ID: "T3c", Title: "Batched dispatch on heterogeneous slaves (Akhshabi)", Run: T3cBatching},
		{ID: "T4a", Title: "Fine-grained diversity vs panmictic (Tamaki)", Run: T4aDiversity},
		{ID: "T4b", Title: "Transputer-style speedup with comm cost (Tamaki)", Run: T4bTransputer},
		{ID: "T4c", Title: "Neighbourhood shapes (Kohlmorgen)", Run: T4cNeighborhoods},
		{ID: "T4d", Title: "Model quality comparison (Lin)", Run: T4dLinQuality},
		{ID: "T4e", Title: "Island speedups 4.7/18.5 (Lin)", Run: T4eLinSpeedup},
		{ID: "T5a", Title: "Island improves best and average (Park)", Run: T5aPark},
		{ID: "T5b", Title: "Migration topologies (Defersha)", Run: T5bTopologies},
		{ID: "T5c", Title: "Migration policies (Defersha)", Run: T5cPolicies},
		{ID: "T5d", Title: "Migration interval sweep (Belkadi)", Run: T5dInterval},
		{ID: "T5e", Title: "Subpopulation count vs quality (Belkadi)", Run: T5eSubpops},
		{ID: "T5f", Title: "Cooperation strategies (Bozejko)", Run: T5fStrategies},
		{ID: "T5g", Title: "Merge-on-stagnation (Spanos)", Run: T5gMerge},
		{ID: "T5h", Title: "Two-level broadcast GN<<LN (Harmanani)", Run: T5hTwoLevel},
		{ID: "T5i", Title: "Fuzzy flow shop with random keys + immigration (Huang)", Run: T5iHuang},
		{ID: "T5j", Title: "All-on-GPU homogeneous island (Zajicek)", Run: T5jZajicek},
		{ID: "T5k", Title: "Parallel quantum GA on stochastic JSSP (Gu)", Run: T5kQuantum},
		{ID: "T5l", Title: "Agent-based cube island (Asadzadeh)", Run: T5lAgents},
		{ID: "T5m", Title: "Weighted-pair multi-objective islands (Rashidi)", Run: T5mRashidi},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// seeds are the fixed per-repetition master seeds shared by quality
// experiments.
var seeds = []uint64{11, 23, 37, 59, 71}

// summarizeRuns runs fn once per seed and returns the sample of results.
func summarizeRuns(n int, fn func(seed uint64) float64) stats.Summary {
	if n > len(seeds) {
		n = len(seeds)
	}
	xs := make([]float64, 0, n)
	for _, s := range seeds[:n] {
		xs = append(xs, fn(s))
	}
	return stats.Summarize(xs)
}

// popEntropy computes the positional entropy of an engine population of
// integer genomes.
func popEntropy[G any](pop []core.Individual[G], view func(G) []int) float64 {
	views := make([][]int, len(pop))
	for i := range pop {
		views[i] = view(pop[i].Genome)
	}
	return stats.PositionalEntropy(views)
}

// fmtRatio renders a speedup with an x suffix.
func fmtRatio(v float64) string { return fmt.Sprintf("%.2fx", v) }

// paretoFilter returns the non-dominated subset of (a,b) points (both
// minimised), sorted by the first coordinate.
func paretoFilter(points [][2]float64) [][2]float64 {
	var out [][2]float64
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q[0] <= p[0] && q[1] <= p[1] && (q[0] < p[0] || q[1] < p[1]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	// Deduplicate identical points.
	dedup := out[:0]
	for i, p := range out {
		if i == 0 || p != out[i-1] {
			dedup = append(dedup, p)
		}
	}
	return dedup
}
