// Package fuzzy implements the triangular-fuzzy-number machinery of Huang,
// Huang & Lai [24]: flow shop scheduling with fuzzy processing times and
// fuzzy due dates, where the possibility and necessity measures grade how
// well a schedule meets its due dates, and the GA maximises the agreement
// between fuzzy completion times and fuzzy due dates. Chromosomes are
// random keys (sorted into job permutations), matching Huang's CUDA design.
package fuzzy

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rng"
)

// TFN is a triangular fuzzy number with support [A, C] and peak B.
type TFN struct {
	A, B, C float64
}

// New validates A <= B <= C and returns the TFN.
func New(a, b, c float64) TFN {
	if !(a <= b && b <= c) {
		panic(fmt.Sprintf("fuzzy: invalid TFN (%v, %v, %v)", a, b, c))
	}
	return TFN{A: a, B: b, C: c}
}

// Add returns t + u (exact for TFNs).
func (t TFN) Add(u TFN) TFN { return TFN{A: t.A + u.A, B: t.B + u.B, C: t.C + u.C} }

// Max returns the component-wise maximum, the standard TFN approximation of
// the fuzzy maximum used in fuzzy scheduling recurrences.
func (t TFN) Max(u TFN) TFN {
	return TFN{A: max2(t.A, u.A), B: max2(t.B, u.B), C: max2(t.C, u.C)}
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Possibility returns Pos(t <= u), the optimistic degree to which the fuzzy
// quantity t is no larger than u.
func Possibility(t, u TFN) float64 {
	if t.B <= u.B {
		return 1
	}
	if t.A >= u.C {
		return 0
	}
	// Height of the intersection of t's rising flank with u's falling flank.
	den := (t.B - t.A) + (u.C - u.B)
	if den <= 0 {
		return 0
	}
	v := (u.C - t.A) / den
	return clamp01(v)
}

// Necessity returns Nec(t <= u) = 1 - Pos(t > u), the pessimistic degree to
// which t is no larger than u.
func Necessity(t, u TFN) float64 {
	return 1 - Possibility(u, t)
}

// Agreement grades how well completion time c meets due date d by mixing
// the optimistic and pessimistic measures equally; 1 means certainly on
// time, 0 certainly late.
func Agreement(c, d TFN) float64 {
	return clamp01((Possibility(c, d) + Necessity(c, d)) / 2)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// FlowShop is a fuzzy flow shop: Times[j][m] is the fuzzy processing time
// of job j on machine m; Due[j] the fuzzy due date of job j.
type FlowShop struct {
	Times [][]TFN
	Due   []TFN
}

// Jobs returns the number of jobs.
func (f *FlowShop) Jobs() int { return len(f.Times) }

// Machines returns the number of machines.
func (f *FlowShop) Machines() int {
	if len(f.Times) == 0 {
		return 0
	}
	return len(f.Times[0])
}

// Generate builds a fuzzy flow shop: crisp centres Unif[1,99] via the
// Taillard LCG, spread fraction widening each TFN, and due dates set to
// tight times the job's defuzzified total work.
func Generate(n, m int, spread, tight float64, seed int32) *FlowShop {
	g := rng.NewTaillard(seed)
	f := &FlowShop{Times: make([][]TFN, n), Due: make([]TFN, n)}
	for j := 0; j < n; j++ {
		f.Times[j] = make([]TFN, m)
		var total float64
		for mi := 0; mi < m; mi++ {
			c := float64(g.Unif(1, 99))
			f.Times[j][mi] = New(c*(1-spread), c, c*(1+spread))
			total += c
		}
		due := total * tight
		f.Due[j] = New(due*(1-spread), due, due*(1+spread))
	}
	return f
}

// Completions returns each job's fuzzy completion time on the last machine
// under the given permutation, via the fuzzy flow shop recurrence.
func (f *FlowShop) Completions(perm []int) []TFN {
	m := f.Machines()
	row := make([]TFN, m)
	out := make([]TFN, f.Jobs())
	for _, j := range perm {
		prev := TFN{}
		for mi := 0; mi < m; mi++ {
			start := row[mi].Max(prev)
			row[mi] = start.Add(f.Times[j][mi])
			prev = row[mi]
		}
		out[j] = row[m-1]
	}
	return out
}

// Makespan returns the fuzzy makespan of the permutation.
func (f *FlowShop) Makespan(perm []int) TFN {
	comps := f.Completions(perm)
	ms := comps[0]
	for _, c := range comps[1:] {
		ms = ms.Max(c)
	}
	return ms
}

// Objective returns the minimised scalar Huang's GA works with: one minus
// the mean of the per-job agreement indices and the minimum agreement index
// (maximising earliness agreement and worst-case tardiness together),
// strictly positive for imperfect schedules.
func (f *FlowShop) Objective(perm []int) float64 {
	comps := f.Completions(perm)
	minAI, sum := 1.0, 0.0
	for j, c := range comps {
		ai := Agreement(c, f.Due[j])
		sum += ai
		if ai < minAI {
			minAI = ai
		}
	}
	mean := sum / float64(len(comps))
	return 1.0001 - (mean+minAI)/2
}

// PermFromKeys sorts job indices by their random keys (stable: ties break
// toward the lower index), Huang's random-keys decoding.
func PermFromKeys(keys []float64) []int {
	perm := make([]int, len(keys))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	return perm
}

// Problem wraps the fuzzy flow shop as a random-keys core.Problem.
func Problem(f *FlowShop) core.Problem[[]float64] {
	n := f.Jobs()
	return core.FuncProblem[[]float64]{
		RandomFn: func(r *rng.RNG) []float64 {
			g := make([]float64, n)
			for i := range g {
				g[i] = r.Float64()
			}
			return g
		},
		EvaluateFn: func(g []float64) float64 { return f.Objective(PermFromKeys(g)) },
		CloneFn:    func(g []float64) []float64 { return append([]float64(nil), g...) },
	}
}
