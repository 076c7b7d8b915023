package main

import "fmt"

// The daemon generates instances from ProblemSpec seeds with Taillard's
// published construction (the generator behind the ta benchmark series).
// perfbench rebuilds the same instances here, independently of the
// program, to bound every returned makespan.

// taillard is Taillard's (1993) portable LCG: seed = 16807*seed mod
// (2^31-1), computed with Schrage's decomposition.
type taillard int32

func (t *taillard) unif(lo, hi int) int {
	const a, b, c, m = 16807, 127773, 2836, 2147483647
	s := int32(*t)
	k := s / b
	s = a*(s%b) - k*c
	if s < 0 {
		s += m
	}
	*t = taillard(s)
	return lo + int(float64(s)/float64(m)*float64(hi-lo+1))
}

// instance is what the checks need of a generated shop: each operation's
// machine and processing time, per job in routing order.
type instance struct {
	machines int
	jobs     [][]op
}

type op struct{ machine, time int }

// flowShop rebuilds the daemon's generated "flow" instance: times drawn
// machine-major, every job visiting machines 0..m-1 in order.
func flowShop(n, m int, seed int32) instance {
	g := taillard(seed)
	in := instance{machines: m, jobs: make([][]op, n)}
	for j := range in.jobs {
		in.jobs[j] = make([]op, m)
	}
	for mi := 0; mi < m; mi++ {
		for j := 0; j < n; j++ {
			in.jobs[j][mi] = op{machine: mi, time: g.unif(1, 99)}
		}
	}
	return in
}

// jobShop rebuilds the daemon's generated "job" instance: times from
// seed, routings by swap-shuffling the identity with seed+1.
func jobShop(n, m int, seed int32) instance {
	tg, mg := taillard(seed), taillard(seed+1)
	in := instance{machines: m, jobs: make([][]op, n)}
	for j := range in.jobs {
		order := make([]int, m)
		for i := range order {
			order[i] = i
		}
		for i := 0; i < m; i++ {
			k := mg.unif(i, m-1)
			order[i], order[k] = order[k], order[i]
		}
		in.jobs[j] = make([]op, m)
		for s := range in.jobs[j] {
			in.jobs[j][s] = op{machine: order[s], time: tg.unif(1, 99)}
		}
	}
	return in
}

// bounds returns the classic makespan lower bound (the longest job or the
// busiest machine) and the total work, which no semi-active schedule
// exceeds: some machine is busy at every instant before it ends.
func (in instance) bounds() (lower, upper int) {
	load := make([]int, in.machines)
	for _, ops := range in.jobs {
		length := 0
		for _, o := range ops {
			length += o.time
			load[o.machine] += o.time
			upper += o.time
		}
		lower = max(lower, length)
	}
	for _, l := range load {
		lower = max(lower, l)
	}
	return lower, upper
}

// checkMakespan reports a makespan that is fractional or outside bounds.
func (in instance) checkMakespan(mk float64) error {
	lo, hi := in.bounds()
	if mk != float64(int(mk)) || int(mk) < lo || int(mk) > hi {
		return fmt.Errorf("makespan %g outside [%d, %d] or fractional", mk, lo, hi)
	}
	return nil
}
