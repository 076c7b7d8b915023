package shop

import (
	"fmt"

	"repro/internal/rng"
)

// Generators follow Taillard's published construction (uniform processing
// times in [1,99], machine orders produced by swap-shuffling with the same
// LCG), so that instances are reproducible from a single int32 seed exactly
// like the classic ta benchmark series. Extensions (due dates, setups,
// weights, batches) mutate an instance in place and return it for chaining.

// GenerateFlowShop returns an n-job, m-machine permutation flow shop with
// processing times Unif[1,99] drawn from the Taillard LCG at the given seed.
func GenerateFlowShop(name string, n, m int, seed int32) *Instance {
	g := rng.NewTaillard(seed)
	in := &Instance{Name: name, Kind: FlowShop, NumMachines: m, Jobs: make([]Job, n)}
	// Taillard draws times machine-major: d[m][j].
	times := make([][]int, m)
	for mi := range times {
		times[mi] = make([]int, n)
		for j := range times[mi] {
			times[mi][j] = g.Unif(1, 99)
		}
	}
	for j := 0; j < n; j++ {
		ops := make([]Operation, m)
		for mi := 0; mi < m; mi++ {
			ops[mi] = Operation{Machines: []int{mi}, Times: []int{times[mi][j]}}
		}
		in.Jobs[j] = Job{Ops: ops, Weight: 1}
	}
	return in
}

// GenerateJobShop returns an n-job, m-machine job shop in Taillard's style:
// times Unif[1,99] from timeSeed, and each job's machine routing obtained by
// swap-shuffling the identity permutation with machineSeed.
func GenerateJobShop(name string, n, m int, timeSeed, machineSeed int32) *Instance {
	tg := rng.NewTaillard(timeSeed)
	mg := rng.NewTaillard(machineSeed)
	in := &Instance{Name: name, Kind: JobShop, NumMachines: m, Jobs: make([]Job, n)}
	for j := 0; j < n; j++ {
		order := make([]int, m)
		for i := range order {
			order[i] = i
		}
		for i := 0; i < m; i++ {
			k := mg.Unif(i, m-1)
			order[i], order[k] = order[k], order[i]
		}
		ops := make([]Operation, m)
		for s := 0; s < m; s++ {
			ops[s] = Operation{Machines: []int{order[s]}, Times: []int{tg.Unif(1, 99)}}
		}
		in.Jobs[j] = Job{Ops: ops, Weight: 1}
	}
	return in
}

// GenerateLawrence returns an n-job, m-machine job shop in Lawrence's style:
// one operation per machine per job, processing times Unif[5,99] (Lawrence
// 1984 drew from [5,99] where Taillard later used [1,99]), and each job's
// routing a fresh random permutation. Times come from the LCG at seed,
// routings from seed+1, so a single seed reproduces the instance.
func GenerateLawrence(name string, n, m int, seed int32) *Instance {
	tg := rng.NewTaillard(seed)
	mg := rng.NewTaillard(seed + 1)
	in := &Instance{Name: name, Kind: JobShop, NumMachines: m, Jobs: make([]Job, n)}
	for j := 0; j < n; j++ {
		order := make([]int, m)
		for i := range order {
			order[i] = i
		}
		for i := 0; i < m; i++ {
			k := mg.Unif(i, m-1)
			order[i], order[k] = order[k], order[i]
		}
		ops := make([]Operation, m)
		for s := 0; s < m; s++ {
			ops[s] = Operation{Machines: []int{order[s]}, Times: []int{tg.Unif(5, 99)}}
		}
		in.Jobs[j] = Job{Ops: ops, Weight: 1}
	}
	return in
}

// GenerateOpenShop returns an n-job, m-machine open shop: one operation per
// machine per job with times Unif[1,99]; operation order is free.
func GenerateOpenShop(name string, n, m int, seed int32) *Instance {
	g := rng.NewTaillard(seed)
	in := &Instance{Name: name, Kind: OpenShop, NumMachines: m, Jobs: make([]Job, n)}
	for j := 0; j < n; j++ {
		ops := make([]Operation, m)
		for mi := 0; mi < m; mi++ {
			ops[mi] = Operation{Machines: []int{mi}, Times: []int{g.Unif(1, 99)}}
		}
		in.Jobs[j] = Job{Ops: ops, Weight: 1}
	}
	return in
}

// GenerateFlexibleJobShop returns an n-job flexible job shop with m machines.
// Each job has opsPerJob operations; each operation is eligible on a random
// subset of 1..maxEligible machines with times Unif[1,99] per machine
// (unrelated machines, as in Defersha & Chen and Rashidi et al.).
func GenerateFlexibleJobShop(name string, n, m, opsPerJob, maxEligible int, seed int32) *Instance {
	if maxEligible < 1 {
		maxEligible = 1
	}
	if maxEligible > m {
		maxEligible = m
	}
	g := rng.NewTaillard(seed)
	in := &Instance{Name: name, Kind: FlexibleJobShop, NumMachines: m, Jobs: make([]Job, n)}
	for j := 0; j < n; j++ {
		ops := make([]Operation, opsPerJob)
		for s := 0; s < opsPerJob; s++ {
			k := g.Unif(1, maxEligible)
			// Draw k distinct machines by swap-shuffling an identity prefix.
			ids := make([]int, m)
			for i := range ids {
				ids[i] = i
			}
			for i := 0; i < k; i++ {
				x := g.Unif(i, m-1)
				ids[i], ids[x] = ids[x], ids[i]
			}
			machines := append([]int(nil), ids[:k]...)
			times := make([]int, k)
			for i := range times {
				times[i] = g.Unif(1, 99)
			}
			ops[s] = Operation{Machines: machines, Times: times}
		}
		in.Jobs[j] = Job{Ops: ops, Weight: 1}
	}
	return in
}

// GenerateFlexibleFlowShop returns an n-job flexible (hybrid) flow shop with
// the given number of parallel machines per stage. When unrelated is true the
// per-machine processing times differ (Rashidi et al.'s unrelated parallel
// machines); otherwise all machines of a stage are identical.
func GenerateFlexibleFlowShop(name string, n int, machinesPerStage []int, unrelated bool, seed int32) *Instance {
	g := rng.NewTaillard(seed)
	total := 0
	stages := make([][]int, len(machinesPerStage))
	for s, k := range machinesPerStage {
		if k < 1 {
			panic(fmt.Sprintf("shop: stage %d has %d machines", s, k))
		}
		ids := make([]int, k)
		for i := range ids {
			ids[i] = total + i
		}
		stages[s] = ids
		total += k
	}
	in := &Instance{
		Name: name, Kind: FlexibleFlowShop, NumMachines: total,
		Jobs: make([]Job, n), Stages: stages,
	}
	for j := 0; j < n; j++ {
		ops := make([]Operation, len(stages))
		for s, ids := range stages {
			base := g.Unif(1, 99)
			times := make([]int, len(ids))
			for i := range times {
				if unrelated {
					times[i] = g.Unif(1, 99)
				} else {
					times[i] = base
				}
			}
			ops[s] = Operation{Machines: append([]int(nil), ids...), Times: times}
		}
		in.Jobs[j] = Job{Ops: ops, Weight: 1}
	}
	return in
}

// WithDueDates sets D_j = R_j + ceil(tightness * total processing time of j)
// (the TWK rule). Smaller tightness makes due dates harder to meet.
func WithDueDates(in *Instance, tightness float64) *Instance {
	for j := range in.Jobs {
		t := float64(in.Jobs[j].TotalTime()) * tightness
		in.Jobs[j].Due = in.Jobs[j].Release + int(t+0.999999)
	}
	return in
}

// WithReleases draws R_j ~ Unif[0, maxRelease] from the instance seed chain.
func WithReleases(in *Instance, maxRelease int, seed int32) *Instance {
	if maxRelease <= 0 {
		return in
	}
	g := rng.NewTaillard(seed)
	for j := range in.Jobs {
		in.Jobs[j].Release = g.Unif(0, maxRelease)
	}
	return in
}

// WithSetupTimes attaches sequence-dependent setup times Unif[lo,hi] on every
// machine (Defersha & Chen's SDST flexible job shop).
func WithSetupTimes(in *Instance, lo, hi int, seed int32) *Instance {
	g := rng.NewTaillard(seed)
	n := len(in.Jobs)
	in.Setup = make([][][]int, in.NumMachines)
	for m := range in.Setup {
		in.Setup[m] = make([][]int, n)
		for i := range in.Setup[m] {
			in.Setup[m][i] = make([]int, n)
			for j := range in.Setup[m][i] {
				in.Setup[m][i][j] = g.Unif(lo, hi)
			}
		}
	}
	return in
}

// WithBatchSizes attaches per-job batch sizes Unif[lo,hi] for lot streaming
// (Defersha & Chen [35]); operation times become per-unit times.
func WithBatchSizes(in *Instance, lo, hi int, seed int32) *Instance {
	g := rng.NewTaillard(seed)
	in.BatchSize = make([]int, len(in.Jobs))
	for j := range in.BatchSize {
		in.BatchSize[j] = g.Unif(lo, hi)
	}
	return in
}

// WithSpeedLevels attaches selectable machine speed factors and the power
// exponent of the energy model (energy ~ speed^powerExp per time unit).
func WithSpeedLevels(in *Instance, levels []float64, powerExp float64) *Instance {
	in.SpeedLevels = append([]float64(nil), levels...)
	in.PowerExp = powerExp
	return in
}
