package decode

import "repro/internal/shop"

// JobShop decodes an operation sequence (permutation with repetition of job
// indices) into a semi-active job shop schedule: the i-th occurrence of job
// j schedules job j's i-th operation as early as its machine and job
// predecessors allow. Sequence-dependent setups, when present, are honoured
// with detached setups (the machine performs the setup as soon as it is
// free, possibly before the job arrives).
func JobShop(in *shop.Instance, seq []int) *shop.Schedule {
	n := len(in.Jobs)
	nextOp := make([]int, n)
	jobReady := make([]int, n)
	for j := range jobReady {
		jobReady[j] = in.Jobs[j].Release
	}
	machFree := make([]int, in.NumMachines)
	lastJob := make([]int, in.NumMachines)
	for i := range lastJob {
		lastJob[i] = -1
	}
	s := &shop.Schedule{Inst: in, Ops: make([]shop.Assignment, 0, in.TotalOps())}
	for _, j := range seq {
		k := nextOp[j]
		if k >= len(in.Jobs[j].Ops) {
			continue // tolerate over-long sequences; Repair should prevent this
		}
		op := &in.Jobs[j].Ops[k]
		m := op.Machines[0]
		p := op.Times[0]
		setup := 0
		if in.Setup != nil {
			prev := lastJob[m]
			if prev < 0 {
				prev = j // initial setup
			}
			setup = in.SetupTime(m, prev, j)
		}
		start := jobReady[j]
		if t := machFree[m] + setup; t > start {
			start = t
		}
		end := start + p
		s.Ops = append(s.Ops, shop.Assignment{Job: j, Op: k, Machine: m, Start: start, End: end})
		jobReady[j] = end
		machFree[m] = end
		lastJob[m] = j
		nextOp[j] = k + 1
	}
	return s
}

// GifflerThompson builds an active job shop schedule with the Giffler &
// Thompson procedure: repeatedly find the operation with the earliest
// possible completion time, restrict attention to the conflict set on its
// machine, and pick the member with the highest priority. priority is
// indexed by flattened operation ID; ties break toward the lower job index,
// keeping the decoder deterministic. Mui et al. [17] and Lin et al. [21]
// build their GA operators on exactly this active-schedule builder.
func GifflerThompson(in *shop.Instance, priority []float64) *shop.Schedule {
	off := OpOffsets(in)
	n := len(in.Jobs)
	nextOp := make([]int, n)
	jobReady := make([]int, n)
	for j := range jobReady {
		jobReady[j] = in.Jobs[j].Release
	}
	machFree := make([]int, in.NumMachines)
	s := &shop.Schedule{Inst: in, Ops: make([]shop.Assignment, 0, in.TotalOps())}
	remaining := in.TotalOps()
	for remaining > 0 {
		// Find the candidate operation with minimal earliest completion time.
		bestJob, bestECT, bestM := -1, 0, -1
		for j := 0; j < n; j++ {
			k := nextOp[j]
			if k >= len(in.Jobs[j].Ops) {
				continue
			}
			op := &in.Jobs[j].Ops[k]
			m := op.Machines[0]
			est := jobReady[j]
			if machFree[m] > est {
				est = machFree[m]
			}
			ect := est + op.Times[0]
			if bestJob < 0 || ect < bestECT {
				bestJob, bestECT, bestM = j, ect, m
			}
		}
		// Conflict set: candidates on bestM that could start before bestECT.
		chosen := -1
		var chosenPri float64
		for j := 0; j < n; j++ {
			k := nextOp[j]
			if k >= len(in.Jobs[j].Ops) {
				continue
			}
			op := &in.Jobs[j].Ops[k]
			if op.Machines[0] != bestM {
				continue
			}
			est := jobReady[j]
			if machFree[bestM] > est {
				est = machFree[bestM]
			}
			if est >= bestECT {
				continue
			}
			pri := priority[off[j]+k]
			if chosen < 0 || pri > chosenPri {
				chosen, chosenPri = j, pri
			}
		}
		k := nextOp[chosen]
		op := &in.Jobs[chosen].Ops[k]
		start := jobReady[chosen]
		if machFree[bestM] > start {
			start = machFree[bestM]
		}
		end := start + op.Times[0]
		s.Ops = append(s.Ops, shop.Assignment{Job: chosen, Op: k, Machine: bestM, Start: start, End: end})
		jobReady[chosen] = end
		machFree[bestM] = end
		nextOp[chosen] = k + 1
		remaining--
	}
	return s
}
