// Package sim models parallel hardware as a deterministic analytical
// event simulation, substituting for the GPUs, Transputers and MPI clusters
// of the surveyed papers. The
// model captures exactly the quantities the survey reasons about: worker
// count and speed, master-side dispatch serialisation, batching, and
// communication overhead — enough to reproduce published speedup *shapes*
// (saturation, comm-bound plateaus, explored-solutions ratios) on any host,
// including this single-core one.
package sim

// Cluster describes a pool of workers driven by one master.
type Cluster struct {
	// Speeds holds the relative speed of each worker; a task of cost c
	// takes c/Speeds[w] time units on worker w.
	Speeds []float64
	// DispatchOverhead is master time serialised per task sent to a worker
	// (message latency; the survey's "communication overhead" for the
	// master-slave model).
	DispatchOverhead float64
	// BatchOverhead is master time serialised per batch (kernel-launch or
	// message envelope cost).
	BatchOverhead float64
	// ResultOverhead is time added to a worker's completion for returning
	// its results to the master.
	ResultOverhead float64
}

// Uniform returns a cluster of n identical workers.
func Uniform(n int, speed float64) *Cluster {
	if n <= 0 {
		panic("sim: cluster needs at least one worker")
	}
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = speed
	}
	return &Cluster{Speeds: speeds}
}

// Hetero returns a cluster with explicitly given worker speeds (Akhshabi et
// al.'s distributed system whose slave capacity varies).
func Hetero(speeds []float64) *Cluster {
	if len(speeds) == 0 {
		panic("sim: cluster needs at least one worker")
	}
	for _, s := range speeds {
		if s <= 0 {
			panic("sim: worker speeds must be positive")
		}
	}
	return &Cluster{Speeds: append([]float64(nil), speeds...)}
}

// GPULike returns a cluster shaped like a CUDA device: many slow cores with
// negligible per-task dispatch (one kernel launch per batch). Per-core speed
// below CPU speed reflects the simpler cores; the win comes from width.
func GPULike(cores int, coreSpeed, launchOverhead float64) *Cluster {
	c := Uniform(cores, coreSpeed)
	c.BatchOverhead = launchOverhead
	return c
}

// Workers returns the number of workers.
func (c *Cluster) Workers() int { return len(c.Speeds) }

// TotalSpeed returns the aggregate processing speed.
func (c *Cluster) TotalSpeed() float64 {
	var t float64
	for _, s := range c.Speeds {
		t += s
	}
	return t
}

// SerialSpan returns the time one baseline worker (speed 1) needs for all
// tasks: the serial GA reference time.
func SerialSpan(costs []float64) float64 {
	var t float64
	for _, c := range costs {
		t += c
	}
	return t
}

// EvalSpan returns the master-observed completion time of one parallel
// fitness-evaluation phase: tasks are grouped into batches of batchSize (0
// or negative means one task per batch), the master serialises
// BatchOverhead + len(batch)*DispatchOverhead per batch, and each batch goes
// to the worker that will finish it earliest. The span is the latest worker
// completion including result return.
func (c *Cluster) EvalSpan(costs []float64, batchSize int) float64 {
	if len(costs) == 0 {
		return 0
	}
	if batchSize <= 0 {
		batchSize = 1
	}
	w := c.Workers()
	free := make([]float64, w) // when each worker becomes idle
	var masterClock, span float64
	for lo := 0; lo < len(costs); lo += batchSize {
		hi := lo + batchSize
		if hi > len(costs) {
			hi = len(costs)
		}
		var work float64
		for _, t := range costs[lo:hi] {
			work += t
		}
		masterClock += c.BatchOverhead + float64(hi-lo)*c.DispatchOverhead
		// Pick the worker with the earliest finish for this batch.
		best, bestFinish := 0, 0.0
		for i := 0; i < w; i++ {
			start := free[i]
			if masterClock > start {
				start = masterClock
			}
			finish := start + work/c.Speeds[i]
			if i == 0 || finish < bestFinish {
				best, bestFinish = i, finish
			}
		}
		free[best] = bestFinish
		if f := bestFinish + c.ResultOverhead; f > span {
			span = f
		}
	}
	return span
}

// Throughput returns the steady-state evaluations per time unit the cluster
// sustains for tasks of uniform cost, limited by either the master's
// dispatch serialisation or the workers' aggregate speed.
func (c *Cluster) Throughput(costPerEval float64, batchSize int) float64 {
	if batchSize <= 0 {
		batchSize = 1
	}
	workerRate := c.TotalSpeed() / costPerEval
	dispatchPerBatch := c.BatchOverhead + float64(batchSize)*c.DispatchOverhead
	if dispatchPerBatch <= 0 {
		return workerRate
	}
	masterRate := float64(batchSize) / dispatchPerBatch
	if masterRate < workerRate {
		return masterRate
	}
	return workerRate
}

// ExploredInBudget returns how many fitness evaluations fit into a fixed
// virtual time budget (AitZai et al. compare explored solutions under a
// fixed 300 s limit).
func (c *Cluster) ExploredInBudget(costPerEval float64, batchSize int, budget float64) int {
	return int(c.Throughput(costPerEval, batchSize) * budget)
}

// IslandSpan returns the virtual time of an island-model run: epochs rounds
// in which every island computes genPerEpoch generations of genCost each in
// parallel (islands map round-robin onto workers), followed by a migration
// exchange of msgsPerEpoch messages costing msgCost serial time each.
func (c *Cluster) IslandSpan(islands, epochs, genPerEpoch int, genCost float64, msgsPerEpoch int, msgCost float64) float64 {
	w := c.Workers()
	perWorker := make([]float64, w)
	for i := 0; i < islands; i++ {
		perWorker[i%w] += float64(genPerEpoch) * genCost / c.Speeds[i%w]
	}
	var computeSpan float64
	for _, t := range perWorker {
		if t > computeSpan {
			computeSpan = t
		}
	}
	epochTime := computeSpan + float64(msgsPerEpoch)*msgCost
	return float64(epochs) * epochTime
}
