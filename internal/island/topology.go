package island

// Topology decides where island i's emigrants go. Implementations cover
// every connection scheme the survey reports: ring (most frequent), mesh /
// two-dimensional torus and fully-connected (Defersha & Chen [35]), star
// (Gu et al.'s hybrid star [28]), hypercube (Asadzadeh & Zamanifar's
// virtual cube of eight agents [27]) and all-to-all broadcast (Kokosiński
// & Studzienny [32]).
type Topology interface {
	// Name identifies the topology in experiment tables.
	Name() string
	// Targets returns the destination islands of island i out of n. Routes
	// are fixed: every migration epoch uses the same ones.
	Targets(i, n int) []int
}

// None disables migration entirely: islands evolve in complete isolation,
// like the independent CUDA blocks of Huang et al. [24], whose design "was
// organised based on the island GA although there was no migration among
// blocks".
type None struct{}

// Name implements Topology.
func (None) Name() string { return "none" }

// Targets implements Topology.
func (None) Targets(int, int) []int { return nil }

// Ring connects island i to (i+1) mod n.
type Ring struct{}

// Name implements Topology.
func (Ring) Name() string { return "ring" }

// Targets implements Topology.
func (Ring) Targets(i, n int) []int {
	if n < 2 {
		return nil
	}
	return []int{(i + 1) % n}
}

// BiRing connects island i to both ring neighbours.
type BiRing struct{}

// Name implements Topology.
func (BiRing) Name() string { return "bi-ring" }

// Targets implements Topology.
func (BiRing) Targets(i, n int) []int {
	if n < 2 {
		return nil
	}
	if n == 2 {
		return []int{(i + 1) % n}
	}
	return []int{(i + 1) % n, (i - 1 + n) % n}
}

// Torus2D arranges islands on the most square rows x cols grid with
// rows*cols == n and connects each island to its four wrap-around
// neighbours (the "mesh" of Defersha & Chen and Belkadi's 2-D grid).
// A prime island count degenerates to a 1 x n ring, which is the standard
// fallback.
type Torus2D struct{}

// Name implements Topology.
func (Torus2D) Name() string { return "mesh-torus" }

// Targets implements Topology.
func (Torus2D) Targets(i, n int) []int {
	if n < 2 {
		return nil
	}
	rows := 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			rows = n / d // the larger factor; cols the smaller
		}
	}
	cols := n / rows
	r, c := i/cols, i%cols
	uniq := map[int]bool{}
	add := func(rr, cc int) {
		t := ((rr+rows)%rows)*cols + (cc+cols)%cols
		if t != i {
			uniq[t] = true
		}
	}
	add(r-1, c)
	add(r+1, c)
	add(r, c-1)
	add(r, c+1)
	out := make([]int, 0, len(uniq))
	for t := 0; t < n; t++ {
		if uniq[t] {
			out = append(out, t)
		}
	}
	return out
}

// FullyConnected sends emigrants from every island to every other island.
type FullyConnected struct{}

// Name implements Topology.
func (FullyConnected) Name() string { return "fully-connected" }

// Targets implements Topology.
func (FullyConnected) Targets(i, n int) []int {
	out := make([]int, 0, n-1)
	for t := 0; t < n; t++ {
		if t != i {
			out = append(out, t)
		}
	}
	return out
}

// Star routes all communication through hub island 0: leaves send to the
// hub, the hub sends to every leaf (Gu et al.'s penetration migration runs
// on this shape).
type Star struct{}

// Name implements Topology.
func (Star) Name() string { return "star" }

// Targets implements Topology.
func (Star) Targets(i, n int) []int {
	if n < 2 {
		return nil
	}
	if i == 0 {
		out := make([]int, 0, n-1)
		for t := 1; t < n; t++ {
			out = append(out, t)
		}
		return out
	}
	return []int{0}
}

// Hypercube connects island i to the islands whose index differs in one
// bit (Asadzadeh's cube: with n=8 every island has three neighbours).
// Targets beyond n-1 are dropped for non-power-of-two counts.
type Hypercube struct{}

// Name implements Topology.
func (Hypercube) Name() string { return "hypercube" }

// Targets implements Topology.
func (Hypercube) Targets(i, n int) []int {
	var out []int
	for b := 1; b < n; b <<= 1 {
		if t := i ^ b; t < n {
			out = append(out, t)
		}
	}
	return out
}
