package decode

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/shop"
)

// The disjunctive-graph oracle for JobShop. Given a full orientation of the
// disjunctive arcs (a processing order on every machine), the makespan of
// the induced semi-active schedule is the longest path in the resulting
// DAG. Somani & Singh [16] compute exactly this on the GPU with two
// kernels, a topological sort and a longest-path sweep, which correspond to
// topoOrder and longestPath here. The decode and kernel tests compare every
// job-shop decoder against JobShopGraph.

// graph is a weighted directed graph over n nodes (0..n-1). Arc weights are
// the time lags between the start of the tail and the start of the head
// (for schedule graphs: the processing time of the tail).
type graph struct {
	n    int
	adj  [][]arc
	inde []int
}

type arc struct {
	to int
	w  int
}

func newGraph(n int) *graph {
	return &graph{n: n, adj: make([][]arc, n), inde: make([]int, n)}
}

// addArc adds an arc u->v with weight w. It panics on out-of-range nodes.
func (g *graph) addArc(u, v, w int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: arc (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	g.adj[u] = append(g.adj[u], arc{to: v, w: w})
	g.inde[v]++
}

// errCycle is returned when the orientation contains a cycle.
var errCycle = errors.New("graph contains a cycle")

// topoOrder returns a topological order of the nodes (Kahn's algorithm) or
// errCycle if none exists.
func (g *graph) topoOrder() ([]int, error) {
	indeg := append([]int(nil), g.inde...)
	queue := make([]int, 0, g.n)
	for v, d := range indeg {
		if d == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, g.n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, a := range g.adj[v] {
			indeg[a.to]--
			if indeg[a.to] == 0 {
				queue = append(queue, a.to)
			}
		}
	}
	if len(order) != g.n {
		return nil, errCycle
	}
	return order, nil
}

// longestPath returns, for every node, the longest path length from any
// zero-indegree node (interpreting arc weights as lags). release[v], when
// non-nil, gives a lower bound on each node's start time (job release
// dates).
func (g *graph) longestPath(release []int) ([]int, error) {
	order, err := g.topoOrder()
	if err != nil {
		return nil, err
	}
	start := make([]int, g.n)
	if release != nil {
		copy(start, release)
	}
	for _, v := range order {
		sv := start[v]
		for _, a := range g.adj[v] {
			if t := sv + a.w; t > start[a.to] {
				start[a.to] = t
			}
		}
	}
	return start, nil
}

// makespan evaluates the schedule graph: start times via longestPath plus
// the node durations dur, returning max_v start[v]+dur[v].
func (g *graph) makespan(release, dur []int) (int, []int, error) {
	start, err := g.longestPath(release)
	if err != nil {
		return 0, nil, err
	}
	ms := 0
	for v, s := range start {
		if c := s + dur[v]; c > ms {
			ms = c
		}
	}
	return ms, start, nil
}

// MachineOrders extracts the processing order of jobs' operations on each
// machine from a schedule, as flattened operation IDs sorted by start time
// (equal starts keep their schedule order). It is the bridge from a decoded
// schedule to its disjunctive-graph orientation.
func MachineOrders(s *shop.Schedule) [][]int {
	in := s.Inst
	off := OpOffsets(in)
	type ev struct{ machine, start, pos, id int }
	evs := make([]ev, len(s.Ops))
	for i, a := range s.Ops {
		evs[i] = ev{machine: a.Machine, start: a.Start, pos: i, id: off[a.Job] + a.Op}
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.machine != b.machine {
			return a.machine < b.machine
		}
		if a.start != b.start {
			return a.start < b.start
		}
		return a.pos < b.pos
	})
	orders := make([][]int, in.NumMachines)
	for lo := 0; lo < len(evs); {
		hi := lo
		for hi < len(evs) && evs[hi].machine == evs[lo].machine {
			hi++
		}
		ids := make([]int, hi-lo)
		for i := lo; i < hi; i++ {
			ids[i-lo] = evs[i].id
		}
		orders[evs[lo].machine] = ids
		lo = hi
	}
	return orders
}

// buildConjunctive adds the job-precedence arcs and returns the flattened
// durations and release lower bounds.
func buildConjunctive(in *shop.Instance) (g *graph, dur, release []int) {
	off := OpOffsets(in)
	total := in.TotalOps()
	g = newGraph(total)
	dur = make([]int, total)
	release = make([]int, total)
	for j, job := range in.Jobs {
		for k, op := range job.Ops {
			id := off[j] + k
			dur[id] = op.Times[0]
			release[id] = job.Release
			if k > 0 {
				g.addArc(off[j]+k-1, id, job.Ops[k-1].Times[0])
			}
		}
	}
	return g, dur, release
}

// JobShopGraph evaluates an operation sequence through the disjunctive
// graph: the sequence is first decoded semi-actively to fix the machine
// orders, then the makespan is recomputed as the longest path of the
// oriented graph. For valid sequences it returns the same makespan as
// JobShop.
func JobShopGraph(in *shop.Instance, seq []int) (int, error) {
	s := JobShop(in, seq)
	orders := MachineOrders(s)
	g, dur, release := buildConjunctive(in)
	for _, order := range orders {
		for i := 1; i < len(order); i++ {
			g.addArc(order[i-1], order[i], dur[order[i-1]])
		}
	}
	ms, _, err := g.makespan(release, dur)
	return ms, err
}

func TestTopoOrderLinear(t *testing.T) {
	g := newGraph(4)
	g.addArc(0, 1, 1)
	g.addArc(1, 2, 1)
	g.addArc(2, 3, 1)
	order, err := g.topoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	if !(pos[0] < pos[1] && pos[1] < pos[2] && pos[2] < pos[3]) {
		t.Fatalf("order %v not topological", order)
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := newGraph(3)
	g.addArc(0, 1, 1)
	g.addArc(1, 2, 1)
	g.addArc(2, 0, 1)
	if _, err := g.topoOrder(); !errors.Is(err, errCycle) {
		t.Fatalf("expected errCycle, got %v", err)
	}
	if _, err := g.longestPath(nil); !errors.Is(err, errCycle) {
		t.Fatalf("longestPath should propagate cycle, got %v", err)
	}
}

func TestLongestPathDiamond(t *testing.T) {
	// 0 ->(3) 1 ->(2) 3 ; 0 ->(1) 2 ->(1) 3 : longest to 3 is 5.
	g := newGraph(4)
	g.addArc(0, 1, 3)
	g.addArc(1, 3, 2)
	g.addArc(0, 2, 1)
	g.addArc(2, 3, 1)
	start, err := g.longestPath(nil)
	if err != nil {
		t.Fatal(err)
	}
	if start[3] != 5 {
		t.Fatalf("start[3] = %d want 5", start[3])
	}
}

func TestLongestPathWithRelease(t *testing.T) {
	g := newGraph(2)
	g.addArc(0, 1, 4)
	start, err := g.longestPath([]int{10, 0})
	if err != nil {
		t.Fatal(err)
	}
	if start[1] != 14 {
		t.Fatalf("start[1] = %d want 14", start[1])
	}
	// Release larger than path-implied start wins.
	start, _ = g.longestPath([]int{0, 100})
	if start[1] != 100 {
		t.Fatalf("release lower bound ignored: %d", start[1])
	}
}

func TestMakespan(t *testing.T) {
	g := newGraph(3)
	g.addArc(0, 1, 5)
	g.addArc(1, 2, 3)
	ms, start, err := g.makespan(nil, []int{5, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if start[2] != 8 || ms != 15 {
		t.Fatalf("start=%v ms=%d", start, ms)
	}
}

func TestAddArcPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newGraph(2).addArc(0, 5, 1)
}

// Property: random DAGs (arcs only forward in a random permutation order)
// always topo-sort, and start times never decrease along arcs.
func TestRandomDAGProperties(t *testing.T) {
	r := rng.New(404)
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw%20) + 2
		m := int(mRaw % 60)
		perm := r.Perm(n)
		g := newGraph(n)
		type pair struct{ u, v, w int }
		var arcs []pair
		for i := 0; i < m; i++ {
			a, b := r.Intn(n), r.Intn(n)
			if a == b {
				continue
			}
			// orient along perm to guarantee acyclicity
			u, v := a, b
			pu, pv := 0, 0
			for idx, p := range perm {
				if p == a {
					pu = idx
				}
				if p == b {
					pv = idx
				}
			}
			if pu > pv {
				u, v = b, a
			}
			w := r.Intn(9) + 1
			g.addArc(u, v, w)
			arcs = append(arcs, pair{u, v, w})
		}
		start, err := g.longestPath(nil)
		if err != nil {
			return false
		}
		for _, a := range arcs {
			if start[a.v] < start[a.u]+a.w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
