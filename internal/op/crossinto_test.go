package op

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// intoFunc is the shape of a CrossoverInto instance over int genomes.
type intoFunc = func(r *rng.RNG, a, b, d1, d2 []int) ([]int, []int)

// TestCrossIntoMatchesCross pins every recycling crossover to a reference:
// JOX and OX (recycling and plain forms, which share one kernel) and LOX
// to the branchy bodies of oracle_test.go, UniformInt and UniformKeysInto
// to their plain counterparts. Same parents, same RNG state => identical
// children and identical randomness consumed, whether the destination is
// nil (fresh storage) or a recycled slice of any capacity. This is the
// property that lets the engine swap CrossInto in without changing a
// trajectory. Shapes cover the engine's real genomes: ft10 (10x10) and
// 15x10 operation sequences, 20- and 50-element permutations.
func TestCrossIntoMatchesCross(t *testing.T) {
	seq := func(jobs, opsPer int) func(r *rng.RNG) ([]int, []int) {
		return func(r *rng.RNG) ([]int, []int) {
			return randomOpSeq(r, jobs, opsPer), randomOpSeq(r, jobs, opsPer)
		}
	}
	perm := func(n int) func(r *rng.RNG) ([]int, []int) {
		return func(r *rng.RNG) ([]int, []int) { return r.Perm(n), r.Perm(n) }
	}
	ints := func(r *rng.RNG) ([]int, []int) {
		mk := func() []int {
			g := make([]int, 7)
			for i := range g {
				g[i] = r.Intn(5)
			}
			return g
		}
		return mk(), mk()
	}
	plainInto := func(plain func(r *rng.RNG, a, b []int) ([]int, []int)) func() intoFunc {
		return func() intoFunc {
			return func(r *rng.RNG, a, b, _, _ []int) ([]int, []int) { return plain(r, a, b) }
		}
	}
	joxInto := func(jobs int) func() intoFunc {
		return func() intoFunc { return JOXInto(jobs)() }
	}
	oxInto := func() intoFunc { return OXInto()() }

	intCases := []struct {
		name string
		want func(r *rng.RNG, a, b []int) ([]int, []int)
		into func() intoFunc
		gen  func(r *rng.RNG) ([]int, []int)
	}{
		{"JOX", joxOracle(4), joxInto(4), seq(4, 3)},
		{"JOX-ft10", joxOracle(10), joxInto(10), seq(10, 10)},
		{"JOX-15x10", joxOracle(15), joxInto(15), seq(15, 10)},
		{"JOXPlain-ft10", joxOracle(10), plainInto(JOX(10)), seq(10, 10)},
		{"OX", oxOracle, oxInto, perm(9)},
		{"OX-20", oxOracle, oxInto, perm(20)},
		{"OX-50", oxOracle, oxInto, perm(50)},
		{"OXPlain-20", oxOracle, plainInto(OX), perm(20)},
		{"LOX-20", loxOracle, plainInto(LOX), perm(20)},
		{"UniformInt", UniformInt, func() intoFunc { return UniformIntInto()() }, ints},
	}
	for _, tc := range intCases {
		t.Run(tc.name, func(t *testing.T) {
			into := tc.into()
			for trial := 0; trial < 200; trial++ {
				gr := rng.New(uint64(1000 + trial))
				a, b := tc.gen(gr)
				r1 := rng.New(uint64(trial))
				w1, w2 := tc.want(r1, a, b)
				var d1, d2 []int
				switch trial % 3 {
				case 1: // undersized recycled storage
					d1, d2 = make([]int, 1), make([]int, 2)
				case 2: // oversized recycled storage, dirty contents
					d1, d2 = make([]int, len(a)+5), make([]int, len(a)+3)
					for i := range d1 {
						d1[i] = -7
					}
				}
				r2 := rng.New(uint64(trial))
				g1, g2 := into(r2, a, b, d1, d2)
				if !reflect.DeepEqual(w1, g1) || !reflect.DeepEqual(w2, g2) {
					t.Fatalf("trial %d: children %v/%v != reference %v/%v", trial, g1, g2, w1, w2)
				}
				if r1.Uint64() != r2.Uint64() {
					t.Fatalf("trial %d: consumed different randomness than the reference", trial)
				}
			}
		})
	}

	// Forced cuts the RNG rarely or never draws: a segment starting at 0,
	// one ending at n, and the whole genome (c2-c1 = n).
	t.Run("OXChildForcedCuts", func(t *testing.T) {
		for _, n := range []int{1, 2, 9, 20, 50} {
			gr := rng.New(uint64(7000 + n))
			inSeg, fill := make([]int, n), make([]int, n)
			for trial := 0; trial < 20; trial++ {
				a, b := gr.Perm(n), gr.Perm(n)
				for _, cut := range [][2]int{{0, 1 + gr.Intn(n)}, {gr.Intn(n), n}, {0, n}} {
					c1, c2 := cut[0], cut[1]
					got := make([]int, n)
					oxChildInto(got, a, b, c1, c2, inSeg, fill)
					if want := oxChild(a, b, c1, c2, true); !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d cuts [%d,%d): child %v != reference %v", n, c1, c2, got, want)
					}
					if lox, want := loxChild(a, b, c1, c2), oxChild(a, b, c1, c2, false); !reflect.DeepEqual(lox, want) {
						t.Fatalf("n=%d cuts [%d,%d): LOX child %v != reference %v", n, c1, c2, lox, want)
					}
					for v, m := range inSeg {
						if m != 0 {
							t.Fatalf("n=%d cuts [%d,%d): segment mark of %d left set", n, c1, c2, v)
						}
					}
				}
			}
		}
	})

	// Extreme keep-masks: every job kept copies the first parent, none kept
	// copies the second.
	t.Run("JOXChildExtremeMasks", func(t *testing.T) {
		gr := rng.New(7100)
		const jobs = 10
		a, b := randomOpSeq(gr, jobs, 10), randomOpSeq(gr, jobs, 10)
		fill := make([]int, len(a)+1)
		for _, bit := range []int{0, 1} {
			keep := make([]int, jobs)
			keepB := make([]bool, jobs)
			for j := range keep {
				keep[j], keepB[j] = bit, bit == 1
			}
			got := make([]int, len(a))
			joxChildInto(got, a, b, keep, fill)
			if want := joxChild(a, b, keepB); !reflect.DeepEqual(got, want) {
				t.Fatalf("keep=%d: child %v != reference %v", bit, got, want)
			}
		}
	})

	t.Run("UniformKeys", func(t *testing.T) {
		plain := ParameterizedUniformKeys(0.7)
		into := UniformKeysInto(0.7)()
		for trial := 0; trial < 200; trial++ {
			gr := rng.New(uint64(5000 + trial))
			mk := func() []float64 {
				g := make([]float64, 11)
				for i := range g {
					g[i] = gr.Float64()
				}
				return g
			}
			a, b := mk(), mk()
			r1 := rng.New(uint64(trial))
			w1, w2 := plain(r1, a, b)
			r2 := rng.New(uint64(trial))
			g1, g2 := into(r2, a, b, nil, make([]float64, 3))
			if !reflect.DeepEqual(w1, g1) || !reflect.DeepEqual(w2, g2) {
				t.Fatalf("trial %d: into children differ from plain", trial)
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatalf("trial %d: into consumed different randomness", trial)
			}
		}
	})
}

// TestCrossIntoDoesNotTouchParents guards the aliasing contract: recycling
// crossovers must read the parents only.
func TestCrossIntoDoesNotTouchParents(t *testing.T) {
	r := rng.New(3)
	perms := [2][]int{{0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}}
	seqs := [2][]int{randomOpSeq(r, 4, 3), randomOpSeq(r, 4, 3)}
	cases := []struct {
		name    string
		into    intoFunc
		parents [2][]int
	}{
		{"OXInto", OXInto()(), perms},
		{"JOXInto", JOXInto(4)(), seqs},
	}
	for _, tc := range cases {
		a, b := tc.parents[0], tc.parents[1]
		ac := append([]int(nil), a...)
		bc := append([]int(nil), b...)
		for i := 0; i < 50; i++ {
			tc.into(r, a, b, nil, nil)
		}
		if !reflect.DeepEqual(a, ac) || !reflect.DeepEqual(b, bc) {
			t.Fatalf("%s mutated a parent", tc.name)
		}
	}
}
