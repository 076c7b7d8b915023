package op

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/rng"
)

// rankPerm returns the permutation of 0..n-1 that stably sorts key (key is
// zero-padded or truncated to n bytes), so any byte string decodes to a
// valid permutation.
func rankPerm(key []byte, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	at := func(i int) byte {
		if i < len(key) {
			return key[i]
		}
		return 0
	}
	sort.SliceStable(p, func(i, j int) bool { return at(p[i]) < at(p[j]) })
	return p
}

// toBytes encodes a small-valued int genome as fuzz corpus bytes.
func toBytes(g []int) []byte {
	out := make([]byte, len(g))
	for i, v := range g {
		out[i] = byte(v)
	}
	return out
}

// FuzzJOXInto checks the branch-free JOX kernel against the reference body
// on arbitrary valid parent pairs: tokens decode to an operation sequence
// over 1..16 jobs and order to a reordering of it, so both parents always
// hold the same token multiset.
func FuzzJOXInto(f *testing.F) {
	r := rng.New(11)
	for _, shape := range [][2]int{{4, 3}, {10, 10}, {15, 10}} {
		a := randomOpSeq(r, shape[0], shape[1])
		f.Add(uint8(shape[0]-1), toBytes(a), toBytes(r.Perm(len(a))), uint64(shape[0]))
	}
	f.Fuzz(func(t *testing.T, jobs uint8, tokens, order []byte, seed uint64) {
		numJobs := int(jobs)%16 + 1
		if len(tokens) > 400 {
			tokens = tokens[:400]
		}
		a := make([]int, len(tokens))
		for i, x := range tokens {
			a[i] = int(x) % numJobs
		}
		b := make([]int, len(a))
		for i, k := range rankPerm(order, len(a)) {
			b[i] = a[k]
		}
		w1, w2 := joxOracle(numJobs)(rng.New(seed), a, b)
		dirty := make([]int, len(a)+2)
		for i := range dirty {
			dirty[i] = -1
		}
		g1, g2 := JOXInto(numJobs)()(rng.New(seed), a, b, dirty, nil)
		if !reflect.DeepEqual(w1, g1) || !reflect.DeepEqual(w2, g2) {
			t.Fatalf("parents %v / %v: children %v / %v != reference %v / %v", a, b, g1, g2, w1, w2)
		}
	})
}

// FuzzOXInto checks the branch-free OX kernel against the reference body
// on arbitrary permutation pairs, both through OXInto's own cut draw and
// through oxChildInto with fuzzed cuts (any 0 <= c1 < c2 <= n).
func FuzzOXInto(f *testing.F) {
	r := rng.New(12)
	for _, n := range []int{1, 9, 20, 50} {
		f.Add(toBytes(r.Perm(n)), toBytes(r.Perm(n)), uint64(n), uint8(0), uint8(n))
	}
	f.Fuzz(func(t *testing.T, aKey, bKey []byte, seed uint64, lo, hi uint8) {
		n := min(max(len(aKey), 1), 300)
		a, b := rankPerm(aKey, n), rankPerm(bKey, n)
		w1, w2 := oxOracle(rng.New(seed), a, b)
		g1, g2 := OXInto()()(rng.New(seed), a, b, nil, make([]int, 1))
		if !reflect.DeepEqual(w1, g1) || !reflect.DeepEqual(w2, g2) {
			t.Fatalf("parents %v / %v: children %v / %v != reference %v / %v", a, b, g1, g2, w1, w2)
		}
		c1 := int(lo) % n
		c2 := c1 + 1 + int(hi)%(n-c1)
		got := make([]int, n)
		oxChildInto(got, a, b, c1, c2, make([]int, n), make([]int, n))
		if want := oxChild(a, b, c1, c2, true); !reflect.DeepEqual(got, want) {
			t.Fatalf("parents %v / %v cuts [%d,%d): child %v != reference %v", a, b, c1, c2, got, want)
		}
	})
}
