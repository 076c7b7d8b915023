// Package rng provides deterministic, splittable pseudo-random number
// streams for reproducible parallel genetic algorithms.
//
// Every island, worker, or grid partition receives its own stream derived
// with Split, so results are independent of goroutine scheduling: two runs
// with the same master seed produce identical populations as long as the
// synchronisation points (migration epochs, generation barriers) are fixed.
//
// The generator is xoshiro256** seeded through SplitMix64, following the
// reference constructions by Blackman and Vigna. It is not cryptographically
// secure; it is fast, has a 2^256-1 period, and passes BigCrush.
package rng

import "math"

// RNG is a single xoshiro256** stream. It is not safe for concurrent use;
// derive one stream per goroutine with Split.
type RNG struct {
	s [4]uint64
	// cached second normal deviate for NormFloat64
	hasGauss bool
	gauss    float64
}

// New returns a stream seeded from seed via SplitMix64 so that nearby seeds
// yield uncorrelated states.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		r.s[i] = z
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives a new independent stream from r, advancing r.
// The derived stream is seeded from the parent's output, which is the
// standard splittable-RNG construction for fork-join parallelism.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// SplitN derives n independent substreams from r, advancing r by exactly
// n draws. It is the stream API of the sharded generation pipeline: the
// engine derives one substream per population shard once, up front, so the
// number of parent draws — and therefore every substream's seed — depends
// only on the shard count, never on how many workers later execute the
// shards. That is what makes sharded runs bit-identical for any worker
// count, including 1.
func (r *RNG) SplitN(n int) []*RNG {
	if n < 0 {
		panic("rng: SplitN with n < 0")
	}
	out := make([]*RNG, n)
	for i := range out {
		out[i] = New(r.Uint64())
	}
	return out
}

// State is the marshalable full state of an RNG stream: the xoshiro256**
// registers plus the Gaussian cache. Capturing it with State and loading
// it with SetState resumes a stream exactly where it left off, which is
// what makes checkpointed GA runs replay bit-identically — the stream is
// the only hidden input of a deterministic engine.
type State struct {
	S        [4]uint64 `json:"s"`
	HasGauss bool      `json:"has_gauss,omitempty"`
	Gauss    float64   `json:"gauss,omitempty"`
}

// State returns a copy of the stream's current state.
func (r *RNG) State() State {
	return State{S: r.s, HasGauss: r.hasGauss, Gauss: r.gauss}
}

// SetState loads a previously captured state, so the stream's next draws
// continue exactly where State was taken. An all-zero register state (not
// producible by State, but possible on a zero value or corrupt input) is
// replaced by the same escape constant New uses, since xoshiro must never
// run from the all-zero state.
func (r *RNG) SetState(s State) {
	r.s = s.S
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.hasGauss = s.HasGauss
	r.gauss = s.Gauss
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling with rejection.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomises the order of n elements using the provided swap,
// via the Fisher-Yates algorithm.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal deviate using the Marsaglia polar
// method, caching the second deviate of each pair.
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}
