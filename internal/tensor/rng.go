package tensor

import "math"

// RNG is a small, deterministic, splittable pseudo-random generator
// (SplitMix64). Every stochastic component in the repository (datasets,
// initializers, attacks) derives its randomness from an RNG seeded
// explicitly, so that experiments are reproducible run-to-run.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent generator from r; the derived stream does not
// overlap with r's future output for any practical sequence length.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64()*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal sample (Box–Muller).
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int { return r.PermInto(make([]int, n)) }

// PermInto is Perm(len(p)) written over p: the same draws, the same
// permutation, no allocation.
func (r *RNG) PermInto(p []int) []int {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// NormalVector returns a vector of dimension d with i.i.d. N(mu, sigma^2)
// coordinates.
func (r *RNG) NormalVector(d int, mu, sigma float64) Vector {
	out := make(Vector, d)
	r.FillNormal(out, mu, sigma)
	return out
}

// FillNormal overwrites v with i.i.d. N(mu, sigma^2) coordinates — the same
// draws, in the same order, as NormalVector(len(v), mu, sigma).
func (r *RNG) FillNormal(v Vector, mu, sigma float64) {
	for i := range v {
		v[i] = mu + sigma*r.Norm()
	}
}

// UniformVector returns a vector of dimension d with i.i.d. U[lo, hi)
// coordinates.
func (r *RNG) UniformVector(d int, lo, hi float64) Vector {
	out := make(Vector, d)
	span := hi - lo
	for i := range out {
		out[i] = lo + span*r.Float64()
	}
	return out
}
