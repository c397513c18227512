package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64-seeded xorshift*). Every stochastic component in the repository
// (feature synthesis, weight init, dropout, sampling) draws from an RNG seeded
// explicitly, so whole experiments replay bit-identically.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because the xorshift state must never be zero.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to a state derived from seed via SplitMix64.
func (r *RNG) Seed(seed uint64) {
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x2545F4914F6CDD1D
	}
	r.state = z
}

// State returns the generator's internal state, for checkpointing. The
// state is never zero, so a zero value can mark "no saved state".
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state previously returned by State, resuming the
// stream exactly where it left off. A zero state is remapped like Seed's
// zero handling so a restored RNG is always valid.
func (r *RNG) SetState(s uint64) {
	if s == 0 {
		s = 0x2545F4914F6CDD1D
	}
	r.state = s
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float32 returns a uniform value in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	// Rejection-free Box–Muller; u1 is nudged away from zero.
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// RandNormal fills a new rows x cols tensor with N(mean, std²) values.
func RandNormal(rows, cols int, mean, std float32, rng *RNG) *Tensor {
	t := New(rows, cols)
	for i := range t.data {
		t.data[i] = mean + float32(std*float32(rng.NormFloat64()))
	}
	return t
}

// XavierUniform returns a rows x cols weight matrix initialised with the
// Glorot/Xavier uniform scheme: U(-a, a) with a = sqrt(6 / (fanIn + fanOut)).
func XavierUniform(rows, cols int, rng *RNG) *Tensor {
	a := float32(math.Sqrt(6 / float64(rows+cols)))
	t := New(rows, cols)
	for i := range t.data {
		t.data[i] = -a + float32(2*a*rng.Float32())
	}
	return t
}
