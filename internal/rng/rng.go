// Package rng provides deterministic, seedable random number generation for
// the simulator: a xoshiro256** core, uniform helpers, and a Zipfian sampler
// used by the workload generators.
//
// The simulator cannot use math/rand's global state because experiments must
// be reproducible bit-for-bit across runs and independent across components
// (e.g., leaf selection must not perturb workload generation).
package rng

import (
	"math"
	"math/bits"
)

// Rand is a xoshiro256** PRNG. Create with New; the zero value is invalid.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64 expansion.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the all-zero state (cannot happen with splitmix64, but be safe).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// State returns the generator's internal xoshiro256** state for
// checkpointing (durable-store snapshots capture it so a restored engine
// continues the exact random stream it would have produced).
func (r *Rand) State() [4]uint64 { return r.s }

// Restore overwrites the generator with a previously captured State.
func (r *Rand) Restore(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		panic("rng: Restore of all-zero state")
	}
	r.s = s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
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

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n(0)")
	}
	// Lemire's nearly-divisionless bounded generation with rejection.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Zipf samples from a Zipfian distribution over [0, n) with exponent theta
// using rejection-inversion (Hörmann). It models popularity-skewed access
// (graph vertices, embedding rows, KV keys).
type Zipf struct {
	r             *Rand
	n             uint64
	theta         float64
	oneMinusTheta float64
	hIntegralX1   float64
	hIntegralN    float64
	s             float64
}

// NewZipf creates a Zipfian sampler over [0, n) with skew theta in (0, 1) ∪ (1, ∞).
// theta near 0.99 approximates YCSB-style skew.
func NewZipf(r *Rand, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("rng: NewZipf(n=0)")
	}
	if theta <= 0 {
		panic("rng: NewZipf theta must be > 0")
	}
	z := &Zipf{r: r, n: n, theta: theta, oneMinusTheta: 1 - theta}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(float64(n) + 0.5)
	z.s = 2 - z.hIntegralInv(z.hIntegral(2.5)-z.h(2))
	return z
}

func (z *Zipf) h(x float64) float64 { return math.Exp(-z.theta * math.Log(x)) }

// hIntegral is the antiderivative of h: ∫x^-θ dx = (x^(1-θ) - 1)/(1-θ),
// computed in the numerically stable helper form.
func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2((1-z.theta)*logX) * logX
}

func (z *Zipf) hIntegralInv(x float64) float64 {
	t := x * (1 - z.theta)
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1/3.0-x*0.25))
}

func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1/3.0)*(1+x*0.25))
}

// Next samples a rank in [0, n); rank 0 is the most popular item.
func (z *Zipf) Next() uint64 {
	for {
		u := z.hIntegralN + z.r.Float64()*(z.hIntegralX1-z.hIntegralN)
		x := z.hIntegralInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= z.s || u >= z.hIntegral(k+0.5)-z.h(k) {
			return uint64(k) - 1
		}
	}
}
