// Package rng provides deterministic, splittable random number generation
// and the statistical distributions used by the Summit digital twin.
//
// Determinism matters: every experiment in this repository must regenerate
// identical data from the same seed so that tests and benchmarks are
// reproducible. All streams derive from a root seed via stable FNV-1a label
// hashing, so adding a new consumer never perturbs existing streams.
package rng

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"strconv"
)

// Source is a deterministic random stream. It wraps a PCG generator with the
// distribution samplers the simulator needs. Not safe for concurrent use;
// use Split to derive independent streams per goroutine.
type Source struct {
	r *rand.Rand
	// seed pair retained so Split can derive child streams stably.
	hi, lo uint64
}

// New returns a Source rooted at the given seed.
func New(seed uint64) *Source {
	hi := splitmix64(&seed)
	lo := splitmix64(&seed)
	return &Source{r: rand.New(rand.NewPCG(hi, lo)), hi: hi, lo: lo}
}

// golden is the splitmix64 increment (2^64/φ), the odd constant every
// seed derivation in the twin spreads its index or base by.
const golden = 0x9e3779b97f4a7c15

// splitmix64 advances *x and returns a well-mixed 64-bit value. It is the
// standard seed-expansion function for PCG-family generators.
func splitmix64(x *uint64) uint64 {
	*x += golden
	return Mix64(*x)
}

// Mix64 is the splitmix64 finalizer: a bijection on uint64 that diffuses
// every input bit across the word. It is the one mixer behind every
// derived seed, content-addressed identity and random-access noise hash
// in the twin; it is a leaf small enough to inline, so allocation-free
// hot paths (workload.BaseAt, PowerFromBase) can call it.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed derives a run seed from a base seed and a content hash: the
// identity shared by the what-if and scenario planes, so identical physics
// gets an identical run seed in both.
func DeriveSeed(base, hash uint64) uint64 { return Mix64(base*golden + hash) }

// FNV-1a-64 parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// HashString returns the FNV-1a-64 hash of s.
func HashString(s string) uint64 { return fnvString(fnvOffset64, s) }

// ContentHash accumulates the canonical content hash behind scenario and
// what-if identities: FNV-1a-64 over "key=value\n" lines in the order
// written, floats in shortest round-trip form. Start from NewContentHash.
type ContentHash uint64

// NewContentHash returns the empty hash (the FNV-1a offset basis).
func NewContentHash() ContentHash { return fnvOffset64 }

// Str hashes one "k=v\n" line.
func (h *ContentHash) Str(k, v string) {
	*h = ContentHash(fnvString(uint64(*h), k+"="+v+"\n"))
}

// Int hashes one line with v in decimal.
func (h *ContentHash) Int(k string, v int64) { h.Str(k, strconv.FormatInt(v, 10)) }

// Float hashes one line with v in shortest round-trip ('g', -1) form.
func (h *ContentHash) Float(k string, v float64) { h.Str(k, strconv.FormatFloat(v, 'g', -1, 64)) }

// Sum64 returns the hash of everything written so far.
func (h ContentHash) Sum64() uint64 { return uint64(h) }

// Split derives an independent child stream identified by label. The child
// depends only on the parent's seed pair and the label, never on how much of
// the parent stream has been consumed.
func (s *Source) Split(label string) *Source {
	return New(s.hi ^ (s.lo * golden) ^ HashString(label))
}

// SplitN derives an independent child stream identified by label and index,
// for per-node or per-job streams.
func (s *Source) SplitN(label string, n int) *Source {
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(n))
	return New(s.hi ^ (s.lo * golden) ^ fnvString(HashString(label), string(idx[:])))
}

// Float64 returns a uniform sample in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// IntN returns a uniform sample in [0, n). It panics if n <= 0.
func (s *Source) IntN(n int) int { return s.r.IntN(n) }

// IntRange returns a uniform sample in [lo, hi] inclusive.
// It panics if hi < lo.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + s.r.IntN(hi-lo+1)
}

// Uniform returns a uniform sample in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (s *Source) Normal(mean, std float64) float64 {
	return mean + std*s.r.NormFloat64()
}

// TruncNormal returns a Gaussian sample clamped to [lo, hi] by rejection with
// a clamp fallback, so the tails cannot stall the simulator.
func (s *Source) TruncNormal(mean, std, lo, hi float64) float64 {
	for i := 0; i < 16; i++ {
		v := s.Normal(mean, std)
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// LogNormal returns a sample whose logarithm is Normal(mu, sigma).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Pareto returns a sample from a Pareto distribution with scale xm > 0 and
// shape alpha > 0. Heavy-tailed job walltimes and failure bursts use this.
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Poisson returns a Poisson sample with the given rate lambda. For large
// lambda it uses the Gaussian approximation, which is ample for the event
// counting the simulator performs.
func (s *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		v := s.Normal(lambda, math.Sqrt(lambda))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	// Knuth's algorithm. The first uniform decides the overwhelmingly
	// common zero outcome without evaluating math.Exp: 1-λ ≤ exp(-λ), so
	// u ≤ 1-λ already implies u ≤ exp(-λ). The draw sequence is identical
	// either way.
	p := s.r.Float64()
	if p <= 1-lambda {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	for {
		if p <= l {
			return k
		}
		k++
		p *= s.r.Float64()
	}
}

// Categorical returns an index sampled according to the given non-negative
// weights. It panics if weights is empty or sums to zero.
func (s *Source) Categorical(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: empty categorical weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative categorical weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: categorical weights sum to zero")
	}
	u := s.r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle permutes the first n integers and returns them.
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Jitter returns v scaled by a uniform factor in [1-frac, 1+frac].
func (s *Source) Jitter(v, frac float64) float64 {
	return v * s.Uniform(1-frac, 1+frac)
}
