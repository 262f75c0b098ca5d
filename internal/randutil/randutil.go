// Package randutil provides small, deterministic, allocation-free random
// number utilities used throughout the repository.
//
// Everything here is seeded explicitly: experiments must be reproducible
// run-to-run, and the paper's analysis is over the algorithm's own random
// choices, so we never read entropy from the environment. The generators are
// splitmix64 (for seeding and cheap hashing) and xoshiro256** (for streams),
// both public-domain algorithms by Blackman and Vigna.
package randutil

import "math/bits"

// SplitMix64 is a tiny 64-bit PRNG with a single word of state. It is used
// to derive seeds for other generators and as a stateless mixing function.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return Mix64(s.state)
}

// Mix64 applies the splitmix64 finalizer to x. It is a high-quality 64-bit
// mixing function: distinct inputs give decorrelated outputs.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro256 is the xoshiro256** generator: fast, 256 bits of state, and
// statistically strong for simulation workloads.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator whose state is expanded from seed with
// splitmix64, per the authors' recommendation. It inlines, so a caller that
// holds the generator by value (rng := *NewXoshiro256(seed)) keeps its
// state off the heap.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	x := xoshiro256(seed)
	return &x
}

func xoshiro256(seed uint64) Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	// A pathological all-zero state cannot arise from splitmix64 expansion of
	// any seed, but guard anyway: the zero state is a fixed point.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return x
}

// Next returns the next 64-bit value in the stream.
func (x *Xoshiro256) Next() uint64 {
	result := bits.RotateLeft64(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = bits.RotateLeft64(x.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// It uses Lemire's multiply-shift bounded-rejection method.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("randutil: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return x.Next() & (n - 1)
	}
	hi, lo := bits.Mul64(x.Next(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(x.Next(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("randutil: Intn with n <= 0")
	}
	return int(x.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Next()>>11) / (1 << 53)
}

// Perm returns a random permutation of 0..n-1 as a []uint32, generated by an
// inside-out Fisher–Yates shuffle. The result is the random total node order
// required by randomized linking. It panics if n exceeds what uint32 indexes.
func (x *Xoshiro256) Perm(n int) []uint32 {
	if n < 0 || int64(n) > int64(1)<<32-1 {
		panic("randutil: Perm size out of uint32 range")
	}
	p := make([]uint32, n)
	for i := 1; i < n; i++ {
		j := x.Intn(i + 1)
		p[i] = p[j]
		p[j] = uint32(i)
	}
	return p
}

// PermInt is Perm with an []int result, for callers indexing large tables.
func (x *Xoshiro256) PermInt(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := x.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (x *Xoshiro256) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		swap(i, j)
	}
}
