// Package workload generates the operation sequences driven through the
// disjoint-set structures by tests, benchmarks, and the experiment harness:
// random union/find mixes, skewed (Zipf) mixes, adversarial chains and
// stars, and the two constructions from Section 5 of the paper — the
// binomial-style Unite schedule of Lemma 5.3 that forces average node depth
// Ω(log k), and the Theorem 5.4 lower-bound workload that forces total work
// Ω(m log(np/m)).
//
// All generators are deterministic in their seed.
package workload

import (
	"fmt"

	"repro/internal/randutil"
)

// OpKind distinguishes the two exposed operations. The paper's interface
// deliberately exposes only SameSet and Unite (Section 5.4 explains Find can
// be recovered with a spare element).
type OpKind uint8

const (
	// OpUnite merges the sets of X and Y.
	OpUnite OpKind = iota + 1
	// OpSameSet queries whether X and Y share a set.
	OpSameSet
)

// Op is one disjoint-set operation.
type Op struct {
	Kind OpKind
	X, Y uint32
}

// String renders the operation for logs and test failures.
func (o Op) String() string {
	switch o.Kind {
	case OpUnite:
		return fmt.Sprintf("Unite(%d,%d)", o.X, o.Y)
	case OpSameSet:
		return fmt.Sprintf("SameSet(%d,%d)", o.X, o.Y)
	default:
		return fmt.Sprintf("Op(%d,%d,%d)", o.Kind, o.X, o.Y)
	}
}

// RandomUnions returns m Unites over uniformly random pairs of n elements.
func RandomUnions(n, m int, seed uint64) []Op {
	requirePositive(n, m)
	rng := randutil.NewXoshiro256(seed)
	ops := make([]Op, m)
	for i := range ops {
		ops[i] = Op{OpUnite, uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}
	return ops
}

// Mixed returns m operations over n elements where each op is a Unite with
// probability uniteFrac and a SameSet otherwise, on uniform random pairs.
func Mixed(n, m int, uniteFrac float64, seed uint64) []Op {
	requirePositive(n, m)
	if uniteFrac < 0 || uniteFrac > 1 {
		panic("workload: uniteFrac outside [0,1]")
	}
	rng := randutil.NewXoshiro256(seed)
	ops := make([]Op, m)
	for i := range ops {
		kind := OpSameSet
		if rng.Float64() < uniteFrac {
			kind = OpUnite
		}
		ops[i] = Op{kind, uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}
	return ops
}

// ZipfMixed is Mixed with element choices drawn from a Zipf distribution of
// the given skew (s > 0), creating hot elements that concentrate contention.
func ZipfMixed(n, m int, uniteFrac, skew float64, seed uint64) []Op {
	requirePositive(n, m)
	rng := randutil.NewXoshiro256(seed)
	z := randutil.NewZipf(rng, n, skew)
	ops := make([]Op, m)
	for i := range ops {
		kind := OpSameSet
		if rng.Float64() < uniteFrac {
			kind = OpUnite
		}
		ops[i] = Op{kind, uint32(z.Next()), uint32(z.Next())}
	}
	return ops
}

// CommunityUnions returns m Unites over n elements grouped into (at most) c
// contiguous equal-width communities: each edge picks a home community and,
// with probability pIntra, keeps both endpoints inside it; otherwise the
// second endpoint lands in a different community. This models the locality
// of real graphs — most edges stay inside a community, few cross — and,
// because communities are contiguous blocks of elements, it gives a batch
// the spatial locality a cache-sized block of the parent array rewards.
func CommunityUnions(n, m, c int, pIntra float64, seed uint64) []Op {
	requirePositive(n, m)
	if c < 1 || c > n {
		panic("workload: community count must be in 1..n")
	}
	if pIntra < 0 || pIntra > 1 {
		panic("workload: pIntra outside [0,1]")
	}
	rng := randutil.NewXoshiro256(seed)
	block := (n + c - 1) / c
	c = (n + block - 1) / block // ceil-width blocks may cover n in fewer pieces
	pick := func(comm int) uint32 {
		lo := comm * block
		hi := lo + block
		if hi > n {
			hi = n
		}
		return uint32(lo + rng.Intn(hi-lo))
	}
	ops := make([]Op, m)
	for i := range ops {
		home := rng.Intn(c)
		x := pick(home)
		var y uint32
		if c == 1 || rng.Float64() < pIntra {
			y = pick(home)
		} else {
			other := rng.Intn(c - 1)
			if other >= home {
				other++
			}
			y = pick(other)
		}
		ops[i] = Op{OpUnite, x, y}
	}
	return ops
}

// Chain returns the n−1 Unites (i, i+1) that join all elements into one
// long component, a classic adversarial sequence for naive linking.
func Chain(n int) []Op {
	requirePositive(n, 1)
	ops := make([]Op, 0, n-1)
	for i := 0; i+1 < n; i++ {
		ops = append(ops, Op{OpUnite, uint32(i), uint32(i + 1)})
	}
	return ops
}

// Star returns the n−1 Unites (0, i), concentrating every link on one hub.
func Star(n int) []Op {
	requirePositive(n, 1)
	ops := make([]Op, 0, n-1)
	for i := 1; i < n; i++ {
		ops = append(ops, Op{OpUnite, 0, uint32(i)})
	}
	return ops
}

// BinomialPairing returns the Lemma 5.3 construction over elements
// lo..lo+k−1: unite sets in pairs through their representatives, lg k
// rounds, producing a k-node tree whose average node depth is Ω(log k) even
// though every find splits. k need not be a power of two; the tail block is
// folded in at the end exactly as the lemma's proof does.
func BinomialPairing(lo uint32, k int) []Op {
	if k <= 0 {
		panic("workload: BinomialPairing with k <= 0")
	}
	// Largest power of two ≤ k.
	pow := 1
	for pow*2 <= k {
		pow *= 2
	}
	var ops []Op
	// Representatives are the block leaders: after round i, element
	// lo+j·2^(i+1) represents the block of size 2^(i+1) starting there.
	for gap := 1; gap < pow; gap *= 2 {
		for j := 0; j+gap < pow; j += 2 * gap {
			ops = append(ops, Op{OpUnite, lo + uint32(j), lo + uint32(j+gap)})
		}
	}
	// Fold in the remainder as the lemma does: build the leftover elements
	// into an arbitrary tree (a chain of unites) and unite with the power-
	// of-two tree through its representative.
	for j := pow; j < k; j++ {
		ops = append(ops, Op{OpUnite, lo + uint32(pow), lo + uint32(j)})
	}
	if pow < k {
		ops = append(ops, Op{OpUnite, lo, lo + uint32(pow)})
	}
	return ops
}

// MultiWorkload is a two-phase concurrent workload: Setup runs to completion
// on one process before the measured phase, in which process i executes
// PerProc[i].
type MultiWorkload struct {
	Setup   []Op
	PerProc [][]Op
}

// Ops returns the total number of operations in the measured phase.
func (w MultiWorkload) Ops() int {
	total := 0
	for _, ops := range w.PerProc {
		total += len(ops)
	}
	return total
}

// LowerBound builds the Theorem 5.4 part-2 workload: n/δ trees of δ nodes
// each with expected node depth Ω(log δ) (via BinomialPairing), then every
// one of the p processes performs SameSet(xᵢ, xᵢ) for a randomly chosen
// node xᵢ of each tree Tᵢ. Run in lockstep, each query pays the depth of
// xᵢ, forcing Ω(m log δ) total work. δ must divide n; the paper sets
// δ = np/(3m).
func LowerBound(n, p, delta int, seed uint64) MultiWorkload {
	requirePositive(n, 1)
	if p <= 0 {
		panic("workload: LowerBound with p <= 0")
	}
	if delta <= 0 || n%delta != 0 {
		panic("workload: LowerBound delta must be positive and divide n")
	}
	trees := n / delta
	var setup []Op
	for t := 0; t < trees; t++ {
		setup = append(setup, BinomialPairing(uint32(t*delta), delta)...)
	}
	rng := randutil.NewXoshiro256(seed)
	queries := make([]Op, trees)
	for t := 0; t < trees; t++ {
		x := uint32(t*delta + rng.Intn(delta))
		queries[t] = Op{OpSameSet, x, x}
	}
	perProc := make([][]Op, p)
	for i := range perProc {
		// Each process performs the same query sequence; copied so callers
		// may shuffle per-process without aliasing.
		perProc[i] = append([]Op(nil), queries...)
	}
	return MultiWorkload{Setup: setup, PerProc: perProc}
}

// SplitRoundRobin deals ops round-robin to p processes, the default way the
// harness turns a sequential trace into a concurrent one.
func SplitRoundRobin(ops []Op, p int) [][]Op {
	if p <= 0 {
		panic("workload: SplitRoundRobin with p <= 0")
	}
	out := make([][]Op, p)
	for i := range out {
		out[i] = make([]Op, 0, (len(ops)+p-1)/p)
	}
	for i, op := range ops {
		out[i%p] = append(out[i%p], op)
	}
	return out
}

// SplitBlocks deals ops to p processes in contiguous blocks, preserving
// per-process locality.
func SplitBlocks(ops []Op, p int) [][]Op {
	if p <= 0 {
		panic("workload: SplitBlocks with p <= 0")
	}
	out := make([][]Op, p)
	chunk := (len(ops) + p - 1) / p
	for i := range out {
		lo := i * chunk
		hi := lo + chunk
		if lo > len(ops) {
			lo = len(ops)
		}
		if hi > len(ops) {
			hi = len(ops)
		}
		out[i] = ops[lo:hi]
	}
	return out
}

// SortedUnions returns the Chain workload's unions ordered so that the
// linearization order of Unites correlates perfectly with element order —
// the adversarial input for the independence-assumption ablation (E11):
// under the identity node order this produces maximal-depth link chains.
func SortedUnions(n int) []Op {
	return Chain(n)
}

func requirePositive(n, m int) {
	if n <= 0 {
		panic("workload: need at least one element")
	}
	if m < 0 {
		panic("workload: negative operation count")
	}
}
