// Package core implements the randomized concurrent disjoint-set-union
// algorithms of Jayanti & Tarjan, "A Randomized Concurrent Algorithm for
// Disjoint Set Union" (PODC 2016), over native Go atomics.
//
// Each element x has a parent pointer x.parent (an atomic word) and an
// immutable id, its place in the random total order that decides link
// direction. The ids are a keyed pseudorandom permutation of 0..n−1,
// computed from the seed whenever a link compares two roots, so the
// structure stores one word per element and builds no order at
// construction. Because ids never change, a link updates exactly one word
// with one CAS, which is what makes the algorithm wait-free without the
// indirection Anderson & Woll needed for linking by rank (Section 3 of the
// paper).
//
// The package provides every variant the paper defines:
//
//   - Find without compaction (Algorithm 1), with one-try splitting
//     (Algorithm 4), and with two-try splitting (Algorithm 5);
//   - SameSet (Algorithm 2) and Unite (Algorithm 3);
//   - early-termination SameSet and Unite (Algorithms 6 and 7), which
//     interleave the two finds and always advance the currently smaller
//     node;
//   - concurrent halving (the compaction Anderson & Woll used, kept for the
//     ablation experiments) and a concurrent two-pass compression
//     (conjectured workable in Section 6);
//   - a Dynamic variant supporting MakeSet (Section 3 remark and Section
//     7): the same structure over a fixed capacity, of which MakeSet
//     hands out one element at a time; it is lock-free.
//
// Every operation has a *Counted twin that tallies shared-memory work
// (parent reads, CAS attempts/failures, loop iterations) into a caller-owned
// Stats value, so experiments can measure total work in the units of the
// paper's theorems without slowing the uncounted fast path.
//
// UniteSpan and SameSetSpan run the same operations over a span of batch
// edges in groups, requesting (on amd64) the words of later groups'
// endpoints, parents and grandparents while earlier groups run, so their
// cache misses overlap that work; their results and Stats equal a loop of
// the point operations.
package core

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Find selects the find-path compaction strategy.
type Find int

const (
	// FindNaive is Algorithm 1: follow parents, no compaction.
	FindNaive Find = iota + 1
	// FindOneTry is Algorithm 4: try once to swing each parent to its
	// grandparent, then move on.
	FindOneTry
	// FindTwoTry is Algorithm 5: try each parent update twice; the variant
	// with the paper's best work bound (Theorem 5.1).
	FindTwoTry
	// FindHalving is the concurrent halving Anderson & Woll used: after the
	// CAS, jump to the grandparent rather than the parent. Included for the
	// ablation; Section 3 argues halving cannot beat splitting concurrently.
	FindHalving
	// FindCompress is a concurrent two-pass compression (Section 6
	// conjectures such variants retain the bounds): find the root, then CAS
	// every path node's parent up to it. Correctness rests on the fact that
	// the union-forest ancestors of a node form a chain with strictly
	// increasing ids, so an id comparison decides whether a parent is still
	// below the root.
	FindCompress
)

// String names the strategy as used in the paper and the experiment tables.
func (f Find) String() string {
	switch f {
	case FindNaive:
		return "naive"
	case FindOneTry:
		return "onetry"
	case FindTwoTry:
		return "twotry"
	case FindHalving:
		return "halving"
	case FindCompress:
		return "compress"
	default:
		return fmt.Sprintf("Find(%d)", int(f))
	}
}

// Stats tallies shared-memory work in the units of the paper's analysis.
// A Stats value is owned by a single goroutine; workers each keep their own
// and the harness sums them afterwards.
type Stats struct {
	Reads       int64 // shared parent-pointer loads
	CASAttempts int64 // CAS instructions issued
	CASFailures int64 // CAS instructions that returned false
	FindSteps   int64 // find-loop iterations (node visits on find paths)
	Rounds      int64 // top-level retry rounds in SameSet/Unite
	Finds       int64 // find executions
	Links       int64 // successful links (CAS that changed a root's parent)
	Rewrites    int64 // successful parent-pointer rewrites on find paths (compaction CASes that landed; links excluded)
	Ops         int64 // SameSet/Unite operations completed
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.CASAttempts += other.CASAttempts
	s.CASFailures += other.CASFailures
	s.FindSteps += other.FindSteps
	s.Rounds += other.Rounds
	s.Finds += other.Finds
	s.Links += other.Links
	s.Rewrites += other.Rewrites
	s.Ops += other.Ops
}

// Work returns total shared-memory steps: reads plus CAS attempts, the
// paper's "total work" metric.
func (s Stats) Work() int64 { return s.Reads + s.CASAttempts }

// Config fixes a DSU's algorithm variant.
type Config struct {
	// Find selects the compaction strategy; the zero value defaults to
	// FindTwoTry, the paper's headline algorithm.
	Find Find
	// EarlyTermination selects Algorithms 6/7: interleave the two finds of
	// SameSet/Unite, always stepping from the smaller node. Supported for
	// FindNaive, FindOneTry and FindTwoTry, per Section 6.
	EarlyTermination bool
	// Seed fixes the random node order. Runs with equal seeds are
	// structurally identical given identical schedules.
	Seed uint64
}

// DSU is a wait-free concurrent disjoint-set structure over elements
// 0..n−1. All methods are safe for concurrent use by any number of
// goroutines. The zero value is not usable; call New.
type DSU struct {
	parent []atomic.Uint32
	ord    order
	cfg    Config
	// made counts the elements MakeSet has created on a structure
	// NewDynamic built; it is nil on one New built, whose elements all
	// exist from the start. Every view shares it.
	made *atomic.Uint32
	// views holds the find-variant views over this forest, indexed by
	// Find and shared by every view. New builds them once, so WithFind is
	// a lookup: the dsu layer resolves one for every batch that overrides
	// its find variant. Variants the early-termination setting does not
	// define are nil.
	views *[FindCompress + 1]*DSU
}

// New returns a DSU over n singleton elements. It panics if n is negative,
// exceeds 2³¹−1, or cfg combines EarlyTermination with a find strategy the
// paper does not define it for.
func New(n int, cfg Config) *DSU { return build(n, cfg, nil) }

// build is New over a structure whose element count is made, or all n
// slots when made is nil.
func build(n int, cfg Config, made *atomic.Uint32) *DSU {
	if n < 0 || int64(n) > int64(1)<<31-1 {
		panic("core: element count out of range")
	}
	if cfg.Find == 0 {
		cfg.Find = FindTwoTry
	}
	switch cfg.Find {
	case FindNaive, FindOneTry, FindTwoTry, FindHalving, FindCompress:
	default:
		panic("core: unknown find strategy")
	}
	if cfg.EarlyTermination {
		switch cfg.Find {
		case FindNaive, FindOneTry, FindTwoTry:
		default:
			panic("core: early termination is defined only for naive and splitting finds")
		}
	}
	// The identity is filled with plain stores: no other goroutine can
	// see the structure before build returns, and whatever publishes it
	// orders these stores before every later load.
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	d := &DSU{
		parent: atomicWords(ids),
		ord:    newOrder(n, cfg.Seed),
		cfg:    cfg,
		made:   made,
	}
	d.views = new([FindCompress + 1]*DSU)
	for f := FindNaive; f <= FindCompress; f++ {
		switch {
		case f == cfg.Find:
			d.views[f] = d
		case !cfg.EarlyTermination || f <= FindTwoTry:
			v := *d
			v.cfg.Find = f
			d.views[f] = &v
		}
	}
	return d
}

// atomicWords views w as atomic words, sharing its memory. atomic.Uint32
// is a uint32 with uint32's size and alignment (TestAtomicWordLayout pins
// both), so the two slices have one layout.
func atomicWords(w []uint32) []atomic.Uint32 {
	return unsafe.Slice((*atomic.Uint32)(unsafe.Pointer(unsafe.SliceData(w))), len(w))
}

// N returns the number of elements: n on a structure New built, and the
// elements MakeSet has created so far on one NewDynamic built.
func (d *DSU) N() int {
	if d.made != nil {
		if m := d.made.Load(); int64(m) < int64(len(d.parent)) {
			return int(m)
		}
	}
	return len(d.parent)
}

// Config returns the variant configuration.
func (d *DSU) Config() Config { return d.cfg }

// ID returns x's position in the random total order: the ids of a
// structure's elements are a permutation of 0..n−1 (of 0..capacity−1 on a
// Dynamic), fixed by the seed. It panics on an x outside the structure,
// whose cycle walk would never land below n.
func (d *DSU) ID(x uint32) uint32 {
	_ = &d.parent[x]
	return d.ord.at(x)
}

// less reports whether u precedes v in the random total order ("u < v" in
// the paper's pseudocode).
func (d *DSU) less(u, v uint32) bool { return d.ord.at(u) < d.ord.at(v) }

// Find returns the root of the tree currently containing x, applying the
// configured compaction. The returned node was a root at some instant
// during the call (its linearization point).
func (d *DSU) Find(x uint32) uint32 { return d.find(x, nil) }

// FindCounted is Find with work accounting into st.
func (d *DSU) FindCounted(x uint32, st *Stats) uint32 { return d.find(x, st) }

func (d *DSU) find(x uint32, st *Stats) uint32 {
	if st != nil {
		st.Finds++
	}
	switch d.cfg.Find {
	case FindNaive:
		return d.findNaive(x, st)
	case FindOneTry:
		return d.findSplit(x, st, 1)
	case FindTwoTry:
		return d.findSplit(x, st, 2)
	case FindHalving:
		return d.findHalve(x, st)
	default:
		return d.findCompress(x, st)
	}
}

// findNaive is Algorithm 1.
func (d *DSU) findNaive(x uint32, st *Stats) uint32 {
	u := x
	var steps int64
	for {
		steps++
		p := d.parent[u].Load()
		if p == u {
			break
		}
		u = p
	}
	if st != nil {
		st.FindSteps += steps
		st.Reads += steps
	}
	return u
}

// findSplit is Algorithm 4 (tries == 1) and Algorithm 5 (tries == 2):
// splitting that attempts each parent update `tries` times before advancing.
func (d *DSU) findSplit(x uint32, st *Stats, tries int) uint32 {
	u := x
	var steps, reads, cas, casFail int64
	for {
		steps++
		var v uint32
		for t := 0; t < tries; t++ {
			v = d.parent[u].Load()
			w := d.parent[v].Load()
			reads += 2
			if v == w {
				if st != nil {
					st.FindSteps += steps
					st.Reads += reads
					st.CASAttempts += cas
					st.CASFailures += casFail
					st.Rewrites += cas - casFail
				}
				return v
			}
			cas++
			if !d.parent[u].CompareAndSwap(v, w) {
				casFail++
			}
		}
		u = v
	}
}

// findHalve is concurrent halving: like one-try splitting but advancing to
// the grandparent. Safe because w is a union-forest ancestor of u whether or
// not the CAS succeeds (Lemma 3.1's argument).
func (d *DSU) findHalve(x uint32, st *Stats) uint32 {
	u := x
	var steps, reads, cas, casFail int64
	for {
		steps++
		v := d.parent[u].Load()
		w := d.parent[v].Load()
		reads += 2
		if v == w {
			if st != nil {
				st.FindSteps += steps
				st.Reads += reads
				st.CASAttempts += cas
				st.CASFailures += casFail
				st.Rewrites += cas - casFail
			}
			return v
		}
		cas++
		if !d.parent[u].CompareAndSwap(v, w) {
			casFail++
		}
		u = w
	}
}

// findCompress finds the root with Algorithm 1, then makes a second pass
// CASing each path node's parent directly to that root. A parent p of a
// path node is replaced only while ID(p) < ID(root): both p and root are
// union-forest ancestors of the path node, ancestors form a chain, and ids
// strictly increase along it, so the comparison proves root is still a
// proper ancestor of p and the swing moves the pointer upward as Lemma 3.1
// requires.
func (d *DSU) findCompress(x uint32, st *Stats) uint32 {
	root := d.findNaive(x, st)
	u := x
	var steps, reads, cas, casFail int64
	for u != root {
		steps++
		reads++
		p := d.parent[u].Load()
		if p == u {
			break // defensive: only root can be a root on this chain
		}
		if p == root || !d.less(p, root) {
			// u's parent is root or above it on the ancestor chain; the
			// rest of the path is already compressed past root. Testing
			// p == root first spares the common case, a path of one step,
			// computing two ids.
			break
		}
		cas++
		if !d.parent[u].CompareAndSwap(p, root) {
			casFail++
		}
		u = p
	}
	if st != nil {
		st.FindSteps += steps
		st.Reads += reads
		st.CASAttempts += cas
		st.CASFailures += casFail
		st.Rewrites += cas - casFail
	}
	return root
}

// SameSet reports whether x and y are currently in the same set. The answer
// is linearizable: it held at the operation's linearization point
// (Lemma 3.2).
func (d *DSU) SameSet(x, y uint32) bool { return d.sameSet(x, y, nil) }

// SameSetCounted is SameSet with work accounting into st.
func (d *DSU) SameSetCounted(x, y uint32, st *Stats) bool { return d.sameSet(x, y, st) }

func (d *DSU) sameSet(x, y uint32, st *Stats) bool {
	if st != nil {
		st.Ops++
	}
	if d.cfg.EarlyTermination {
		return d.sameSetEarly(x, y, st)
	}
	// Algorithm 2.
	u, v := x, y
	for {
		if st != nil {
			st.Rounds++
		}
		u = d.find(u, st)
		v = d.find(v, st)
		if u == v {
			return true
		}
		if st != nil {
			st.Reads++
		}
		if d.parent[u].Load() == u {
			return false
		}
	}
}

// sameSetEarly is Algorithm 6, with the do-twice body executed once per
// iteration for one-try splitting and a plain parent step for FindNaive.
func (d *DSU) sameSetEarly(x, y uint32, st *Stats) bool {
	u, v := x, y
	for {
		if st != nil {
			st.Rounds++
		}
		if u == v {
			return true
		}
		if d.less(v, u) {
			u, v = v, u
		}
		if st != nil {
			st.Reads++
		}
		if d.parent[u].Load() == u {
			return false
		}
		u = d.earlyStep(u, st)
	}
}

// earlyStep advances u one step along its find path, performing the
// configured compaction (the "do twice" block of Algorithms 6/7).
func (d *DSU) earlyStep(u uint32, st *Stats) uint32 {
	switch d.cfg.Find {
	case FindNaive:
		if st != nil {
			st.Reads++
			st.FindSteps++
		}
		return d.parent[u].Load()
	case FindOneTry, FindTwoTry:
		tries := 1
		if d.cfg.Find == FindTwoTry {
			tries = 2
		}
		var z uint32
		var reads, cas, casFail int64
		for t := 0; t < tries; t++ {
			z = d.parent[u].Load()
			w := d.parent[z].Load()
			reads += 2
			if z == w {
				break // u's parent is a root; nothing to compact
			}
			cas++
			if !d.parent[u].CompareAndSwap(z, w) {
				casFail++
			}
		}
		if st != nil {
			st.Reads += reads
			st.CASAttempts += cas
			st.CASFailures += casFail
			st.Rewrites += cas - casFail
			st.FindSteps++
		}
		return z
	default:
		panic("core: early termination with unsupported find strategy")
	}
}

// Unite merges the sets containing x and y if they differ. It reports
// whether this call performed the link (false when the sets were already
// equal at the linearization point). Linearizable per Lemma 3.2.
func (d *DSU) Unite(x, y uint32) bool {
	merged, _ := d.unite(x, y, nil)
	return merged
}

// UniteCounted is Unite with work accounting into st.
func (d *DSU) UniteCounted(x, y uint32, st *Stats) bool {
	merged, _ := d.unite(x, y, st)
	return merged
}

// UniteRetries is UniteCounted that also reports how many times the
// root-link CAS lost a race to a concurrent link and the loop retried from
// the moved roots — the contention count UniteSpan sums for the batch
// runners' records. Under early termination it is always zero: Algorithm 7
// tries its link CAS at every step of the interleaved walk, so a failure
// there is an ordinary step, not a lost race.
func (d *DSU) UniteRetries(x, y uint32, st *Stats) (merged bool, retries int64) {
	return d.unite(x, y, st)
}

func (d *DSU) unite(x, y uint32, st *Stats) (bool, int64) {
	if st != nil {
		st.Ops++
	}
	if d.cfg.EarlyTermination {
		return d.uniteEarly(x, y, st), 0
	}
	// Algorithm 3: one round per link attempt.
	u, v := x, y
	var retries int64
	for {
		if st != nil {
			st.Rounds++
		}
		u = d.find(u, st)
		v = d.find(v, st)
		if u == v {
			return false, retries
		}
		lo, hi := u, v
		if d.less(hi, lo) {
			lo, hi = hi, lo
		}
		if st != nil {
			st.CASAttempts++
		}
		if d.parent[lo].CompareAndSwap(lo, hi) {
			if st != nil {
				st.Links++
			}
			return true, retries
		}
		// Lost the race: a concurrent link moved lo. Re-find from the
		// current positions — lock-free, since our CAS can only fail
		// because another link landed.
		retries++
		if st != nil {
			st.CASFailures++
		}
	}
}

// uniteEarly is Algorithm 7, adapted to the configured find strategy as in
// sameSetEarly.
func (d *DSU) uniteEarly(x, y uint32, st *Stats) bool {
	u, v := x, y
	for {
		if st != nil {
			st.Rounds++
		}
		if u == v {
			return false
		}
		if d.less(v, u) {
			u, v = v, u
		}
		if st != nil {
			st.CASAttempts++
		}
		if d.parent[u].CompareAndSwap(u, v) {
			if st != nil {
				st.Links++
			}
			return true
		}
		if st != nil {
			st.CASFailures++
		}
		u = d.earlyStep(u, st)
	}
}

// WithFind returns a view of d that runs find variant f over the same
// forest: the view shares d's parent array and random linking order, so
// operations through it are operations on d, observed by and observing
// every other view. Switching variants between operations is safe — every
// variant preserves the Lemma 3.1 invariant that a parent swing moves the
// pointer to a union-forest ancestor, on the same forest — which is what
// per-batch find overrides rely on. The views are built once, in New, so the call allocates nothing. It
// panics on an unknown variant or one the structure's early-termination
// setting does not support, exactly as New would.
func (d *DSU) WithFind(f Find) *DSU {
	if f < FindNaive || f > FindCompress {
		panic("core: unknown find strategy")
	}
	v := d.views[f]
	if v == nil {
		panic("core: early termination is defined only for naive and splitting finds")
	}
	return v
}

// Parent returns x's current parent pointer: a raw snapshot intended for
// forest analysis and tests. It is always safe to call but individually
// meaningful only in quiescent states.
func (d *DSU) Parent(x uint32) uint32 { return d.parent[x].Load() }

// LoadParent overwrites x's parent pointer. Quiescent-state use only: it
// exists so analyses and benchmarks can restore a Snapshot into a structure
// built with the same seed. Loading a forest that violates the id order
// corrupts the structure; callers own that risk.
func (d *DSU) LoadParent(x, parent uint32) { d.parent[x].Store(parent) }

// Snapshot copies the parent pointers of the N elements. Taken while
// operations are in flight it is a per-word-atomic (not point-in-time)
// picture; taken at quiescence it is exact. Forest analyses in the
// experiments always snapshot at quiescence.
func (d *DSU) Snapshot() []uint32 {
	out := make([]uint32, d.N())
	for i := range out {
		out[i] = d.parent[i].Load()
	}
	return out
}

// PutParents stores the parent words of elements from, from+1, … into
// dst, four big-endian bytes each, until dst is full; len(dst) is a
// multiple of four. It is the bulk read a snapshot record streams: like
// Snapshot, it loads each word atomically, so it is exact at quiescence
// and per-word-atomic while operations are in flight.
func (d *DSU) PutParents(dst []byte, from int) {
	words := d.parent[from : from+len(dst)/4]
	for i := range words {
		binary.BigEndian.PutUint32(dst[4*i:], words[i].Load())
	}
}

// CanonicalLabels returns the min-element labelling of the current
// partition. Quiescent-state use only, like Snapshot.
func (d *DSU) CanonicalLabels() []uint32 {
	parent := d.Snapshot()
	n := len(parent)
	root := make([]uint32, n)
	for i := range root {
		x := uint32(i)
		for parent[x] != x {
			x = parent[x]
		}
		root[i] = x
	}
	minOf := make([]uint32, n)
	for i := range minOf {
		minOf[i] = ^uint32(0)
	}
	for i := 0; i < n; i++ {
		if r := root[i]; uint32(i) < minOf[r] {
			minOf[r] = uint32(i)
		}
	}
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = minOf[root[i]]
	}
	return labels
}

// Sets counts the current number of sets (roots). Quiescent-state use only.
func (d *DSU) Sets() int {
	count := 0
	for i, n := 0, d.N(); i < n; i++ {
		if d.parent[i].Load() == uint32(i) {
			count++
		}
	}
	return count
}
