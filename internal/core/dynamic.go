package core

import (
	"errors"
	"sync/atomic"

	"repro/internal/randutil"
)

// ErrFull is returned by MakeSet when the Dynamic structure's capacity is
// exhausted.
var ErrFull = errors.New("core: dynamic DSU at capacity")

// Dynamic is the MakeSet extension of Section 3's remark and Section 7:
// elements are created on line, each assigned a random priority drawn from a
// 64-bit universe, with element index as the tie-breaking rule so the order
// stays total and cycles cannot form. With an unbounded universe of
// MakeSets the paper's algorithms are lock-free rather than wait-free; this
// implementation bounds the universe by a fixed capacity chosen at
// construction (a Go slice must be allocated somewhere), which restores
// wait-freedom once the capacity is reached and documents the paper's
// distinction rather than hiding it.
//
// Find uses two-try splitting; the linking order is (priority, index)
// lexicographic. All methods are safe for concurrent use, including
// concurrent MakeSets.
type Dynamic struct {
	parent []atomic.Uint32
	seed   uint64
	next   atomic.Uint32
}

// NewDynamic returns an empty Dynamic structure able to hold up to capacity
// elements. It panics if capacity is negative or exceeds 2³¹−1.
func NewDynamic(capacity int, seed uint64) *Dynamic {
	if capacity < 0 || int64(capacity) > int64(1)<<31-1 {
		panic("core: dynamic capacity out of range")
	}
	d := &Dynamic{
		parent: make([]atomic.Uint32, capacity),
		seed:   seed,
	}
	// Every slot is initialized to a singleton up front, so a process that
	// races MakeSet (observes the new length before using the element) still
	// sees a well-formed singleton rather than an uninitialized word. This
	// is what makes MakeSet a single atomic increment.
	for i := range d.parent {
		d.parent[i].Store(uint32(i))
	}
	return d
}

// MakeSet creates a new element in a singleton set and returns it.
// It is safe to call concurrently with every other method.
func (d *Dynamic) MakeSet() (uint32, error) {
	idx := d.next.Add(1) - 1
	if int64(idx) >= int64(len(d.parent)) {
		d.next.Add(^uint32(0)) // undo; keeps Len meaningful
		return 0, ErrFull
	}
	return idx, nil
}

// Len returns the number of elements created so far.
func (d *Dynamic) Len() int {
	n := int(d.next.Load())
	if n > len(d.parent) {
		n = len(d.parent)
	}
	return n
}

// Cap returns the capacity.
func (d *Dynamic) Cap() int { return len(d.parent) }

// prio returns x's priority: a pseudorandom 64-bit value derived from the
// seed and the element index, exactly the "random number from a large
// universe" of Section 7, made deterministic per seed for reproducibility.
func (d *Dynamic) prio(x uint32) uint64 {
	return randutil.Mix64(d.seed ^ (uint64(x) + 0x9e3779b97f4a7c15))
}

// less orders elements by (priority, index); the index tie-break keeps the
// order total even on the (astronomically unlikely) 64-bit collision, which
// is the paper's cycle-prevention requirement.
func (d *Dynamic) less(u, v uint32) bool {
	pu, pv := d.prio(u), d.prio(v)
	if pu != pv {
		return pu < pv
	}
	return u < v
}

// Find returns the root of x's tree, compacting with two-try splitting.
func (d *Dynamic) Find(x uint32) uint32 { return d.findCounted(x, nil) }

// FindCounted is Find with work accounting.
func (d *Dynamic) FindCounted(x uint32, st *Stats) uint32 {
	if st != nil {
		st.Finds++
	}
	return d.findCounted(x, st)
}

func (d *Dynamic) findCounted(x uint32, st *Stats) uint32 {
	u := x
	var steps, reads, cas, casFail int64
	for {
		steps++
		var v uint32
		for t := 0; t < 2; t++ {
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

// SameSet reports whether x and y are in the same set (Algorithm 2 over the
// dynamic order).
func (d *Dynamic) SameSet(x, y uint32) bool { return d.SameSetCounted(x, y, nil) }

// SameSetCounted is SameSet with work accounting.
func (d *Dynamic) SameSetCounted(x, y uint32, st *Stats) bool {
	if st != nil {
		defer func() { st.Ops++ }()
	}
	u, v := x, y
	for {
		if st != nil {
			st.Rounds++
		}
		u = d.FindCounted(u, st)
		v = d.FindCounted(v, st)
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

// Unite merges the sets of x and y (Algorithm 3 over the dynamic order),
// reporting whether this call performed the link.
func (d *Dynamic) Unite(x, y uint32) bool { return d.UniteCounted(x, y, nil) }

// UniteCounted is Unite with work accounting.
func (d *Dynamic) UniteCounted(x, y uint32, st *Stats) bool {
	merged, _ := d.UniteRetries(x, y, st)
	return merged
}

// UniteRetries is UniteCounted that also reports how many times the
// root-link CAS lost a race and retried, as DSU.UniteRetries.
func (d *Dynamic) UniteRetries(x, y uint32, st *Stats) (merged bool, retries int64) {
	if st != nil {
		defer func() { st.Ops++ }()
	}
	u, v := x, y
	for {
		if st != nil {
			st.Rounds++
		}
		u = d.FindCounted(u, st)
		v = d.FindCounted(v, st)
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
		retries++
		if st != nil {
			st.CASFailures++
		}
	}
}

// UniteSpan runs UniteRetries over every edge of span, returning the merge
// count and summed retries, with DSU.UniteSpan's self-loop rule: a
// self-loop counts as a completed operation and pays no finds.
func (d *Dynamic) UniteSpan(span []Edge, st *Stats) (merged, retries int64) {
	for _, e := range span {
		if e.X == e.Y {
			if st != nil {
				st.Ops++
			}
			continue
		}
		m, r := d.UniteRetries(e.X, e.Y, st)
		if m {
			merged++
		}
		retries += r
	}
	return merged, retries
}

// SameSetSpan answers pairs[i] into out[i] with SameSetCounted, answering
// a self-pair true as DSU.SameSetSpan does.
func (d *Dynamic) SameSetSpan(pairs []Edge, out []bool, st *Stats) {
	out = out[:len(pairs)]
	for i, e := range pairs {
		if e.X == e.Y {
			out[i] = true
			if st != nil {
				st.Ops++
			}
			continue
		}
		out[i] = d.SameSetCounted(e.X, e.Y, st)
	}
}

// Parent returns x's current parent pointer (quiescent-state analysis use).
func (d *Dynamic) Parent(x uint32) uint32 { return d.parent[x].Load() }

// CanonicalLabels returns the min-element labelling over the elements
// created so far. Quiescent-state use only.
func (d *Dynamic) CanonicalLabels() []uint32 {
	n := d.Len()
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = d.parent[i].Load()
	}
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
