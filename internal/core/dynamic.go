package core

import (
	"errors"
	"sync/atomic"
)

// ErrFull is returned by MakeSet when the Dynamic structure's capacity is
// exhausted.
var ErrFull = errors.New("core: dynamic DSU at capacity")

// Dynamic is the MakeSet extension of Section 3's remark and Section 7: a
// DSU whose elements are created on line. It is the structure New builds
// over a fixed capacity, plus a count of the elements created so far, so
// every find variant, the span kernel and every analysis run on it
// unchanged, and N reports the count. Each element's place in the linking
// order is its id in the capacity-wide random permutation: uniformly
// random and independent of the operations, as Section 7's "random number
// from a large universe" is. With an unbounded universe of MakeSets the
// paper's algorithms are lock-free rather than wait-free; the fixed
// capacity (a Go slice must be allocated somewhere) restores wait-freedom
// once it is reached, and documents the paper's distinction rather than
// hiding it.
//
// All methods are safe for concurrent use, including concurrent MakeSets.
// Every slot starts as a singleton, so a process that observes a new
// element before its creator returns still sees a well-formed set; that
// is what makes MakeSet a single atomic increment.
type Dynamic struct{ *DSU }

// NewDynamic returns an empty Dynamic structure able to hold up to capacity
// elements, under the variant cfg selects. It panics where New would on
// capacity and cfg.
func NewDynamic(capacity int, cfg Config) *Dynamic {
	return &Dynamic{build(capacity, cfg, new(atomic.Uint32))}
}

// MakeSet creates a new element in a singleton set and returns it.
// It is safe to call concurrently with every other method.
func (d *Dynamic) MakeSet() (uint32, error) {
	idx := d.made.Add(1) - 1
	if int64(idx) >= int64(len(d.parent)) {
		d.made.Add(^uint32(0)) // undo; keeps N meaningful
		return 0, ErrFull
	}
	return idx, nil
}

// Cap returns the capacity.
func (d *Dynamic) Cap() int { return len(d.parent) }
