package dsu

import "repro/internal/exec"

// Backend is the common operation surface of *DSU and *LockFree: point
// operations, batch operations, and quiescent-state inspection. Code
// written against Backend runs unchanged over either kind — the batch
// path (UniteAll and friends) and the stream front (NewStream) route any
// Backend through the same internal execution seam, which is also where
// the adaptive compaction policy lives, so every path behaves identically
// on either structure.
//
// The interface is closed (an unexported method): its contracts — batch ≡
// blocking partitions, adaptive ≡ fixed partitions — are proved against
// the implementations in this package.
type Backend interface {
	// N returns the number of elements.
	N() int
	// Find returns the representative of x's set at the linearization
	// point (representatives change as sets merge; prefer SameSet).
	Find(x uint32) uint32
	// SameSet reports whether x and y are in the same set; the answer is
	// linearizable.
	SameSet(x, y uint32) bool
	// Unite merges the sets containing x and y, reporting whether this
	// call performed the merge.
	Unite(x, y uint32) bool
	// UniteAll merges across every edge of the batch and returns the
	// number of edges that performed a merge.
	UniteAll(edges []Edge, opts ...BatchOption) int
	// UniteAllCounted is UniteAll with work accounting into st.
	UniteAllCounted(edges []Edge, st *Stats, opts ...BatchOption) int
	// SameSetAll answers pairs[i] into element i of the returned slice.
	SameSetAll(pairs []Edge, opts ...BatchOption) []bool
	// SameSetAllCounted is SameSetAll with work accounting into st.
	SameSetAllCounted(pairs []Edge, st *Stats, opts ...BatchOption) []bool
	// Sets returns the number of sets; call at quiescence for exactness.
	Sets() int
	// CanonicalLabels returns the min-element labelling of the partition;
	// call at quiescence.
	CanonicalLabels() []uint32
	// Components materializes the partition as sorted element sets ordered
	// by their minima; call at quiescence.
	Components() [][]uint32
	// Snapshot returns a copy of the forest's parent array. Call at
	// quiescence.
	Snapshot() []uint32
	// ID returns x's position in the structure's random linking order,
	// fixed at construction.
	ID(x uint32) uint32

	// executor is the internal execution seam every batch and stream path
	// drives: one funnel per structure, shared by blocking and streamed
	// batches so the adaptive policy trains on all of them.
	executor() *exec.Executor
	// universe is the structure's anonymous Universe: the tenant-API layer
	// (request/response DTOs) the batch and stream veneers route through.
	universe() *Universe
}

// ConcurrentBackend is the concurrent capability of the execution seam: a
// Backend whose entire operation surface — point operations AND batch calls
// — is safe from any number of goroutines with no quiescence requirement, as
// a contract callers may rely on. A plain Backend makes no such promise; on
// a ConcurrentBackend, overlap is the contract: any number of
// UniteAll/SameSetAll calls, stream batches, and point operations may run
// simultaneously on one structure, and the summed merge count across
// overlapping mutation batches is exact for the combined edge set. Layers
// that hold concurrency back to protect a plain Backend — the stream
// dispatcher, the server's per-tenant in-flight budget — detect this
// capability and let requests run truly concurrently instead.
//
// Like Backend, the interface is closed: the no-quiescence contract is
// proved against this package's implementation (*LockFree, the flat core
// with the capability) by the conformance suite and the core's
// linearizability checks.
type ConcurrentBackend interface {
	Backend
	// concurrentOK marks the capability; the contract is behavioral
	// (no-quiescence safety of the full surface), not an extra method set.
	concurrentOK()
}

var (
	_ Backend           = (*DSU)(nil)
	_ ConcurrentBackend = (*LockFree)(nil)
)
