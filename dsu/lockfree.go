package dsu

// LockFree is the paper's algorithm served as a concurrent structure: the
// flat DSU's wait-free-find, lock-free-unite core and engine, carrying
// the ConcurrentBackend capability. Every operation of a DSU is already
// safe from any number of goroutines, batches included; what the
// capability adds is the contract that callers may rely on it. Layers
// that hold concurrency back to protect a plain Backend — the stream
// dispatcher, the server's per-tenant in-flight budget — let a LockFree
// tenant's batches, streams, and point callers overlap instead of
// queueing them.
//
// The find family is restricted to NoCompaction, OneTrySplitting,
// TwoTrySplitting (the default), or FindAuto over those, without early
// termination. That is the kind's tested contract, not a safety limit:
// the core runs halving and compression concurrently too.
//
// Merged counts are exact even under overlap: every successful root link
// is counted by exactly one call, and the number of links needed to reach
// a partition is schedule-independent — so the sum of Merged across
// overlapping batches equals the sequential count for the combined edge
// set. Quiescent reads (Sets, CanonicalLabels, Components, Snapshot) keep
// their usual contract: exact once no Unites are in flight.
type LockFree struct {
	*DSU
}

// NewLockFree returns a lock-free concurrent DSU over n singleton elements
// 0..n−1. It panics if n is out of range or the options are inconsistent:
// the find strategy must be NoCompaction, OneTrySplitting,
// TwoTrySplitting, or FindAuto, and early termination is not supported.
func NewLockFree(n int, opts ...Option) *LockFree {
	cfg := defaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.early {
		panic("dsu: early termination is not supported by the lock-free kind")
	}
	if cfg.find == Halving || cfg.find == Compression {
		panic("dsu: the lock-free kind runs the splitting find family only")
	}
	d := &LockFree{DSU: New(n, opts...)}
	// The anonymous universe wraps the LockFree value, so batch and stream
	// paths routed through it see the concurrent capability.
	d.uni = &Universe{b: d}
	return d
}

// concurrentOK marks the structure as a ConcurrentBackend: the whole
// operation surface, batches included, carries the no-quiescence contract.
func (d *LockFree) concurrentOK() {}
