package dsu

type config struct {
	find  FindStrategy
	early bool
	seed  uint64
	kind  Kind
}

// Kind names a structure kind — which of the package's two backends a
// Registry.Create (or a remote tenant-create request) selects. The zero
// value means "unset", which selects KindFlat. The values are the kind
// byte of a durable tenant's log header, so they are fixed: 2 belonged to
// a retired sharded kind, and a log carrying it recovers as KindFlat.
type Kind int

const (
	// KindFlat is the single parent-array structure (New).
	KindFlat Kind = 1
	// KindLockFree is the lock-free concurrent structure (NewLockFree):
	// the whole operation surface, batches included, is safe under full
	// concurrency with no quiescence requirement.
	KindLockFree Kind = 3
)

// String returns the kind name used in tenant info and experiment tables.
func (k Kind) String() string {
	switch k {
	case KindFlat:
		return "flat"
	case KindLockFree:
		return "lockfree"
	default:
		return "unset"
	}
}

func defaultConfig() config {
	return config{find: TwoTrySplitting, seed: 0x6a79616e7469} // stable default seed
}

// Option configures New and NewDynamic.
type Option interface {
	apply(*config)
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithFind selects the find-path compaction strategy (default
// TwoTrySplitting).
func WithFind(f FindStrategy) Option {
	return optionFunc(func(c *config) { c.find = f })
}

// WithAdaptiveFind selects the adaptive compaction policy — shorthand for
// WithFind(FindAuto). The structure's execution layer tracks per-batch
// observables (find steps per find, parent-pointer rewrites, merge ratio)
// in a flatness estimator and downgrades query batches (SameSetAll) to
// cheaper find variants — two-try → one-try → naive — while the forest is
// flat, restoring compacting variants once mutation batches churn it.
// Honored uniformly by every structure kind and any Stream over one;
// partitions and answers are identical to fixed variants in every mode
// (the find variant never changes which unites merge).
func WithAdaptiveFind() Option {
	return optionFunc(func(c *config) { c.find = FindAuto })
}

// WithEarlyTermination enables the Section 6 variants (Algorithms 6 and 7):
// SameSet and Unite interleave their two finds and always advance the
// currently smaller node, letting one find terminate the operation early.
// Valid with NoCompaction, OneTrySplitting, and TwoTrySplitting.
func WithEarlyTermination() Option {
	return optionFunc(func(c *config) { c.early = true })
}

// WithSeed fixes the seed of the random linking order (and of Dynamic's
// priorities), making runs reproducible. Structures built with equal seeds
// and sizes use identical orders.
func WithSeed(seed uint64) Option {
	return optionFunc(func(c *config) { c.seed = seed })
}

// WithKind selects the structure kind for plumbing that carries one
// []Option — Registry.Create and the network front end's tenant-create
// path; unset selects KindFlat. The direct constructors (New,
// NewLockFree) each build their own kind and ignore it.
func WithKind(k Kind) Option {
	return optionFunc(func(c *config) { c.kind = k })
}
