package dsu

type config struct {
	find  FindStrategy
	early bool
	seed  uint64
	kind  Kind
}

// Kind names a structure kind in a Registry.Create (or a remote
// tenant-create request). Every kind builds the same structure, a DSU as
// New builds it; the names stay so that older specs and logs still open.
// The zero value means "unset". The values are the kind byte of a durable
// tenant's log header, so they are fixed: new logs carry 1, and a log
// carrying 2 (a retired sharded kind) or 3 recovers into the same
// structure.
type Kind int

const (
	// KindFlat is the structure New builds.
	KindFlat Kind = 1
	// KindLockFree names the retired lock-free kind, which served the
	// same structure; it now builds what KindFlat builds.
	KindLockFree Kind = 3
)

// String returns the name ParseKind reads for KindFlat and KindLockFree,
// and "unset" for any other value.
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

// WithAdaptiveFind is WithFind(FindAuto), a compatibility spelling of
// WithFind(TwoTrySplitting) kept for callers of the retired adaptive
// policy.
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

// WithKind names the structure kind for plumbing that carries one
// []Option — Registry.Create and the network front end's tenant-create
// path, which refuse an unknown kind. Every known kind builds the same
// structure; New ignores the option.
func WithKind(k Kind) Option {
	return optionFunc(func(c *config) { c.kind = k })
}
