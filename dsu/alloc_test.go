//go:build !race

// The race detector makes sync.Pool drop recycled objects at random, so
// allocation counts are pinned only in ordinary builds.

package dsu_test

import (
	"testing"

	"repro/dsu"
	"repro/internal/workload"
)

// TestSmallBatchAllocs pins the engine's small-batch path from the tenant
// API down: a batch of at most one grain runs on the caller with no pool to
// set up, so UniteAll allocates nothing and SameSetAll allocates only the
// caller-owned Answers slice. Metrics and tracing are off, as on an
// uninstrumented tenant. The adaptive inputs hold the same counts for
// query batches the policy has downgraded to a cheaper find variant: the
// variant views are built with the structure, so resolving one per batch
// allocates nothing.
func TestSmallBatchAllocs(t *testing.T) {
	const n, grain = 1 << 12, 1024
	edges := make([]dsu.Edge, grain)
	for i, op := range workload.RandomUnions(n, grain, 71) {
		edges[i] = dsu.Edge{X: op.X, Y: op.Y}
	}
	for _, kind := range []dsu.Kind{dsu.KindFlat, dsu.KindLockFree} {
		for _, adaptive := range []bool{false, true} {
			opts := []dsu.Option{dsu.WithKind(kind)}
			if adaptive {
				opts = append(opts, dsu.WithAdaptiveFind())
			}
			u, err := dsu.NewRegistry().Create("t", n, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if adaptive {
				// Flatten the forest, then query until the policy downgrades.
				if _, err := u.UniteAll(dsu.UniteRequest{Edges: edges}); err != nil {
					t.Fatal(err)
				}
				for i := 0; !downgraded(u, edges); i++ {
					if i == 20 {
						t.Fatalf("%v adaptive: no query batch downgraded after a flattening UniteAll", kind)
					}
				}
			}
			for _, size := range []int{1, grain / 4, grain} {
				for _, workers := range []int{0, 1, 4} {
					opts := dsu.BatchOptions{Workers: workers}
					unite := dsu.UniteRequest{Edges: edges[:size], Options: opts}
					query := dsu.QueryRequest{Pairs: edges[:size], Options: opts}
					if got := testing.AllocsPerRun(100, func() {
						if _, err := u.UniteAll(unite); err != nil {
							t.Fatal(err)
						}
					}); got != 0 {
						t.Errorf("%v adaptive=%v: UniteAll of %d edges, workers=%d: %v allocs, want 0", kind, adaptive, size, workers, got)
					}
					var find dsu.FindStrategy
					if got := testing.AllocsPerRun(100, func() {
						rep, err := u.SameSetAll(query)
						if err != nil {
							t.Fatal(err)
						}
						find = rep.Find
					}); got != 1 {
						t.Errorf("%v adaptive=%v: SameSetAll of %d pairs, workers=%d, find %v: %v allocs, want 1 (the Answers slice)", kind, adaptive, size, workers, find, got)
					}
					if adaptive && find != dsu.NoCompaction && find != dsu.OneTrySplitting {
						t.Errorf("%v adaptive: SameSetAll of %d pairs ran %v, want a downgraded variant", kind, size, find)
					}
				}
			}
		}
	}
}

// downgraded runs one query batch and reports whether the adaptive policy
// ran it with a cheaper variant than the two-try base.
func downgraded(u *dsu.Universe, pairs []dsu.Edge) bool {
	rep, err := u.SameSetAll(dsu.QueryRequest{Pairs: pairs})
	return err == nil && (rep.Find == dsu.NoCompaction || rep.Find == dsu.OneTrySplitting)
}
