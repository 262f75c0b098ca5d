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
// uninstrumented tenant. The override inputs hold the same counts for
// batches that name a find variant of their own: the variant views are
// built with the structure, so resolving one per batch allocates nothing.
func TestSmallBatchAllocs(t *testing.T) {
	const n, grain = 1 << 12, 1024
	edges := make([]dsu.Edge, grain)
	for i, op := range workload.RandomUnions(n, grain, 71) {
		edges[i] = dsu.Edge{X: op.X, Y: op.Y}
	}
	for _, kind := range []dsu.Kind{dsu.KindFlat, dsu.KindLockFree} {
		for _, override := range []dsu.FindStrategy{0, dsu.NoCompaction} {
			u, err := dsu.NewRegistry().Create("t", n, dsu.WithKind(kind))
			if err != nil {
				t.Fatal(err)
			}
			want := override
			if want == 0 {
				want = dsu.TwoTrySplitting
			}
			for _, size := range []int{1, grain / 4, grain} {
				for _, workers := range []int{0, 1, 4} {
					opts := dsu.BatchOptions{Workers: workers, Find: override}
					unite := dsu.UniteRequest{Edges: edges[:size], Options: opts}
					query := dsu.QueryRequest{Pairs: edges[:size], Options: opts}
					if got := testing.AllocsPerRun(100, func() {
						if _, err := u.UniteAll(unite); err != nil {
							t.Fatal(err)
						}
					}); got != 0 {
						t.Errorf("%v find %v: UniteAll of %d edges, workers=%d: %v allocs, want 0", kind, want, size, workers, got)
					}
					var find dsu.FindStrategy
					if got := testing.AllocsPerRun(100, func() {
						rep, err := u.SameSetAll(query)
						if err != nil {
							t.Fatal(err)
						}
						find = rep.Find
					}); got != 1 {
						t.Errorf("%v find %v: SameSetAll of %d pairs, workers=%d: %v allocs, want 1 (the Answers slice)", kind, want, size, workers, got)
					}
					if find != want {
						t.Errorf("%v: SameSetAll of %d pairs ran %v, want %v", kind, size, find, want)
					}
				}
			}
		}
	}
}
