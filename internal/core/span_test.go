package core

import (
	"fmt"
	"testing"

	"repro/internal/randutil"
)

// spanTestEdges returns m random pairs over n elements with self-loops and
// repeats of earlier pairs mixed in.
func spanTestEdges(n, m int, seed uint64) []Edge {
	rng := randutil.NewXoshiro256(seed)
	edges := make([]Edge, m)
	for i := range edges {
		switch {
		case i%7 == 3:
			v := uint32(rng.Intn(n))
			edges[i] = Edge{X: v, Y: v}
		case i%5 == 4:
			edges[i] = edges[rng.Intn(i)]
		default:
			edges[i] = Edge{X: uint32(rng.Intn(n)), Y: uint32(rng.Intn(n))}
		}
	}
	return edges
}

// TestSpanKernelMatchesPointOps runs the span kernel and a per-edge loop of
// point operations (with the engine targets' self-loop rule) over the same
// edges on two identically seeded structures, in one goroutine, and
// requires identical results, forests and work counters. A warm load that
// reached Stats, or an edge at a group boundary dropped or run twice,
// breaks the equality.
func TestSpanKernelMatchesPointOps(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		const n = 512
		for _, m := range []int{0, 1, spanGroup - 1, spanGroup, spanGroup + 1, 101, 4096} {
			t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
				kernel, point := New(n, cfg), New(n, cfg)

				var kst, pst Stats
				unites := spanTestEdges(n, m, uint64(m)+1)
				km, kr := kernel.UniteSpan(unites, &kst)
				var pm, pr int64
				for _, e := range unites {
					if e.X == e.Y {
						pst.Ops++
						continue
					}
					merged, retries := point.UniteRetries(e.X, e.Y, &pst)
					if merged {
						pm++
					}
					pr += retries
				}
				if km != pm || kr != pr {
					t.Errorf("UniteSpan = (%d merged, %d retries), point loop (%d, %d)", km, kr, pm, pr)
				}
				compareSpanRun(t, "UniteSpan", kernel, point, kst, pst)

				kst, pst = Stats{}, Stats{}
				queries := spanTestEdges(n, m, uint64(m)+2)
				kout := make([]bool, m)
				kernel.SameSetSpan(queries, kout, &kst)
				for i, e := range queries {
					want := true
					if e.X == e.Y {
						pst.Ops++
					} else {
						want = point.SameSetCounted(e.X, e.Y, &pst)
					}
					if kout[i] != want {
						t.Fatalf("SameSetSpan answer %d (%v) = %v, want %v", i, e, kout[i], want)
					}
				}
				compareSpanRun(t, "SameSetSpan", kernel, point, kst, pst)
			})
		}
	})
}

func compareSpanRun(t *testing.T, op string, kernel, point *DSU, kst, pst Stats) {
	t.Helper()
	if kst != pst {
		t.Errorf("%s Stats = %+v, point loop %+v", op, kst, pst)
	}
	ks, ps := kernel.Snapshot(), point.Snapshot()
	for x := range ks {
		if ks[x] != ps[x] {
			t.Fatalf("%s: parent[%d] = %d, point loop %d", op, x, ks[x], ps[x])
		}
	}
}
