package core

import (
	"fmt"
	"testing"

	"repro/internal/forest"
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

// spanTestLengths returns the span lengths the kernel is checked at: none,
// one, one group less one, one group, and one group more one for every
// group count from 1 to the deepest stage's distance plus one (so every
// stage starts, runs and drains at each kind of boundary), an odd length
// and a long one.
func spanTestLengths() []int {
	lengths := []int{0, 1}
	for k := 1; k <= edgeDist+1; k++ {
		lengths = append(lengths, k*spanGroup-1, k*spanGroup, k*spanGroup+1)
	}
	return append(lengths, 101, 4096)
}

// TestSpanKernelMatchesPointOps runs the span kernel and a per-edge loop of
// point operations (with the engine targets' self-loop rule) over the same
// edges on two identically seeded structures, in one goroutine, and
// requires identical results, forests and work counters. A prefetch or
// gather that reached Stats, or an edge at a group or stage boundary
// dropped or run twice, breaks the equality. The deep case first links
// both structures through the naive find, which never compacts, so paths
// of depth three and more remain and the grandparent stage requests
// non-roots.
func TestSpanKernelMatchesPointOps(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		const n = 512
		for _, m := range spanTestLengths() {
			t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
				checkSpanKernel(t, cfg, n, m, nil)
			})
		}
		t.Run("deep", func(t *testing.T) {
			checkSpanKernel(t, cfg, n, (edgeDist+1)*spanGroup+1, spanTestEdges(n, n-n/8, 99))
		})
	})
}

// checkSpanKernel is TestSpanKernelMatchesPointOps for m unites, then m
// queries, over n elements, on structures New builds and on Dynamics
// holding n elements, each first linked across prelink through the naive
// find.
func checkSpanKernel(t *testing.T, cfg Config, n, m int, prelink []Edge) {
	builds := []struct {
		name  string
		build func() *DSU
	}{
		{"static", func() *DSU { return New(n, cfg) }},
		{"dynamic", func() *DSU {
			d := NewDynamic(n, cfg)
			for i := 0; i < n; i++ {
				if _, err := d.MakeSet(); err != nil {
					t.Fatal(err)
				}
			}
			return d.DSU
		}},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			kernel, point := b.build(), b.build()
			for _, e := range prelink {
				kernel.WithFind(FindNaive).Unite(e.X, e.Y)
				point.WithFind(FindNaive).Unite(e.X, e.Y)
			}
			if prelink != nil {
				if h := forest.Height(kernel.Snapshot()); h < 3 {
					t.Fatalf("pre-linked forest has height %d, want at least 3", h)
				}
			}

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

// TestSpanKernelPanicsOutside: an element outside the structure, in a
// span's last group, panics from the span kernel as it does from the point
// operations. On amd64 the pipeline has by then requested the word past
// the parent array, up to 16 GiB past it; a prefetch never faults, so the
// failure must be a bounds-check panic, which recover catches, and not a
// fault, which would kill the test binary.
func TestSpanKernelPanicsOutside(t *testing.T) {
	const n = 64
	ops := []struct {
		name string
		run  func(d *DSU, span []Edge)
	}{
		{"UniteSpan", func(d *DSU, span []Edge) { d.UniteSpan(span, nil) }},
		{"SameSetSpan", func(d *DSU, span []Edge) { d.SameSetSpan(span, make([]bool, len(span)), nil) }},
	}
	for _, bad := range []uint32{n, 1 << 31, ^uint32(0)} {
		for _, op := range ops {
			span := spanTestEdges(n, (edgeDist+1)*spanGroup, 6)
			span[len(span)-1] = Edge{X: 1, Y: bad}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with element %d of %d did not panic", op.name, bad, n)
					}
				}()
				op.run(New(n, Config{Seed: 1}), span)
			}()
		}
	}
}
