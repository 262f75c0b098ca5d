package dsu_test

import (
	"fmt"
	"testing"

	"repro/dsu"
	"repro/internal/engine"
	"repro/internal/workload"
)

// adaptivePairs builds a mixed query batch: edges already in the stream
// (mostly connected) plus fresh random pairs (mostly not).
func adaptivePairs(n, m int, seed uint64) []dsu.Edge {
	pairs := engine.FromOps(workload.RandomUnions(n, m/2, seed))
	pairs = append(pairs, engine.FromOps(workload.RandomUnions(n, m/2, seed+1))...)
	return pairs
}

// newKind builds the structure under the named kind: "flat" through New,
// "lockfree" through a spec naming the retired lock-free kind.
func newKind(kind string, n int, opts ...dsu.Option) *dsu.DSU {
	if kind == "lockfree" {
		return newLockFreeSpec(n, opts...)
	}
	return dsu.New(n, opts...)
}

// TestAdaptiveMatchesFixed is the acceptance cross-validation for the
// adaptive compaction policy: across seeds × {flat, lockfree} specs ×
// batch sizes, a structure in WithAdaptiveFind mode driven through
// alternating mutate/query phases must produce the exact partition and the
// exact query answers of an identically seeded fixed-variant structure —
// the find variant may change per batch, but never what merges or what a
// quiescent query answers. CI runs this under -race.
func TestAdaptiveMatchesFixed(t *testing.T) {
	const n = 1800
	for _, seed := range []uint64{2, 19, 77} {
		edges := engine.FromOps(workload.ZipfMixed(n, 3*n, 1.0, 1.1, seed+300))
		edges = append(edges, engine.FromOps(workload.CommunityUnions(n, 2*n, 8, 0.9, seed+400))...)
		queries := adaptivePairs(n, n, seed+500)
		for _, batch := range []int{193, 2048} {
			for _, backend := range []string{"flat", "lockfree"} {
				t.Run(fmt.Sprintf("seed=%d/batch=%d/%s", seed, batch, backend), func(t *testing.T) {
					fixed := newKind(backend, n, dsu.WithSeed(seed))
					adaptive := newKind(backend, n, dsu.WithSeed(seed), dsu.WithAdaptiveFind())
					// Alternate mutate and query phases batch by batch, so
					// the estimator sees the churn/flatten cycle mid-test.
					for lo := 0; lo < len(edges); lo += batch {
						hi := min(lo+batch, len(edges))
						fm := fixed.UniteAll(edges[lo:hi], dsu.WithWorkers(3))
						am := adaptive.UniteAll(edges[lo:hi], dsu.WithWorkers(3))
						if fm != am {
							t.Fatalf("mutate batch at %d: fixed merged %d, adaptive %d", lo, fm, am)
						}
						want := fixed.SameSetAll(queries, dsu.WithWorkers(3))
						got := adaptive.SameSetAll(queries, dsu.WithWorkers(3))
						for k := range got {
							if got[k] != want[k] {
								t.Fatalf("query after batch at %d: answer[%d] = %v, fixed %v",
									lo, k, got[k], want[k])
							}
						}
					}
					want, got := fixed.CanonicalLabels(), adaptive.CanonicalLabels()
					for x := range got {
						if got[x] != want[x] {
							t.Fatalf("label[%d] = %d, fixed %d", x, got[x], want[x])
						}
					}
				})
			}
		}
	}
}

// TestAdaptiveStreamMatchesFixed closes the loop over dsu.Stream: an
// adaptive backend fed through the stream front (buffer sizes × backends)
// must land on the same partition as a fixed-variant blocking loop over
// the same sequence — the streamed batches train the same estimator the
// blocking path uses.
func TestAdaptiveStreamMatchesFixed(t *testing.T) {
	const n = 1500
	for _, seed := range []uint64{5, 23} {
		edges := engine.FromOps(workload.CommunityUnions(n, 4*n, 6, 0.85, seed+700))
		for _, buffer := range []int{97, 1024} {
			for _, backend := range []string{"flat", "lockfree"} {
				t.Run(fmt.Sprintf("seed=%d/buffer=%d/%s", seed, buffer, backend), func(t *testing.T) {
					fixed := newKind(backend, n, dsu.WithSeed(seed))
					adaptive := newKind(backend, n, dsu.WithSeed(seed), dsu.WithAdaptiveFind())
					for lo := 0; lo < len(edges); lo += buffer {
						fixed.UniteAll(edges[lo:min(lo+buffer, len(edges))], dsu.WithWorkers(2))
					}
					s := dsu.NewStream(adaptive,
						dsu.WithBufferSize(buffer),
						dsu.WithBatchOptions(dsu.WithWorkers(2)))
					for lo := 0; lo < len(edges); lo += 777 {
						if err := s.Push(edges[lo:min(lo+777, len(edges))]...); err != nil {
							t.Fatal(err)
						}
						// Interleave query batches so the stream-trained
						// estimator is exercised while batches are in flight;
						// answers are checked at quiescence below.
						adaptive.SameSetAll(edges[:min(256, len(edges))], dsu.WithWorkers(2))
					}
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					want, got := fixed.CanonicalLabels(), adaptive.CanonicalLabels()
					for x := range got {
						if got[x] != want[x] {
							t.Fatalf("label[%d] = %d, fixed %d", x, got[x], want[x])
						}
					}
					// Quiescent query parity over the full edge list.
					qw := fixed.SameSetAll(edges)
					qg := adaptive.SameSetAll(edges)
					for k := range qg {
						if qg[k] != qw[k] {
							t.Fatalf("quiescent answer[%d] = %v, fixed %v", k, qg[k], qw[k])
						}
					}
				})
			}
		}
	}
}

// TestAdaptiveDowngradeObservable pins the policy's effect through the
// public API alone: naive finds issue no CAS instructions, so once the
// downgrade reaches naive, a counted query batch reports zero CAS
// attempts. After a flattening UniteAll that must happen within a few
// batches, however the structure was built.
func TestAdaptiveDowngradeObservable(t *testing.T) {
	const n = 1 << 12
	edges := engine.FromOps(workload.RandomUnions(n, 4*n, 9))
	pairs := adaptivePairs(n, n, 31)
	for _, backend := range []string{"flat", "lockfree"} {
		t.Run(backend, func(t *testing.T) {
			d := newKind(backend, n, dsu.WithSeed(4), dsu.WithAdaptiveFind())
			d.UniteAll(edges, dsu.WithWorkers(2))
			for i := 0; i < 10; i++ {
				var st dsu.Stats
				d.SameSetAllCounted(pairs, &st, dsu.WithWorkers(2))
				if st.CASAttempts == 0 {
					return // naive selected: the downgrade fired
				}
			}
			t.Error("no query batch reached the naive variant (zero CAS attempts) after a flattening UniteAll")
		})
	}
}

// TestAdaptiveFindOption pins the option surface: FindAuto stringifies as
// "auto", WithAdaptiveFind equals WithFind(FindAuto), and fixed-mode
// structures are untouched by the policy (their executor stays
// passthrough — a fixed naive structure keeps issuing zero CAS attempts,
// a fixed two-try structure keeps issuing them on deep forests).
func TestAdaptiveFindOption(t *testing.T) {
	if dsu.FindAuto.String() != "auto" {
		t.Errorf("FindAuto.String() = %q, want auto", dsu.FindAuto.String())
	}
	const n = 256
	a := dsu.New(n, dsu.WithSeed(8), dsu.WithAdaptiveFind())
	b := dsu.New(n, dsu.WithSeed(8), dsu.WithFind(dsu.FindAuto))
	edges := engine.FromOps(workload.RandomUnions(n, 2*n, 44))
	if am, bm := a.UniteAll(edges), b.UniteAll(edges); am != bm {
		t.Errorf("WithAdaptiveFind merged %d, WithFind(FindAuto) %d", am, bm)
	}
	aw, bw := a.CanonicalLabels(), b.CanonicalLabels()
	for x := range aw {
		if aw[x] != bw[x] {
			t.Fatalf("label[%d]: WithAdaptiveFind %d, WithFind(FindAuto) %d", x, aw[x], bw[x])
		}
	}
}
