package repro

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"

	"repro/dsu"
	"repro/internal/ackermann"
	"repro/internal/aw"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/forest"
	"repro/internal/sched"
	"repro/internal/seqdsu"
	"repro/internal/simdsu"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Benchmarks here mirror DESIGN.md's experiment index: each Benchmark`E<k>`*
// regenerates the measurement behind experiment E<k>, reporting the paper's
// quantity of interest as a custom metric (work/op, height/lg n, …).
// cmd/dsubench prints the corresponding full tables.

// runWorkload drives ops through d with p goroutines, returning total work.
func runWorkload(d *core.DSU, ops []workload.Op, p int) core.Stats {
	perProc := workload.SplitRoundRobin(ops, p)
	stats := make([]core.Stats, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, op := range perProc[i] {
				switch op.Kind {
				case workload.OpUnite:
					d.UniteCounted(op.X, op.Y, &stats[i])
				case workload.OpSameSet:
					d.SameSetCounted(op.X, op.Y, &stats[i])
				}
			}
		}(i)
	}
	wg.Wait()
	var total core.Stats
	for i := range stats {
		total.Add(stats[i])
	}
	return total
}

// BenchmarkE1NoCompactionWork measures work/op with Algorithm 1 finds
// (Theorem 4.3 predicts O(log n)).
func BenchmarkE1NoCompactionWork(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := 4 * n
			ops := workload.Mixed(n, m, 0.5, 1)
			var workPerOp float64
			for i := 0; i < b.N; i++ {
				d := core.New(n, core.Config{Find: core.FindNaive, Seed: uint64(i)})
				total := runWorkload(d, ops, 8)
				workPerOp = float64(total.Work()) / float64(m)
			}
			b.ReportMetric(workPerOp, "work/op")
			b.ReportMetric(workPerOp/math.Log2(float64(n)), "work/op/lgn")
		})
	}
}

// BenchmarkE2ForestHeight measures union-forest height (Corollary 4.2.1
// predicts O(log n) w.h.p.).
func BenchmarkE2ForestHeight(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var height float64
			for i := 0; i < b.N; i++ {
				d := core.New(n, core.Config{Find: core.FindNaive, Seed: uint64(i) + 1})
				runWorkload(d, workload.RandomUnions(n, 4*n, uint64(i)), 8)
				height = float64(forest.Height(d.Snapshot()))
			}
			b.ReportMetric(height/math.Log2(float64(n)), "height/lgn")
		})
	}
}

// benchSplitting powers E4/E5: work per op across p for a splitting find.
func benchSplitting(b *testing.B, find core.Find, bound func(n, m, p int) float64) {
	const n = 1 << 16
	m := 4 * n
	ops := workload.Mixed(n, m, 0.5, 2)
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var workPerOp float64
			for i := 0; i < b.N; i++ {
				d := core.New(n, core.Config{Find: find, Seed: uint64(i)})
				total := runWorkload(d, ops, p)
				workPerOp = float64(total.Work()) / float64(m)
			}
			b.ReportMetric(workPerOp, "work/op")
			b.ReportMetric(workPerOp/bound(n, m, p), "work/bound")
		})
	}
}

func boundTwoTry(n, m, p int) float64 {
	d := float64(m) / (float64(n) * float64(p))
	return float64(ackermann.Alpha(int64(n), d)) + math.Log2(float64(n)*float64(p)/float64(m)+1)
}

func boundOneTry(n, m, p int) float64 {
	pp := float64(p) * float64(p)
	d := float64(m) / (float64(n) * pp)
	return float64(ackermann.Alpha(int64(n), d)) + math.Log2(float64(n)*pp/float64(m)+1)
}

// BenchmarkE4TwoTrySweep measures two-try splitting against Theorem 5.1.
func BenchmarkE4TwoTrySweep(b *testing.B) { benchSplitting(b, core.FindTwoTry, boundTwoTry) }

// BenchmarkE5OneTrySweep measures one-try splitting against Theorem 5.2.
func BenchmarkE5OneTrySweep(b *testing.B) { benchSplitting(b, core.FindOneTry, boundOneTry) }

// BenchmarkE6BinomialDepth measures the Lemma 5.3 construction's average
// node depth (the lemma proves ≥ (lg k)/4).
func BenchmarkE6BinomialDepth(b *testing.B) {
	for _, k := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			ops := workload.BinomialPairing(0, k)
			var avg float64
			for i := 0; i < b.N; i++ {
				d := seqdsu.New(k, seqdsu.LinkRandom, seqdsu.CompactSplitting, uint64(i))
				for _, op := range ops {
					d.Unite(op.X, op.Y)
				}
				parents := make([]uint32, k)
				for x := uint32(0); int(x) < k; x++ {
					parents[x] = d.Parent(x)
				}
				avg = forest.AvgDepth(parents)
			}
			b.ReportMetric(avg/math.Log2(float64(k)), "avgdepth/lgk")
		})
	}
}

// BenchmarkE7LowerBound runs the Theorem 5.4 workload on the simulator in
// lockstep, reporting simulated steps per operation.
func BenchmarkE7LowerBound(b *testing.B) {
	const n, p = 1 << 8, 4
	for _, delta := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			w := workload.LowerBound(n, p, delta, 3)
			var perOp float64
			for i := 0; i < b.N; i++ {
				s := simdsu.New(n, core.Config{Find: core.FindNaive, Seed: 2})
				res, err := simdsu.Run(s, w.PerProc, simdsu.Options{
					Scheduler: sched.NewLockstep(),
					Setup:     w.Setup,
				})
				if err != nil {
					b.Fatal(err)
				}
				perOp = float64(res.Total) / float64(w.Ops())
			}
			b.ReportMetric(perOp, "steps/op")
			b.ReportMetric(perOp/math.Log2(float64(delta)), "steps/op/lgdelta")
		})
	}
}

// BenchmarkE9Speedup is the headline comparison: ops/sec across
// implementations and process counts (Abstract / Section 1).
func BenchmarkE9Speedup(b *testing.B) {
	const n = 1 << 18
	m := 2 * n
	ops := workload.Mixed(n, m, 0.5, 4)
	impls := map[string]func() interface {
		Unite(x, y uint32) bool
		SameSet(x, y uint32) bool
	}{
		"jt-twotry": func() interface {
			Unite(x, y uint32) bool
			SameSet(x, y uint32) bool
		} {
			return core.New(n, core.Config{Find: core.FindTwoTry, Seed: 5})
		},
		"aw-rank-halving": func() interface {
			Unite(x, y uint32) bool
			SameSet(x, y uint32) bool
		} {
			return aw.New(n)
		},
		"global-lock": func() interface {
			Unite(x, y uint32) bool
			SameSet(x, y uint32) bool
		} {
			return aw.NewLocked(n)
		},
	}
	for name, mk := range impls {
		for _, p := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/p=%d", name, p), func(b *testing.B) {
				perProc := workload.SplitRoundRobin(ops, p)
				for i := 0; i < b.N; i++ {
					d := mk()
					var wg sync.WaitGroup
					for w := 0; w < p; w++ {
						wg.Add(1)
						go func(opsW []workload.Op) {
							defer wg.Done()
							for _, op := range opsW {
								switch op.Kind {
								case workload.OpUnite:
									d.Unite(op.X, op.Y)
								case workload.OpSameSet:
									d.SameSet(op.X, op.Y)
								}
							}
						}(perProc[w])
					}
					wg.Wait()
				}
				b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mop/s")
			})
		}
	}
}

// BenchmarkE10Variants is the find-variant ablation on one workload.
func BenchmarkE10Variants(b *testing.B) {
	const n = 1 << 16
	m := 4 * n
	ops := workload.Mixed(n, m, 0.5, 6)
	variants := []core.Config{
		{Find: core.FindNaive}, {Find: core.FindOneTry}, {Find: core.FindTwoTry},
		{Find: core.FindHalving}, {Find: core.FindCompress},
		{Find: core.FindTwoTry, EarlyTermination: true},
	}
	for _, vc := range variants {
		name := vc.Find.String()
		if vc.EarlyTermination {
			name += "+early"
		}
		b.Run(name, func(b *testing.B) {
			var workPerOp float64
			for i := 0; i < b.N; i++ {
				cfg := vc
				cfg.Seed = uint64(i)
				d := core.New(n, cfg)
				total := runWorkload(d, ops, 8)
				workPerOp = float64(total.Work()) / float64(m)
			}
			b.ReportMetric(workPerOp, "work/op")
		})
	}
}

// BenchmarkE12Dynamic measures the MakeSet variant against the static
// structure on one workload.
func BenchmarkE12Dynamic(b *testing.B) {
	const n = 1 << 16
	m := 4 * n
	ops := workload.Mixed(n, m, 0.5, 8)
	b.Run("static", func(b *testing.B) {
		perProc := workload.SplitRoundRobin(ops, 8)
		for i := 0; i < b.N; i++ {
			d := core.New(n, core.Config{Seed: 1})
			var wg sync.WaitGroup
			for w := range perProc {
				wg.Add(1)
				go func(opsW []workload.Op) {
					defer wg.Done()
					for _, op := range opsW {
						if op.Kind == workload.OpUnite {
							d.Unite(op.X, op.Y)
						} else {
							d.SameSet(op.X, op.Y)
						}
					}
				}(perProc[w])
			}
			wg.Wait()
		}
		b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mop/s")
	})
	b.Run("dynamic", func(b *testing.B) {
		perProc := workload.SplitRoundRobin(ops, 8)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := core.NewDynamic(n, core.Config{Seed: 1})
			for k := 0; k < n; k++ {
				if _, err := d.MakeSet(); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			var wg sync.WaitGroup
			for w := range perProc {
				wg.Add(1)
				go func(opsW []workload.Op) {
					defer wg.Done()
					for _, op := range opsW {
						if op.Kind == workload.OpUnite {
							d.Unite(op.X, op.Y)
						} else {
							d.SameSet(op.X, op.Y)
						}
					}
				}(perProc[w])
			}
			wg.Wait()
		}
		b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mop/s")
	})
}

// BenchmarkE18BatchUniteAll measures the batch engine's UniteAll across
// worker counts on one uniform edge batch (the E18 throughput table), on a
// forest that fits in L2 (n = 2¹⁸). The n=2^22 cases run where the parent
// array (16 MB) misses cache, the regime the core's span kernel
// overlaps: UniteAll on a fresh forest and SameSetAll on one preloaded
// with n uniform unions, 2²⁰ edges in 64K-edge batches at the default
// worker count.
func BenchmarkE18BatchUniteAll(b *testing.B) {
	const n = 1 << 18
	m := 4 * n
	edges := engine.FromOps(workload.RandomUnions(n, m, 10))
	for _, w := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := core.New(n, core.Config{Seed: 11})
				engine.UniteAll(d, edges, engine.Config{Workers: w, Seed: 11})
			}
			b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mop/s")
		})
	}

	const bigN, bigM, batch = 1 << 22, 1 << 20, 1 << 16
	batches := func(d *core.DSU, edges []engine.Edge, query bool) {
		for lo := 0; lo < len(edges); lo += batch {
			if query {
				engine.SameSetAll(d, edges[lo:lo+batch], engine.Config{Seed: 13})
			} else {
				engine.UniteAll(d, edges[lo:lo+batch], engine.Config{Seed: 13})
			}
		}
	}
	bigEdges := engine.FromOps(workload.RandomUnions(bigN, bigM, 12))
	b.Run("n=2^22/unite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := core.New(bigN, core.Config{Seed: 13})
			b.StartTimer()
			batches(d, bigEdges, false)
		}
		b.ReportMetric(float64(bigM)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medge/s")
	})
	b.Run("n=2^22/query", func(b *testing.B) {
		d := core.New(bigN, core.Config{Seed: 13})
		for k := uint64(0); k < bigN/bigM; k++ {
			batches(d, engine.FromOps(workload.RandomUnions(bigN, bigM, 20+k)), false)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batches(d, bigEdges, true)
		}
		b.ReportMetric(float64(bigM)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medge/s")
	})
}

// builtDSU keeps BenchmarkCoreNew's structures reachable, so the compiler
// cannot drop a build.
var builtDSU *core.DSU

// BenchmarkCoreNew builds an n = 2²⁰ structure — the set-up every tenant
// create pays. The random order is computed, not stored, so the parent
// array is the only per-element state: CI fails the build when B/op
// passes 4 bytes an element plus a small constant.
func BenchmarkCoreNew(b *testing.B) {
	b.Run("n=2^20", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			builtDSU = core.New(1<<20, core.Config{Seed: uint64(i)})
		}
	})
}

// BenchmarkCheckpoint snapshots a durable n = 2²⁰ tenant into its log,
// one Universe.Checkpoint per iteration: the pause every mutation of the
// tenant waits out. The record streams from the forest's parent words
// through one pooled piece buffer, so CI fails the build when B/op passes
// n bytes (one copy of the forest is 4n). Each iteration adds a 4 MiB
// record to a log under the test's temporary directory; run it with a
// fixed -benchtime count.
func BenchmarkCheckpoint(b *testing.B) {
	const n = 1 << 20
	b.Run("n=2^20", func(b *testing.B) {
		reg := dsu.NewRegistry(dsu.WithDurability(b.TempDir()))
		defer reg.Close()
		u, err := reg.Create("bench", n, dsu.WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		edges := engine.FromOps(workload.RandomUnions(n, n/2, 12))
		if _, err := u.UniteAll(dsu.UniteRequest{Edges: edges}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := u.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE20StreamIngest measures streamed ingestion (dsu.Stream, batches
// overlapping execution) against the blocking batch loop on one uniform
// edge stream — the E20 comparison at a fixed buffer size.
func BenchmarkE20StreamIngest(b *testing.B) {
	const n = 1 << 18
	m := 4 * n
	const buffer = 1 << 16
	edges := engine.FromOps(workload.RandomUnions(n, m, 10))
	b.Run("blocking", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := dsu.New(n, dsu.WithSeed(11))
			for lo := 0; lo < len(edges); lo += buffer {
				hi := min(lo+buffer, len(edges))
				d.UniteAll(edges[lo:hi], dsu.BatchOptions{Workers: 4})
			}
		}
		b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mop/s")
	})
	for _, inflight := range []int{1, 2} {
		b.Run(fmt.Sprintf("stream/inflight=%d", inflight), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := dsu.NewStream(dsu.New(n, dsu.WithSeed(11)),
					dsu.WithBufferSize(buffer),
					dsu.WithMaxInFlight(inflight),
					dsu.WithBatchOptions(dsu.BatchOptions{Workers: 4}))
				for lo := 0; lo < len(edges); lo += 8192 {
					hi := min(lo+8192, len(edges))
					if err := s.Push(edges[lo:hi]...); err != nil {
						b.Fatal(err)
					}
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mop/s")
		})
	}
}

// BenchmarkE23LockFree measures the concurrent core on the E23 shapes: one
// uniform batch on a fresh structure, plus the regime the paper's
// algorithm is for — k genuinely overlapping UniteAll calls on one
// structure.
func BenchmarkE23LockFree(b *testing.B) {
	const n = 1 << 18
	m := 4 * n
	edges := engine.FromOps(workload.RandomUnions(n, m, 10))
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dsu.New(n, dsu.WithSeed(11)).UniteAll(edges, dsu.BatchOptions{Workers: 4})
		}
		b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mop/s")
	})
	for _, k := range []int{2, 4} {
		b.Run(fmt.Sprintf("overlap/k=%d", k), func(b *testing.B) {
			chunk := (len(edges) + k - 1) / k
			for i := 0; i < b.N; i++ {
				d := dsu.New(n, dsu.WithSeed(11))
				var wg sync.WaitGroup
				for j := 0; j < k; j++ {
					lo, hi := j*chunk, min((j+1)*chunk, len(edges))
					wg.Add(1)
					go func(lo, hi int) {
						defer wg.Done()
						d.UniteAll(edges[lo:hi], dsu.BatchOptions{Workers: 2})
					}(lo, hi)
				}
				wg.Wait()
			}
			b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mop/s")
		})
	}
}

// BenchmarkFindOnDeepForest times Find per variant on a prebuilt
// randomized forest. One iteration restores the forest from its snapshot
// with the timer stopped, then finds every element once, so each pass of
// a compacting variant starts from the same forest and the figure does
// not depend on b.N. It reports ns/find.
func BenchmarkFindOnDeepForest(b *testing.B) {
	const n = 1 << 16
	base := core.New(n, core.Config{Find: core.FindNaive, Seed: 3})
	for _, op := range workload.RandomUnions(n, 4*n, 9) {
		base.Unite(op.X, op.Y)
	}
	snap := base.Snapshot()
	for _, f := range []core.Find{core.FindNaive, core.FindOneTry, core.FindTwoTry, core.FindHalving, core.FindCompress} {
		b.Run(f.String(), func(b *testing.B) {
			d := core.New(n, core.Config{Find: f, Seed: 3})
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for x, p := range snap {
					d.LoadParent(uint32(x), p)
				}
				b.StartTimer()
				for x := uint32(0); x < n; x++ {
					d.Find(x)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/find")
		})
	}
}

// BenchmarkMetricsOverhead pins the instrumentation tax on the batch hot
// path: the same UniteAll loop over one universe, with and without a
// metrics registry attached. The disabled mode must cost nothing beyond
// one nil check (and add zero allocations — the internal/metrics tests
// pin that); the instrumented mode's tax is a handful of atomic adds and
// one histogram observation per batch, so it should stay under 2%.
func BenchmarkMetricsOverhead(b *testing.B) {
	const n = 1 << 16
	const batch = 4096
	edges := make([]dsu.Edge, batch)
	rng := workload.RandomUnions(n, batch, 17)
	for i, op := range rng {
		edges[i] = dsu.Edge{X: op.X, Y: op.Y}
	}
	run := func(b *testing.B, m *dsu.Metrics) {
		var opts []dsu.RegistryOption
		if m != nil {
			opts = append(opts, dsu.WithMetrics(m))
		}
		reg := dsu.NewRegistry(opts...)
		u, err := reg.Create("bench", n)
		if err != nil {
			b.Fatal(err)
		}
		req := dsu.UniteRequest{Edges: edges}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := u.UniteAll(req); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medge/s")
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("instrumented", func(b *testing.B) { run(b, dsu.NewMetrics()) })
}

// BenchmarkTraceOverhead pins the tracing tax the same way: a 4096-edge
// UniteAll loop with tracing off, then on. Disabled tracing is one nil
// check per batch — identical allocs/op to the untraced structure and
// within noise (<2%) on time. Traced batches pay two allocations (the
// trace object, and the engine's per-worker records that only a traced
// batch keeps) plus a handful of atomic claims and clock reads per
// span, amortized over the batch.
func BenchmarkTraceOverhead(b *testing.B) {
	const n = 1 << 16
	const batch = 4096
	edges := make([]dsu.Edge, batch)
	rng := workload.RandomUnions(n, batch, 19)
	for i, op := range rng {
		edges[i] = dsu.Edge{X: op.X, Y: op.Y}
	}
	run := func(b *testing.B, tr *dsu.Tracing) {
		var opts []dsu.RegistryOption
		if tr != nil {
			opts = append(opts, dsu.WithTracing(tr))
		}
		reg := dsu.NewRegistry(opts...)
		u, err := reg.Create("bench", n)
		if err != nil {
			b.Fatal(err)
		}
		req := dsu.UniteRequest{Edges: edges}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := u.UniteAll(req); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medge/s")
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("traced", func(b *testing.B) { run(b, dsu.NewTracing()) })
}

// BenchmarkSmallBatch measures the batches the server actually serves:
// 1024-edge unite and 1024-pair query batches (one default grain) through
// Universe on a merged forest that fits in L2 (n = 2¹⁸, preloaded with 4n
// uniform unions). A batch of at most one grain runs on the caller with no
// pool to set up, so CI runs this with -benchmem and fails the build unless
// unite reports 0 allocs/op and query at most 1 (the caller-owned Answers
// slice).
func BenchmarkSmallBatch(b *testing.B) {
	const n, batch, batches = 1 << 18, 1024, 64
	reg := dsu.NewRegistry()
	u, err := reg.Create("bench", n)
	if err != nil {
		b.Fatal(err)
	}
	load := make([]dsu.Edge, 4*n)
	for i, op := range workload.RandomUnions(n, 4*n, 29) {
		load[i] = dsu.Edge{X: op.X, Y: op.Y}
	}
	if _, err := u.UniteAll(dsu.UniteRequest{Edges: load}); err != nil {
		b.Fatal(err)
	}
	edges := make([]dsu.Edge, batch*batches)
	for i, op := range workload.RandomUnions(n, len(edges), 31) {
		edges[i] = dsu.Edge{X: op.X, Y: op.Y}
	}
	frame := func(i int) []dsu.Edge {
		lo := i % batches * batch
		return edges[lo : lo+batch]
	}
	b.Run("unite", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := u.UniteAll(dsu.UniteRequest{Edges: frame(i)}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medge/s")
	})
	b.Run("query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := u.SameSetAll(dsu.QueryRequest{Pairs: frame(i)}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medge/s")
	})
}

// BenchmarkWireFastPath pins the wire fast path's tentpole number:
// steady-state binary encode and decode of the batch-path envelope
// vocabulary (a 1K-edge unite, a query, a reply with answers) through
// pooled codecs must report 0 B/op and 0 allocs/op. CI runs this with
// -benchmem and fails the build if either figure is nonzero — the
// executable form of the AllocsPerRun pin in internal/wire's tests.
func BenchmarkWireFastPath(b *testing.B) {
	const edgesPerFrame = 1024
	edges := make([]dsu.Edge, edgesPerFrame)
	for i, op := range workload.RandomUnions(1<<16, edgesPerFrame, 23) {
		edges[i] = dsu.Edge{X: op.X, Y: op.Y}
	}
	answers := make([]bool, edgesPerFrame)
	for i := range answers {
		answers[i] = i%3 == 0
	}
	envs := []*wire.Envelope{
		{Kind: wire.KindUnite, Seq: 1, Unite: &dsu.UniteRequest{Edges: edges}},
		{Kind: wire.KindQuery, Seq: 2, Trace: 0xfeed, Span: 2, Query: &dsu.QueryRequest{Pairs: edges}},
		{Kind: wire.KindReply, Seq: 2, Reply: &dsu.BatchReply{Merged: 512, Answers: answers}},
	}

	b.Run("encode", func(b *testing.B) {
		enc := wire.AcquireEncoder(io.Discard, wire.Binary)
		defer wire.ReleaseEncoder(enc)
		for _, env := range envs { // warm the frame buffer to steady state
			if err := enc.Encode(env); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(envs[i%len(envs)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("decode", func(b *testing.B) {
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf, wire.Binary)
		for _, env := range envs {
			if err := enc.Encode(env); err != nil {
				b.Fatal(err)
			}
		}
		data := buf.Bytes()
		r := bytes.NewReader(data)
		dec := wire.AcquireDecoder(r, wire.Binary, wire.DefaultMaxFrame)
		defer wire.ReleaseDecoder(dec)
		for range envs { // warm the scratch DTOs to steady state
			if _, err := dec.Decode(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(envs) == 0 {
				r.Reset(data)
			}
			if _, err := dec.Decode(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
