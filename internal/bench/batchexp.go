package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// bestUniteAll runs the batch three times on fresh structures and keeps the
// fastest run (short runs at small worker counts are dominated by allocator
// and scheduler noise).
func bestUniteAll(n int, seed uint64, edges []engine.Edge, cfg engine.Config) engine.Result {
	var best engine.Result
	best.Elapsed = 1<<62 - 1
	for rep := 0; rep < 3; rep++ {
		d := core.New(n, core.Config{Seed: seed})
		if res := engine.UniteAll(d, edges, cfg); res.Elapsed < best.Elapsed {
			best = res
		}
	}
	return best
}

// runE18 measures the batch engine: UniteAll/SameSetAll throughput and
// speedup across worker counts 1–16 on a ≥1M-edge uniform batch and a
// Zipf-skewed batch (where work-stealing has to rebalance), plus the
// engine's overhead against a plain sequential loop of point operations.
// This is the repo's batching interface measured the way Alistarh et al.
// (2019) judge concurrent union-find: operations per second as the worker
// count sweeps. A last column repeats the uniform UniteAll at n = 2²²
// (m = n), where the parent array (16 MB) misses cache and the core's
// span kernel overlaps the misses.
func runE18(cfg Config) error {
	header(cfg, "E18", "Batch engine throughput and speedup", "systems extension; Fedorov et al. 2023, Alistarh et al. 2019")
	n, bigLog := 1<<20, 22
	if cfg.Quick {
		n, bigLog = 1<<16, 16
	}
	m := 4 * n // ≥4M edges at full size
	bigN := 1 << bigLog
	uniform := engine.FromOps(workload.RandomUnions(n, m, cfg.Seed+61))
	skewed := engine.FromOps(onlyUnites(workload.ZipfMixed(n, m, 1.0, 1.01, cfg.Seed+67)))
	queries := engine.FromOps(workload.RandomUnions(n, m, cfg.Seed+71))
	big := engine.FromOps(workload.RandomUnions(bigN, bigN, cfg.Seed+73))

	// Engine overhead: a plain sequential loop against the 1-worker pool.
	d := core.New(n, core.Config{Seed: cfg.Seed + 1})
	loopStart := time.Now()
	for _, e := range uniform {
		d.Unite(e.X, e.Y)
	}
	loopElapsed := time.Since(loopStart)
	pool1 := bestUniteAll(n, cfg.Seed+1, uniform, engine.Config{Workers: 1, Seed: cfg.Seed})
	fmt.Fprintf(cfg.Out, "Engine overhead on %d edges: sequential loop %.2f Mop/s, 1-worker pool %.2f Mop/s (ratio %.2f).\n\n",
		m, mops(m, loopElapsed), mops(m, pool1.Elapsed), mops(m, pool1.Elapsed)/mops(m, loopElapsed))

	tb := stats.NewTable("workers",
		"uniform Mop/s", "×", "steals",
		"zipf Mop/s", "×",
		"SameSetAll Mop/s", "×",
		"work/edge",
		fmt.Sprintf("n=2^%d Mop/s", bigLog))
	var baseUniform, baseSkew, baseQuery float64
	for _, w := range batchWorkerSweep() {
		ecfg := engine.Config{Workers: w, Seed: cfg.Seed}

		uni := bestUniteAll(n, cfg.Seed+1, uniform, ecfg)
		zip := bestUniteAll(n, cfg.Seed+2, skewed, ecfg)
		bigRes := bestUniteAll(bigN, cfg.Seed+4, big, ecfg)

		// SameSetAll sweeps a prebuilt partition, so queries dominate.
		qd := core.New(n, core.Config{Seed: cfg.Seed + 3})
		engine.UniteAll(qd, uniform, engine.Config{Seed: cfg.Seed})
		var qres engine.Result
		qres.Elapsed = 1<<62 - 1
		for rep := 0; rep < 3; rep++ {
			if _, res := engine.SameSetAll(qd, queries, ecfg); res.Elapsed < qres.Elapsed {
				qres = res
			}
		}

		uth, zth, qth := mops(m, uni.Elapsed), mops(m, zip.Elapsed), mops(m, qres.Elapsed)
		if w == 1 {
			baseUniform, baseSkew, baseQuery = uth, zth, qth
		}
		tb.AddRowf(w,
			uth, ratio(uth, baseUniform), uni.Steals,
			zth, ratio(zth, baseSkew),
			qth, ratio(qth, baseQuery),
			float64(uni.Stats().Work())/float64(m),
			mops(bigN, bigRes.Elapsed))
	}
	fmt.Fprint(cfg.Out, tb)
	fmt.Fprintf(cfg.Out, "\nShape check: on a machine with k cores, Mop/s grows with workers up to ≈k\n")
	fmt.Fprintf(cfg.Out, "(near-linear for SameSetAll, sublinear for UniteAll whose links contend), then\n")
	fmt.Fprintf(cfg.Out, "flattens — oversubscribed workers beyond k add steals, not throughput. On a\n")
	fmt.Fprintf(cfg.Out, "single-core host every row collapses to the 1-worker rate. Work/edge must stay\n")
	fmt.Fprintf(cfg.Out, "flat across the sweep: stealing moves edges between workers without redoing them.\n")
	fmt.Fprintf(cfg.Out, "The n=2^%d column misses cache on every edge; it scales with workers like the\n", bigLog)
	fmt.Fprintf(cfg.Out, "uniform column, from a lower base.\n")
	return nil
}

// batchWorkerSweep is the 1–16 worker sweep of the batching experiment. It
// deliberately ignores GOMAXPROCS: workers are goroutines, and the
// oversubscribed tail of the sweep is part of the measurement.
func batchWorkerSweep() []int {
	return []int{1, 2, 4, 8, 16}
}

// onlyUnites filters a mixed workload down to its Unite operations.
func onlyUnites(ops []workload.Op) []workload.Op {
	out := ops[:0]
	for _, op := range ops {
		if op.Kind == workload.OpUnite {
			out = append(out, op)
		}
	}
	return out
}

// ratio guards the speedup column against a zero base.
func ratio(v, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return v / base
}
