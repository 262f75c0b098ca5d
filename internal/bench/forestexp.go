package bench

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/seqdsu"
	"repro/internal/stats"
	"repro/internal/workload"
)

// unionForestParents runs m random unions over n elements concurrently with
// naive finds (so the live forest IS the union forest) and returns the
// parent snapshot and the ids of the random order.
func unionForestParents(n, m, p int, seed uint64) (parents, ids []uint32) {
	d := core.New(n, core.Config{Find: core.FindNaive, Seed: seed})
	ops := workload.RandomUnions(n, m, seed*31+5)
	runCore(d, workload.SplitRoundRobin(ops, p), false)
	parents = d.Snapshot()
	ids = make([]uint32, n)
	for x := uint32(0); int(x) < n; x++ {
		ids[x] = d.ID(x)
	}
	return parents, ids
}

// runE2 validates Corollary 4.2.1: union-forest height is O(log n) w.h.p.
func runE2(cfg Config) error {
	header(cfg, "E2", "Union-forest height is O(log n) w.h.p.", "Corollary 4.2.1")
	sizes := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18}
	trials := 8
	if cfg.Quick {
		sizes = []int{1 << 10, 1 << 12, 1 << 14}
		trials = 4
	}
	tb := stats.NewTable("n", "trials", "mean height", "max height", "mean/lg n", "max/lg n")
	var xs, ys []float64
	for _, n := range sizes {
		heights := make([]float64, 0, trials)
		for t := 0; t < trials; t++ {
			parents, _ := unionForestParents(n, 4*n, 8, uint64(t)+cfg.Seed+1)
			heights = append(heights, float64(forest.Height(parents)))
		}
		s := stats.Summarize(heights)
		lg := math.Log2(float64(n))
		tb.AddRowf(n, trials, s.Mean, s.Max, s.Mean/lg, s.Max/lg)
		xs = append(xs, float64(n))
		ys = append(ys, s.Mean)
	}
	fmt.Fprint(cfg.Out, tb)
	fit := stats.LogFit(xs, ys)
	fmt.Fprintf(cfg.Out, "\nheight ≈ %.2f + %.2f·lg n (R²=%.3f); the corollary predicts c·lg n with modest c.\n",
		fit.Intercept, fit.Slope, fit.R2)
	return nil
}

// runE3 validates Lemma 4.1 and Corollary 4.1.1 on live union forests.
func runE3(cfg Config) error {
	header(cfg, "E3", "Rank dominance along ancestor chains", "Lemma 4.1 / Corollary 4.1.1")
	sizes := []int{1 << 12, 1 << 14, 1 << 16}
	if cfg.Quick {
		sizes = []int{1 << 10, 1 << 12}
	}
	tb := stats.NewTable("n", "ancestor pairs", "Pr[ancestor outranks]", "mean same-rank ancestors", "max rank", "lg n")
	for _, n := range sizes {
		parents, ids := unionForestParents(n, 4*n, 8, cfg.Seed+3)
		rpt := forest.AnalyzeRanks(parents, ids)
		tb.AddRowf(n, rpt.Pairs, rpt.GoodAncestorFraction, rpt.MeanSameRankAncestors, rpt.MaxRank, int(math.Log2(float64(n))))
	}
	fmt.Fprint(cfg.Out, tb)
	fmt.Fprintf(cfg.Out, "\nLemma 4.1 bounds the dominance probability below by 1/2; Corollary 4.1.1 bounds mean same-rank ancestors by 2.\n")
	return nil
}

// runE6 validates Lemma 5.3: the binomial-style Unite schedule forces
// average node depth at least (lg k)/4 even under splitting finds.
func runE6(cfg Config) error {
	header(cfg, "E6", "Binomial construction forces average depth Ω(log k)", "Lemma 5.3")
	ks := []int{1 << 4, 1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}
	if cfg.Quick {
		ks = ks[:5]
	}
	tb := stats.NewTable("k", "avg depth", "(lg k)/4", "avg/lg k", "height")
	for _, k := range ks {
		d := seqdsu.New(k, seqdsu.LinkRandom, seqdsu.CompactSplitting, cfg.Seed+9)
		for _, op := range workload.BinomialPairing(0, k) {
			d.Unite(op.X, op.Y)
		}
		parents := make([]uint32, k)
		for x := uint32(0); int(x) < k; x++ {
			parents[x] = d.Parent(x)
		}
		avg := forest.AvgDepth(parents)
		lg := math.Log2(float64(k))
		tb.AddRowf(k, avg, lg/4, avg/lg, forest.Height(parents))
	}
	fmt.Fprint(cfg.Out, tb)
	fmt.Fprintf(cfg.Out, "\nLemma 5.3 proves avg depth ≥ (lg k)/4: the 'avg depth' column must dominate the '(lg k)/4' column.\n")
	return nil
}
