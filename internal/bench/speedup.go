package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/aw"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// contender abstracts the implementations raced in E9.
type contender interface {
	Unite(x, y uint32) bool
	SameSet(x, y uint32) bool
}

func runContender(d contender, perProc [][]workload.Op) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for i := range perProc {
		wg.Add(1)
		go func(ops []workload.Op) {
			defer wg.Done()
			for _, op := range ops {
				switch op.Kind {
				case workload.OpUnite:
					d.Unite(op.X, op.Y)
				case workload.OpSameSet:
					d.SameSet(op.X, op.Y)
				}
			}
		}(perProc[i])
	}
	wg.Wait()
	return time.Since(start)
}

// runE9 is the headline speedup experiment: Jayanti–Tarjan two-try
// splitting (with and without early termination) against the Anderson–Woll
// comparator and a global-lock baseline, across process counts. Throughput
// is best-of-three with a fresh structure per attempt (single short runs
// are dominated by page-fault and scheduler noise at small p).
func runE9(cfg Config) error {
	header(cfg, "E9", "Speedup vs. Anderson–Woll and a global lock", "Abstract / Section 1")
	n := 1 << 20
	if cfg.Quick {
		n = 1 << 16
	}
	m := 4 * n
	ops := workload.Mixed(n, m, 0.5, cfg.Seed+31)

	type mk struct {
		name string
		new  func() contender
	}
	makers := []mk{
		{"JT twotry", func() contender { return core.New(n, core.Config{Find: core.FindTwoTry, Seed: cfg.Seed + 1}) }},
		{"JT twotry+early", func() contender {
			return core.New(n, core.Config{Find: core.FindTwoTry, EarlyTermination: true, Seed: cfg.Seed + 1})
		}},
		{"AW rank+halving", func() contender { return aw.New(n) }},
		{"global lock", func() contender { return aw.NewLocked(n) }},
	}

	base := make(map[string]float64) // single-process Mop/s per contender
	procs := cfg.procSweep()
	tb := stats.NewTable(append([]string{"p"}, func() []string {
		var cols []string
		for _, m := range makers {
			cols = append(cols, m.name+" Mop/s", m.name+" ×")
		}
		return cols
	}()...)...)
	for _, p := range procs {
		perProc := workload.SplitRoundRobin(ops, p)
		row := []any{p}
		for _, maker := range makers {
			best := time.Duration(1<<62 - 1)
			for rep := 0; rep < 3; rep++ {
				if elapsed := runContender(maker.new(), perProc); elapsed < best {
					best = elapsed
				}
			}
			th := mops(m, best)
			if p == 1 {
				base[maker.name] = th
			}
			speedup := 0.0
			if base[maker.name] > 0 {
				speedup = th / base[maker.name]
			}
			row = append(row, th, speedup)
		}
		tb.AddRowf(row...)
	}
	fmt.Fprint(cfg.Out, tb)
	fmt.Fprintf(cfg.Out, "\nShape check: JT throughput scales with p (almost-linear speedup for busy processes); the global lock flatlines (or degrades); AW scales but pays rank-maintenance overhead.\n")

	// The paper's complaint about Anderson & Woll is about total WORK: their
	// bound is Θ(m(α(m,0) + p)) — work per operation grows linearly in p —
	// while Theorem 5.1 keeps JT's work per operation at α + log(np/m + 1).
	// Measure work/m for both as p grows.
	fmt.Fprintf(cfg.Out, "\nTotal work per operation vs. p (same workload):\n\n")
	wt := stats.NewTable("p", "JT work/m", "AW work/m", "AW/JT", "JT bound α+log(np/m+1)")
	for _, p := range procs {
		perProc := workload.SplitRoundRobin(ops, p)
		jt := core.New(n, core.Config{Find: core.FindTwoTry, Seed: cfg.Seed + 1})
		jtStats, _ := runCore(jt, perProc, true)
		awd := aw.New(n)
		awStats := runAWCounted(awd, perProc)
		jtPer := float64(jtStats.Work()) / float64(m)
		awPer := float64(awStats.Work()) / float64(m)
		wt.AddRowf(p, jtPer, awPer, awPer/jtPer, boundTwoTry(n, m, p))
	}
	fmt.Fprint(cfg.Out, wt)
	fmt.Fprintf(cfg.Out, "\nJT's work/m must stay within its bound's constant band as p grows.\n")
	return nil
}

// runAWCounted executes per-process ops against the AW structure with work
// accounting.
func runAWCounted(d *aw.DSU, perProc [][]workload.Op) core.Stats {
	stats := make([]core.Stats, len(perProc))
	var wg sync.WaitGroup
	for i := range perProc {
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

// runE12 measures the Dynamic (MakeSet) variant: concurrent growth mixed
// with unions and queries, against the static structure on the same
// workload as a reference point.
func runE12(cfg Config) error {
	header(cfg, "E12", "Dynamic MakeSet variant throughput", "Section 3 remark / Section 7")
	n := 1 << 18
	if cfg.Quick {
		n = 1 << 14
	}
	m := 4 * n
	ops := workload.Mixed(n, m, 0.5, cfg.Seed+41)
	tb := stats.NewTable("p", "static Mop/s", "dynamic Mop/s", "dynamic/static", "dynamic w/ growth Mop/s")
	for _, p := range cfg.procSweep() {
		perProc := workload.SplitRoundRobin(ops, p)

		static := core.New(n, core.Config{Seed: cfg.Seed + 2})
		staticElapsed := runContender(static, perProc)

		dyn := core.NewDynamic(n, core.Config{Seed: cfg.Seed + 2})
		for i := 0; i < n; i++ {
			if _, err := dyn.MakeSet(); err != nil {
				return fmt.Errorf("bench: E12 MakeSet: %w", err)
			}
		}
		dynElapsed := runContender(dyn, perProc)

		// Mixed growth: each worker alternates MakeSets into spare capacity
		// with operations on the existing range.
		grown := core.NewDynamic(2*n, core.Config{Seed: cfg.Seed + 2})
		for i := 0; i < n; i++ {
			if _, err := grown.MakeSet(); err != nil {
				return fmt.Errorf("bench: E12 MakeSet: %w", err)
			}
		}
		var wg sync.WaitGroup
		start := time.Now()
		for i := range perProc {
			wg.Add(1)
			go func(ops []workload.Op) {
				defer wg.Done()
				for k, op := range ops {
					if k%16 == 0 {
						_, _ = grown.MakeSet() // ErrFull is fine late in the run
					}
					switch op.Kind {
					case workload.OpUnite:
						grown.Unite(op.X, op.Y)
					case workload.OpSameSet:
						grown.SameSet(op.X, op.Y)
					}
				}
			}(perProc[i])
		}
		wg.Wait()
		grownElapsed := time.Since(start)

		st, dy := mops(m, staticElapsed), mops(m, dynElapsed)
		ratio := 0.0
		if st > 0 {
			ratio = dy / st
		}
		tb.AddRowf(p, st, dy, ratio, mops(m, grownElapsed))
	}
	fmt.Fprint(cfg.Out, tb)
	fmt.Fprintf(cfg.Out, "\nThe dynamic structure is the static one plus an element count, so the two columns should agree within noise.\n")
	return nil
}
