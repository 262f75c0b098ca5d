package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// runCorePoints drives one op list per process against a fresh core
// structure, one goroutine per process — true overlap, no per-batch
// barrier — returning wall-clock time and total root-link CAS retries.
func runCorePoints(n int, seed uint64, perProc [][]workload.Op) (time.Duration, int64) {
	d := core.New(n, core.Config{Seed: seed})
	retries := make([]int64, len(perProc))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range perProc {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var r int64
			for _, op := range perProc[i] {
				switch op.Kind {
				case workload.OpUnite:
					_, rr := d.UniteRetries(op.X, op.Y, nil)
					r += rr
				case workload.OpSameSet:
					d.SameSet(op.X, op.Y)
				}
			}
			retries[i] = r
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var total int64
	for _, r := range retries {
		total += r
	}
	return elapsed, total
}

// runE23 measures the concurrent core — the one structure every tenant
// serves — on uniform, Zipf-skewed, and community-structured batches, then
// measures the paper's own regime: point-operation scaling from p
// unsynchronized goroutines and genuinely overlapping UniteAll calls on
// one structure. CAS-retry columns expose the price of optimism: a retry
// is a unite whose link CAS lost to a concurrent link and had to re-find
// its roots.
func runE23(cfg Config) error {
	header(cfg, "E23", "Concurrent core: batch, point-op and overlap scaling", "Jayanti–Tarjan Section 3; systems extension, ROADMAP one-concurrent-core item")
	n := 1 << 20
	if cfg.Quick {
		n = 1 << 16
	}
	m := 4 * n
	shapes := []struct {
		name  string
		edges []engine.Edge
	}{
		{"uniform", engine.FromOps(workload.RandomUnions(n, m, cfg.Seed+131))},
		{"zipf", engine.FromOps(onlyUnites(workload.ZipfMixed(n, m, 1.0, 1.01, cfg.Seed+137)))},
		{"community", engine.FromOps(workload.CommunityUnions(n, m, 64, 0.95, cfg.Seed+139))},
	}
	workerSweep := []int{1, 2, 4, 8}

	// Table 1: single-batch throughput, shape × workers. The w=1 column is
	// a contention-free baseline (one worker never loses a link CAS).
	fmt.Fprintf(cfg.Out, "### single UniteAll batch (n=%d)\n\n", n)
	cols := []string{"batch", "m"}
	for _, w := range workerSweep {
		cols = append(cols, fmt.Sprintf("w=%d Mop/s", w))
	}
	cols = append(cols, "retries/op @w=8")
	tb := stats.NewTable(cols...)
	for _, shape := range shapes {
		row := []any{shape.name, len(shape.edges)}
		var lastRetries float64
		for _, w := range workerSweep {
			res := bestUniteAll(n, cfg.Seed+1, shape.edges, engine.Config{Workers: w, Seed: cfg.Seed})
			lastRetries = float64(res.CASRetries) / float64(len(shape.edges))
			row = append(row, mops(len(shape.edges), res.Elapsed))
		}
		tb.AddRowf(append(row, fmt.Sprintf("%.4f", lastRetries))...)
	}
	fmt.Fprint(cfg.Out, tb)
	fmt.Fprintln(cfg.Out)

	// Table 2: point-operation scaling. This is the paper's own regime —
	// p asynchronous processes issuing Unite/SameSet with no batch framing
	// and no locks anywhere.
	fmt.Fprintf(cfg.Out, "### core point ops, p goroutines (n=%d, 60%% unite mixed workload)\n\n", n)
	tb = stats.NewTable("p", "Mop/s", "retries/op")
	opsEach := m / 4
	for _, p := range cfg.procSweep() {
		perProc := make([][]workload.Op, p)
		for i := range perProc {
			perProc[i] = workload.Mixed(n, opsEach/p, 0.6, cfg.Seed+uint64(1000+i))
		}
		elapsed, retries := runCorePoints(n, cfg.Seed+3, perProc)
		total := 0
		for _, ops := range perProc {
			total += len(ops)
		}
		tb.AddRowf(p, mops(total, elapsed), fmt.Sprintf("%.4f", float64(retries)/float64(total)))
	}
	fmt.Fprint(cfg.Out, tb)
	fmt.Fprintln(cfg.Out)

	// Table 3: overlapping batches — k concurrent UniteAll calls on ONE
	// structure (total edges fixed), against the same edges pushed through
	// one 2-worker batch. The engine holds no barrier against other calls,
	// so the k runs genuinely overlap.
	fmt.Fprintf(cfg.Out, "### overlapping UniteAll calls, one core structure (uniform, m=%d)\n\n", len(shapes[0].edges))
	tb = stats.NewTable("k batches × w=2", "Mop/s", "retries/op", "merged Σ")
	edges := shapes[0].edges
	for _, k := range []int{1, 2, 4, 8} {
		d := core.New(n, core.Config{Seed: cfg.Seed + 5})
		chunk := (len(edges) + k - 1) / k
		results := make([]engine.Result, k)
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < k; i++ {
			lo, hi := i*chunk, (i+1)*chunk
			if hi > len(edges) {
				hi = len(edges)
			}
			wg.Add(1)
			go func(i, lo, hi int) {
				defer wg.Done()
				results[i] = engine.UniteAll(d, edges[lo:hi], engine.Config{Workers: 2, Seed: cfg.Seed})
			}(i, lo, hi)
		}
		wg.Wait()
		elapsed := time.Since(start)
		var retries, merged int64
		for _, r := range results {
			retries += r.CASRetries
			merged += r.Merged
		}
		tb.AddRowf(fmt.Sprintf("%d × 2", k), mops(len(edges), elapsed),
			fmt.Sprintf("%.4f", float64(retries)/float64(len(edges))), merged)
	}
	fmt.Fprint(cfg.Out, tb)
	fmt.Fprintln(cfg.Out)

	fmt.Fprintf(cfg.Out, "Shape check: w=1 and p=1 rows are contention-free baselines (zero retries by\n")
	fmt.Fprintf(cfg.Out, "construction). Point-op Mop/s should grow with p while retries/op stays small\n")
	fmt.Fprintf(cfg.Out, "(the randomized linking order spreads contention; Jayanti–Tarjan's\n")
	fmt.Fprintf(cfg.Out, "expected-work bound assumes exactly this). In the overlap table merged Σ is\n")
	fmt.Fprintf(cfg.Out, "identical in every row — links = initial sets − final sets, schedule-independent.\n")
	return nil
}
