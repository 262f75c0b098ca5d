package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/workload"
)

// adaptRounds/adaptQueryBatches shape E21's phase alternation: each round
// is one mutation batch (1/adaptRounds of the edge stream) followed by
// adaptQueryBatches query batches — enough query batches per phase for the
// estimator's EWMA to converge and the downgrade to show inside a phase.
const (
	adaptRounds       = 4
	adaptQueryBatches = 4
)

// adaptExecutor builds one executor per mode: fixed modes configure the
// structure with that variant, the adaptive mode runs the two-try base
// plus the flatness estimator.
func adaptExecutor(n int, seed uint64, find core.Find, adaptive bool) *exec.Executor {
	return exec.NewExecutor(core.New(n, core.Config{Find: find, Seed: seed}), adaptive)
}

// adaptRun drives the alternating mutate/query phases through one executor
// and returns the summed query-phase time plus the variant each query
// batch ran with.
func adaptRun(x *exec.Executor, edges []engine.Edge, queries []engine.Edge, workers int, seed uint64) (time.Duration, []core.Find) {
	chunk := (len(edges) + adaptRounds - 1) / adaptRounds
	var queryTime time.Duration
	var picks []core.Find
	cfg := exec.Config{Workers: workers, Seed: seed}
	for lo := 0; lo < len(edges); lo += chunk {
		x.UniteAll(edges[lo:min(lo+chunk, len(edges))], cfg)
		for k := 0; k < adaptQueryBatches; k++ {
			start := time.Now()
			_, res := x.SameSetAll(queries, cfg)
			queryTime += time.Since(start)
			picks = append(picks, res.Find)
		}
	}
	return queryTime, picks
}

// pickSummary compresses a variant-pick sequence into "twotry×2 onetry×1
// naive×13"-style counts, preserving first-appearance order.
func pickSummary(picks []core.Find) string {
	var order []core.Find
	counts := map[core.Find]int{}
	for _, p := range picks {
		if counts[p] == 0 {
			order = append(order, p)
		}
		counts[p]++
	}
	out := ""
	for i, p := range order {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%v×%d", p, counts[p])
	}
	return out
}

// runE21 measures the adaptive compaction policy against fixed find
// variants across alternating mutate/query phases — the ROADMAP's
// batch-aware compaction item. Each round unites a quarter of the edge
// stream, then answers four query batches; after the first big UniteAll
// the forest is flat-ish (E18's SameSetAll rows), so a fixed compacting
// variant pays CAS overhead per query that naive skips — the adaptive mode
// should track the best fixed variant per phase without being told which.
// Workloads: uniform, Zipf-skewed, and community-structured streams.
// Throughputs are query-phase only (mutation phases are identical across
// modes by construction).
func runE21(cfg Config) error {
	header(cfg, "E21", "Adaptive vs fixed find variants across mutate/query phases", "systems extension; ROADMAP batch-aware compaction item, Alistarh et al. 2019")
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
		{"zipf", engine.FromOps(onlyUnites(workload.ZipfMixed(n, m, 1.0, 1.01, cfg.Seed+133)))},
		{"community", engine.FromOps(workload.CommunityUnions(n, m, 64, 0.95, cfg.Seed+137))},
	}
	queries := engine.FromOps(workload.RandomUnions(n, n, cfg.Seed+139))
	queryOps := adaptRounds * adaptQueryBatches * len(queries)
	modes := []struct {
		name     string
		find     core.Find
		adaptive bool
	}{
		{"twotry (fixed)", core.FindTwoTry, false},
		{"onetry (fixed)", core.FindOneTry, false},
		{"naive (fixed)", core.FindNaive, false},
		{"adaptive", core.FindTwoTry, true},
	}
	const workers = 4

	for _, shape := range shapes {
		fmt.Fprintf(cfg.Out, "### %s stream (n=%d, m=%d; %d rounds × %d query batches of %d pairs)\n\n",
			shape.name, n, len(shape.edges), adaptRounds, adaptQueryBatches, len(queries))
		tb := stats.NewTable("mode", "q-Mop/s")
		var adaptivePicks string
		for _, mode := range modes {
			x := adaptExecutor(n, cfg.Seed+1, mode.find, mode.adaptive)
			qt, picks := adaptRun(x, shape.edges, queries, workers, cfg.Seed)
			tb.AddRowf(mode.name, mops(queryOps, qt))
			if mode.adaptive {
				adaptivePicks = pickSummary(picks)
			}
		}
		fmt.Fprint(cfg.Out, tb)
		fmt.Fprintf(cfg.Out, "\nadaptive picks: %s\n\n", adaptivePicks)
	}

	fmt.Fprintf(cfg.Out, "Shape check: the per-batch variants behind \"adaptive picks\" must show the\n")
	fmt.Fprintf(cfg.Out, "query-phase downgrade firing — naive (or onetry) selected for most query\n")
	fmt.Fprintf(cfg.Out, "batches once the first big UniteAll flattens the forest — and adaptive's\n")
	fmt.Fprintf(cfg.Out, "query throughput should track the best fixed compacting variant (at or above\n")
	fmt.Fprintf(cfg.Out, "twotry on the uniform and community streams; single-core runs with workers>1\n")
	fmt.Fprintf(cfg.Out, "carry scheduling noise, so judge the shape across shapes, not one cell).\n")
	fmt.Fprintf(cfg.Out, "Fixed naive is the cautionary row: it also skips compaction CASes but never\n")
	fmt.Fprintf(cfg.Out, "flattens the forest, so it loses badly — the policy's point is naive finds\n")
	fmt.Fprintf(cfg.Out, "over a two-try-compacted forest. Partitions and answers are identical in\n")
	fmt.Fprintf(cfg.Out, "every cell (pinned by the adaptive ≡ fixed cross-validation tests under\n")
	fmt.Fprintf(cfg.Out, "-race, not by this table); the differences here are work and time only.\n")
	return nil
}
