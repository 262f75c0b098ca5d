// Package bench is the experiment harness: one runner per experiment in
// DESIGN.md's per-experiment index (E1–E25; E19 and E21 are retired),
// each regenerating the table/check that validates one of the paper's
// theorems or constructions (E18 measures the batch engine, E20 the
// streaming ingestion front, E22 the wire protocol, E23 the concurrent
// core, E24 the zero-allocation wire fast path, and E25 durable tenants —
// the repo's systems extensions).
// The harness is shared by cmd/dsubench (which writes the tables behind
// EXPERIMENTS.md) and the root-level Go benchmarks.
//
// The paper is theory-only, so "reproducing its tables and figures" means
// reproducing the objects its theorems quantify: total work under each
// find variant, union-forest height and rank statistics, lower-bound
// constructions, and the speedup claim against Anderson–Woll and a global
// lock. Shape, not absolute nanoseconds, is the success criterion.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Config controls an experiment run.
type Config struct {
	// Out receives the experiment's table; must be non-nil.
	Out io.Writer
	// Quick shrinks problem sizes for CI-speed runs.
	Quick bool
	// Seed offsets every workload seed, for replication runs.
	Seed uint64
	// MaxProcs caps the process-count sweeps (0 = min(GOMAXPROCS, 24)).
	MaxProcs int
}

func (c Config) maxProcs() int {
	if c.MaxProcs > 0 {
		return c.MaxProcs
	}
	p := runtime.GOMAXPROCS(0)
	if p > 24 {
		p = 24
	}
	return p
}

// procSweep returns the process counts an experiment sweeps: powers of two
// up to the cap, always including 1 and the cap.
func (c Config) procSweep() []int {
	cap := c.maxProcs()
	var ps []int
	for p := 1; p < cap; p *= 2 {
		ps = append(ps, p)
	}
	ps = append(ps, cap)
	sort.Ints(ps)
	// Dedupe (cap may be a power of two).
	out := ps[:0]
	for i, p := range ps {
		if i == 0 || p != ps[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// Experiment is one reproducible experiment.
type Experiment struct {
	ID    string
	Title string
	Ref   string // paper reference (theorem / section)
	Run   func(Config) error
}

// All returns every experiment in ID order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Work without compaction is O(m log n)", "Theorem 4.3", runE1},
		{"E2", "Union-forest height is O(log n) w.h.p.", "Corollary 4.2.1", runE2},
		{"E3", "Rank dominance along ancestor chains", "Lemma 4.1 / Corollary 4.1.1", runE3},
		{"E4", "Two-try splitting work vs. bound formula", "Theorem 5.1", runE4},
		{"E5", "One-try splitting work vs. bound formula", "Theorem 5.2", runE5},
		{"E6", "Binomial construction forces average depth Ω(log k)", "Lemma 5.3", runE6},
		{"E7", "Lower-bound workload forces Ω(m log(np/m)) work", "Theorem 5.4", runE7},
		{"E8", "Lockstep halving simulates splitting", "Section 3 construction", runE8},
		{"E9", "Speedup vs. Anderson–Woll and a global lock", "Abstract / Section 1", runE9},
		{"E10", "Find-variant ablation at fixed workload", "Sections 3 and 6", runE10},
		{"E11", "Independence-assumption ablation", "Section 7", runE11},
		{"E12", "Dynamic MakeSet variant throughput", "Section 3 remark / Section 7", runE12},
		{"E13", "Linearizability under random schedules", "Lemma 3.2 / Theorem 3.4", runE13},
		{"E14", "Per-step structural invariants under adversarial schedules", "Lemma 3.1", runE14},
		{"E15", "Per-operation step distribution (tail bound)", "Theorem 4.3 w.h.p. claim", runE15},
		{"E16", "Contention ablation on skewed workloads", "Section 1 (path interactions)", runE16},
		{"E17", "Section 5 potential properties along executions", "Section 5 properties (i)–(vi)", runE17},
		{"E18", "Batch engine throughput and speedup", "systems extension; Fedorov et al. 2023, Alistarh et al. 2019", runE18},
		{"E20", "Stream vs blocking-batch ingestion", "systems extension; ROADMAP async-pipelines item, Alistarh et al. 2019", runE20},
		{"E22", "Wire-protocol throughput: remote vs in-process batches", "systems extension; ROADMAP wire-measurement item", runE22},
		{"E23", "Concurrent core: batch, point-op and overlap scaling", "Jayanti–Tarjan Section 3; systems extension, ROADMAP one-concurrent-core item", runE23},
		{"E24", "Wire fast path: pipelined pooled codecs vs per-RPC exchanges", "systems extension; E22 follow-up, ROADMAP wire-measurement item", runE24},
		{"E25", "Durable tenants: WAL ingest cost and recovery time", "systems extension; ROADMAP durable-tenants item", runE25},
	}
}

// aliases maps friendly experiment names to IDs, for the CLI.
var aliases = map[string]string{"batch": "E18", "stream": "E20", "wire": "E22", "lockfree": "E23", "fastpath": "E24", "wal": "E25", "durable": "E25"}

// ByID returns the experiment with the given ID or alias, matched
// case-insensitively so `-exp e20` and `-exp E20` name the same table.
func ByID(id string) (Experiment, bool) {
	if canonical, ok := aliases[strings.ToLower(id)]; ok {
		id = canonical
	}
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// header prints the experiment banner.
func header(cfg Config, e string, title, ref string) {
	fmt.Fprintf(cfg.Out, "\n## %s — %s\n(paper: %s)\n\n", e, title, ref)
}

// runCore executes per-process op lists against d from one goroutine per
// process, returning the summed work stats and the wall-clock duration of
// the concurrent phase.
func runCore(d *core.DSU, perProc [][]workload.Op, counted bool) (core.Stats, time.Duration) {
	stats := make([]core.Stats, len(perProc))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range perProc {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &stats[i]
			if !counted {
				st = nil
			}
			for _, op := range perProc[i] {
				switch op.Kind {
				case workload.OpUnite:
					d.UniteCounted(op.X, op.Y, st)
				case workload.OpSameSet:
					d.SameSetCounted(op.X, op.Y, st)
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var total core.Stats
	for i := range stats {
		total.Add(stats[i])
	}
	return total, elapsed
}

// mops returns throughput in million operations per second.
func mops(ops int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds() / 1e6
}
