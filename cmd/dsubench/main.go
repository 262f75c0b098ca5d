// Command dsubench regenerates the experiment tables recorded in
// EXPERIMENTS.md: one experiment per theorem/construction of Jayanti &
// Tarjan (PODC 2016), per the index in DESIGN.md.
//
// Usage:
//
//	dsubench [-exp E1,E4] [-quick] [-seed N] [-maxprocs P] [-list]
//
// With no -exp it runs everything. Output is GitHub-flavoured Markdown on
// stdout, suitable for pasting into EXPERIMENTS.md. Experiment ids match
// case-insensitively, and the systems tables answer to aliases:
//
//	dsubench -exp batch   # E18, batch-engine throughput
//	dsubench -exp stream  # E20, stream vs blocking-batch ingestion
//	dsubench -exp wire    # E22, remote vs in-process batches
//	dsubench -exp lockfree # E23, concurrent-core scaling
//	dsubench -exp fastpath # E24, pipelined pooled wire path vs per-RPC
//	dsubench -exp wal     # E25, durable tenants (also: durable)
//
// E19 (the retired sharded kind against the flat engine) and E21 (the
// retired adaptive find policy against fixed variants) have no runner;
// EXPERIMENTS.md keeps their last recorded tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "dsubench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expFlag  = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		quick    = flag.Bool("quick", false, "smaller problem sizes")
		seed     = flag.Uint64("seed", 0, "workload seed offset")
		maxProcs = flag.Int("maxprocs", 0, "cap process sweeps (default min(GOMAXPROCS, 24))")
		list     = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %-60s (%s)\n", e.ID, e.Title, e.Ref)
		}
		return nil
	}

	var selected []bench.Experiment
	if *expFlag == "" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	cfg := bench.Config{Out: os.Stdout, Quick: *quick, Seed: *seed, MaxProcs: *maxProcs}
	fmt.Printf("# dsubench — %d experiment(s), GOMAXPROCS=%d, quick=%v, seed=%d\n",
		len(selected), runtime.GOMAXPROCS(0), *quick, *seed)
	start := time.Now()
	for _, e := range selected {
		expStart := time.Now()
		if err := e.Run(cfg); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("\n[%s completed in %v]\n", e.ID, time.Since(expStart).Round(time.Millisecond))
	}
	fmt.Printf("\nAll done in %v.\n", time.Since(start).Round(time.Millisecond))
	return nil
}
