package bench

import (
	"fmt"
	"time"

	"repro/dsu"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// streamChunk is the Push granularity of the stream measurements: edges
// "arrive" a few thousand at a time, as they would off a network tap or a
// log, regardless of the batch buffer size under test.
const streamChunk = 8192

// blockingIngest drives the edge list through buffer-sized blocking
// UniteAll calls — the PR-1 ingestion shape every stream row is judged
// against.
func blockingIngest(n int, seed uint64, edges []engine.Edge, buffer, workers int) time.Duration {
	d := dsu.New(n, dsu.WithSeed(seed))
	start := time.Now()
	for lo := 0; lo < len(edges); lo += buffer {
		hi := min(lo+buffer, len(edges))
		d.UniteAll(edges[lo:hi], dsu.WithWorkers(workers))
	}
	return time.Since(start)
}

// streamIngest drives the same edge list through dsu.Stream: pushed in
// arrival-sized chunks, sealed at the buffer size, executed by the
// dispatcher while the next buffer fills. A failed batch would make the
// throughput row a lie, so any stream error aborts the experiment.
func streamIngest(mk func() *dsu.DSU, edges []engine.Edge, buffer, workers int) time.Duration {
	s := dsu.NewStream(mk(),
		dsu.WithBufferSize(buffer),
		dsu.WithBatchOptions(dsu.WithWorkers(workers)),
		dsu.WithOnBatch(requireBatch))
	start := time.Now()
	for lo := 0; lo < len(edges); lo += streamChunk {
		hi := min(lo+streamChunk, len(edges))
		if err := s.Push(edges[lo:hi]...); err != nil {
			panic(fmt.Sprintf("bench: stream push failed: %v", err))
		}
	}
	if err := s.Close(); err != nil {
		panic(fmt.Sprintf("bench: stream close failed: %v", err))
	}
	return time.Since(start)
}

// requireBatch aborts the run on the first failed batch — E20 rows must
// only ever time fully ingested streams.
func requireBatch(r dsu.BatchResult) {
	if r.Err != nil {
		panic(fmt.Sprintf("bench: stream batch %d failed: %v", r.ID, r.Err))
	}
}

// bestOf keeps the fastest of two runs (stream ingests are long enough
// that allocator noise, not scheduling, is the repeatability risk).
func bestOf(run func() time.Duration) time.Duration {
	best := run()
	if again := run(); again < best {
		best = again
	}
	return best
}

// runE20 measures the streaming ingestion front against blocking batched
// ingestion: buffer sizes × worker counts on uniform, Zipf-skewed, and
// community-structured edge streams. The stream's
// upside is overlap — accumulation and chunk copying proceed while the
// dispatcher executes the previous batch — so it needs at least two real
// cores to show; on a single-core host the stream pays its plumbing with
// no overlap to sell and rows should sit slightly below 1×.
func runE20(cfg Config) error {
	header(cfg, "E20", "Stream vs blocking-batch ingestion", "systems extension; ROADMAP async-pipelines item, Alistarh et al. 2019")
	n := 1 << 20
	if cfg.Quick {
		n = 1 << 16
	}
	m := 4 * n
	shapes := []struct {
		name  string
		edges []engine.Edge
	}{
		{"uniform", engine.FromOps(workload.RandomUnions(n, m, cfg.Seed+121))},
		{"zipf", engine.FromOps(onlyUnites(workload.ZipfMixed(n, m, 1.0, 1.01, cfg.Seed+123)))},
		{"community", engine.FromOps(workload.CommunityUnions(n, m, 64, 0.95, cfg.Seed+127))},
	}
	buffers := []int{1 << 14, 1 << 16, 1 << 18}
	workerSweep := []int{1, 2, 4}

	for _, shape := range shapes {
		fmt.Fprintf(cfg.Out, "### %s stream (n=%d, m=%d, %d-edge arrivals)\n\n",
			shape.name, n, len(shape.edges), streamChunk)
		cols := []string{"buffer"}
		for _, w := range workerSweep {
			cols = append(cols, fmt.Sprintf("w=%d blk Mop/s", w), fmt.Sprintf("w=%d strm Mop/s", w), "×")
		}
		tb := stats.NewTable(cols...)
		for _, buffer := range buffers {
			row := []any{buffer}
			for _, w := range workerSweep {
				blk := bestOf(func() time.Duration {
					return blockingIngest(n, cfg.Seed+1, shape.edges, buffer, w)
				})
				strm := bestOf(func() time.Duration {
					return streamIngest(func() *dsu.DSU {
						return dsu.New(n, dsu.WithSeed(cfg.Seed+1))
					}, shape.edges, buffer, w)
				})
				bth, sth := mops(len(shape.edges), blk), mops(len(shape.edges), strm)
				row = append(row, bth, sth, ratio(sth, bth))
			}
			tb.AddRowf(row...)
		}
		fmt.Fprint(cfg.Out, tb)
		fmt.Fprintln(cfg.Out)
	}

	fmt.Fprintf(cfg.Out, "Shape check: the × columns compare stream against blocking ingestion of the\n")
	fmt.Fprintf(cfg.Out, "same sequence at the same buffer size. With ≥2 real cores the stream should\n")
	fmt.Fprintf(cfg.Out, "win (accumulation overlaps execution, ×>1, most at small buffers where blocking\n")
	fmt.Fprintf(cfg.Out, "pays dispatch latency per batch); on a single-core host expect ×≈0.9–1.0 —\n")
	fmt.Fprintf(cfg.Out, "the dispatcher and producer share the core, so the stream only pays its\n")
	fmt.Fprintf(cfg.Out, "copy-and-seal plumbing. The partition is identical in every cell (pinned by\n")
	fmt.Fprintf(cfg.Out, "the stream≡blocking cross-validation tests under -race, not by this table).\n")
	return nil
}
