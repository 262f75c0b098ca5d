// Streaming computes connected components over a streamed edge list using
// the asynchronous ingestion front: edges arrive in small chunks (as they
// would from a network tap, a log, or a graph loader) and are pushed
// into a dsu.Stream, which accumulates them into double-buffered batches
// and drives each sealed batch through UniteAll while the next one fills —
// the caller never blocks per batch, per-batch results arrive through a
// completion callback, and Close drains everything. This is the overlap
// Alistarh et al. (2019) identify as the throughput lever: keep the
// structure's workers fed while ingestion keeps running.
//
// The final partition is validated against an exact sequential BFS.
//
//	go run ./examples/streaming [-n 1000000] [-m 4000000] [-buffer 65536] \
//	    [-inflight 1] [-workers 0] [-chunk 8192]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/dsu"
	"repro/internal/graph"
)

func main() {
	var (
		n        = flag.Int("n", 1_000_000, "vertices")
		m        = flag.Int("m", 4_000_000, "streamed edges")
		buffer   = flag.Int("buffer", 1<<16, "edges per sealed batch (stream buffer size)")
		inflight = flag.Int("inflight", 1, "bounded in-flight batches (1 = double buffering)")
		workers  = flag.Int("workers", 0, "pool size per batch (0 = GOMAXPROCS)")
		chunk    = flag.Int("chunk", 8192, "arrival granularity (edges per Push)")
	)
	flag.Parse()
	if *buffer <= 0 || *chunk <= 0 {
		fmt.Fprintln(os.Stderr, "streaming: -buffer and -chunk must be positive")
		os.Exit(1)
	}

	fmt.Printf("generating stream G(n=%d, m=%d)...\n", *n, *m)
	stream := graph.ErdosRenyi(*n, *m, 2026)

	pool := *workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	d := dsu.New(*n, dsu.WithSeed(1))
	fmt.Println("backend: flat DSU, two-try splitting finds")

	fmt.Printf("streaming in %d-edge arrivals, %d-edge buffers, %d in flight, %d workers...\n",
		*chunk, *buffer, *inflight, pool)
	s := dsu.NewStream(d,
		dsu.WithBufferSize(*buffer),
		dsu.WithMaxInFlight(*inflight),
		dsu.WithBatchOptions(dsu.WithWorkers(*workers)),
		dsu.WithOnBatch(func(r dsu.BatchResult) {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "batch %d failed: %v\n", r.ID, r.Err)
				os.Exit(1)
			}
		}))

	buf := make([]dsu.Edge, 0, *chunk)
	start := time.Now()
	for lo := 0; lo < len(stream); lo += *chunk {
		hi := min(lo+*chunk, len(stream))
		buf = buf[:0]
		for _, e := range stream[lo:hi] {
			buf = append(buf, dsu.Edge{X: e.U, Y: e.V})
		}
		if err := s.Push(buf...); err != nil {
			fmt.Fprintln(os.Stderr, "push:", err)
			os.Exit(1)
		}
	}
	if err := s.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "close:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	fmt.Printf("streamed %d edges in %d batches in %v (%.2f Medges/s)\n",
		s.Edges(), s.Batches(), elapsed.Round(time.Millisecond),
		float64(s.Edges())/elapsed.Seconds()/1e6)
	fmt.Printf("components: %d (merged %d)\n", d.Sets(), s.Merged())

	fmt.Println("validating against sequential BFS...")
	want := graph.RefComponents(*n, stream)
	got := d.CanonicalLabels()
	for v := range got {
		if got[v] != want[v] {
			fmt.Fprintf(os.Stderr, "MISMATCH at vertex %d: streamed label %d, BFS label %d\n",
				v, got[v], want[v])
			os.Exit(1)
		}
	}
	if *n > 0 && int(s.Merged()) != *n-d.Sets() {
		// Merge counts are exact: each merge drops one component.
		fmt.Fprintf(os.Stderr, "MISMATCH: merged %d but components dropped by %d\n",
			s.Merged(), *n-d.Sets())
		os.Exit(1)
	}
	fmt.Println("OK: streamed components match the exact reference.")

	// Query phase: answer the whole stream again as connectivity queries,
	// in a few SameSetAll batches, validated against the BFS labels.
	const queryBatches = 4
	queries := make([]dsu.Edge, len(stream))
	for i, e := range stream {
		queries[i] = dsu.Edge{X: e.U, Y: e.V}
	}
	qstart := time.Now()
	var qstats dsu.Stats
	for k := 0; k < queryBatches; k++ {
		answers := d.SameSetAllCounted(queries, &qstats, dsu.WithWorkers(*workers))
		for i, e := range stream {
			if answers[i] != (want[e.U] == want[e.V]) {
				fmt.Fprintf(os.Stderr, "MISMATCH: query (%d,%d) answered %v, BFS says %v\n",
					e.U, e.V, answers[i], want[e.U] == want[e.V])
				os.Exit(1)
			}
		}
	}
	qelapsed := time.Since(qstart)
	fmt.Printf("query phase: %d queries in %v (%.2f Mq/s, %d CAS attempts)\n",
		queryBatches*len(stream), qelapsed.Round(time.Millisecond),
		float64(queryBatches*len(stream))/qelapsed.Seconds()/1e6, qstats.CASAttempts)
	fmt.Println("OK: query answers match the exact reference.")
}
