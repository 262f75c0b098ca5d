package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/dsu"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/workload"
)

// allocsPerFrame runs one ingest and returns its wall-clock time plus
// process-wide heap allocations per frame exchange. The server lives in
// the same process, so the figure covers the whole round trip — client
// encode, HTTP exchange, server decode, execute, reply both ways —
// which is exactly the budget the fast path attacks.
func allocsPerFrame(frames int, run func()) (time.Duration, float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	start := time.Now()
	run()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	if frames == 0 {
		return elapsed, 0
	}
	return elapsed, float64(ms.Mallocs-before) / float64(frames)
}

// remoteIngest drives the edge list through one remote unite RPC per
// frame against the tenant, returning the wall-clock time and the
// allocations per frame. Frames carry `frame` edges each — the sweep
// variable: small frames pay the per-exchange protocol cost often,
// large frames amortize it.
func remoteIngest(c *server.Client, tenant string, edges []engine.Edge, frame int) (time.Duration, float64) {
	ctx := context.Background()
	frames := (len(edges) + frame - 1) / frame
	return allocsPerFrame(frames, func() {
		for lo := 0; lo < len(edges); lo += frame {
			hi := min(lo+frame, len(edges))
			if _, err := c.UniteAll(ctx, tenant, dsu.UniteRequest{Edges: edges[lo:hi]}); err != nil {
				panic(fmt.Sprintf("bench: remote unite failed: %v", err))
			}
		}
	})
}

// inProcessIngest is the same frame loop without the wire: blocking
// UniteAll calls on a fresh structure — the ceiling every remote row is
// judged against.
func inProcessIngest(n int, seed uint64, edges []engine.Edge, frame int) time.Duration {
	d := dsu.New(n, dsu.WithSeed(seed))
	start := time.Now()
	for lo := 0; lo < len(edges); lo += frame {
		hi := min(lo+frame, len(edges))
		d.UniteAll(edges[lo:hi])
	}
	return time.Since(start)
}

// runE22 measures the wire protocol's cost: remote batch RPC throughput
// against in-process blocking calls, swept over frame sizes, plus
// concurrent multi-tenant scaling and a streaming-ingest comparison. The
// server runs in-process over a loopback HTTP listener, so the rows
// isolate protocol cost — framing, encode/decode, HTTP per-exchange
// overhead — not network latency.
func runE22(cfg Config) error {
	header(cfg, "E22", "Wire-protocol throughput: remote vs in-process batches", "systems extension; ROADMAP wire-measurement item")
	n := 1 << 18
	if cfg.Quick {
		n = 1 << 14
	}
	m := 4 * n
	edges := engine.FromOps(workload.RandomUnions(n, m, cfg.Seed+221))
	frames := []int{1 << 10, 1 << 13, 1 << 16}

	newServer := func(tenants int) (*httptest.Server, *dsu.Registry) {
		reg := dsu.NewRegistry()
		for i := 0; i < tenants; i++ {
			if _, err := reg.Create(fmt.Sprintf("t%d", i), n, dsu.WithSeed(cfg.Seed+1)); err != nil {
				panic(fmt.Sprintf("bench: tenant create: %v", err))
			}
		}
		hs := httptest.NewServer(server.New(server.Config{Registry: reg}))
		return hs, reg
	}

	// Frame-size sweep, one tenant: the protocol tax and how batching
	// amortizes it.
	fmt.Fprintf(cfg.Out, "### Remote unite RPC vs in-process (n=%d, m=%d edges, one tenant)\n\n", n, m)
	tb := stats.NewTable("frame", "in-proc Medge/s", "remote Medge/s", "×", "allocs/fr")
	for _, frame := range frames {
		local := bestOf(func() time.Duration { return inProcessIngest(n, cfg.Seed+1, edges, frame) })
		lth := mops(m, local)
		hs, _ := newServer(1)
		c := server.NewClient(hs.URL, server.WithHTTPClient(hs.Client()))
		remote, apf := remoteIngest(c, "t0", edges, frame)
		hs.Close()
		rth := mops(m, remote)
		tb.AddRowf(frame, lth, rth, ratio(rth, lth), apf)
	}
	fmt.Fprint(cfg.Out, tb)
	fmt.Fprintln(cfg.Out)

	// Concurrent tenants: each client drives its own tenant's structure,
	// so aggregate throughput should scale until cores saturate (tenant
	// isolation is structural — no shared state between universes).
	fmt.Fprintf(cfg.Out, "### Concurrent tenants (frame=%d, %d edges per tenant)\n\n", 1<<13, m)
	tc := stats.NewTable("tenants", "aggregate Medge/s", "per-tenant Medge/s")
	for _, tenants := range []int{1, 2, 4} {
		hs, _ := newServer(tenants)
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < tenants; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := server.NewClient(hs.URL, server.WithHTTPClient(hs.Client()))
				remoteIngest(c, fmt.Sprintf("t%d", i), edges, 1<<13)
			}(i)
		}
		wg.Wait()
		elapsed := time.Since(start)
		hs.Close()
		agg := mops(tenants*m, elapsed)
		tc.AddRowf(tenants, agg, agg/float64(tenants))
	}
	fmt.Fprint(cfg.Out, tc)
	fmt.Fprintln(cfg.Out)

	// Streaming ingest over the wire: one connection, server-side
	// batching, replies overlapped with pushes — the wire face of E20.
	hs, _ := newServer(1)
	c := server.NewClient(hs.URL, server.WithHTTPClient(hs.Client()))
	st, err := c.OpenStream(context.Background(), "t0", server.StreamConfig{Buffer: 1 << 16})
	if err != nil {
		panic(fmt.Sprintf("bench: open stream: %v", err))
	}
	start := time.Now()
	for lo := 0; lo < len(edges); lo += streamChunk {
		hi := min(lo+streamChunk, len(edges))
		if err := st.Push(edges[lo:hi]...); err != nil {
			panic(fmt.Sprintf("bench: stream push: %v", err))
		}
	}
	if _, err := st.Close(); err != nil {
		panic(fmt.Sprintf("bench: stream close: %v", err))
	}
	streamed := time.Since(start)
	hs.Close()
	fmt.Fprintf(cfg.Out, "Streamed ingest over the wire (buffer=%d, %d-edge pushes): %.2f Medge/s.\n",
		1<<16, streamChunk, mops(m, streamed))

	fmt.Fprintf(cfg.Out, "\nShape check: remote throughput should climb with frame size (per-exchange\n")
	fmt.Fprintf(cfg.Out, "HTTP + encode cost amortizes). The × column is remote/in-process; it can\n")
	fmt.Fprintf(cfg.Out, "approach but not pass 1.0 — the wire only ever adds work. Aggregate\n")
	fmt.Fprintf(cfg.Out, "multi-tenant throughput should grow with tenant count on a multi-core host\n")
	fmt.Fprintf(cfg.Out, "(structural isolation, no cross-tenant contention); on a single core it stays\n")
	fmt.Fprintf(cfg.Out, "flat and per-tenant throughput splits the core evenly.\n")
	return nil
}
