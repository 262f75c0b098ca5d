package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"repro/dsu"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/internal/workload"
)

// pipedIngest drives the edge list through one pipelined batch-RPC
// connection — pooled codecs at both ends, request coalescing, no
// per-frame HTTP exchange — returning wall-clock time and process-wide
// allocations per frame. Close blocks until the last reply drained, so
// the clock covers full completion, same as remoteIngest's.
func pipedIngest(c *server.Client, tenant string, edges []engine.Edge, frame int) (time.Duration, float64) {
	ctx := context.Background()
	frames := (len(edges) + frame - 1) / frame
	return allocsPerFrame(frames, func() {
		cp, err := c.OpenPipe(ctx, tenant, server.PipeConfig{OnReply: func(env *wire.Envelope) {
			if env.Kind == wire.KindError {
				panic(fmt.Sprintf("bench: piped unite failed: %s", env.Error))
			}
		}})
		if err != nil {
			panic(fmt.Sprintf("bench: open pipe: %v", err))
		}
		for lo := 0; lo < len(edges); lo += frame {
			hi := min(lo+frame, len(edges))
			if _, err := cp.UniteAll(dsu.UniteRequest{Edges: edges[lo:hi]}); err != nil {
				panic(fmt.Sprintf("bench: piped unite failed: %v", err))
			}
		}
		if err := cp.Close(); err != nil {
			panic(fmt.Sprintf("bench: pipe close: %v", err))
		}
	})
}

// runE24 measures the wire fast path: the E22 frame-size grid re-run
// against the pooled, pipelined, write-coalescing path, with
// allocations per frame alongside throughput. The comparison isolates
// what the fast path buys at each frame size — small frames stop paying
// a full HTTP exchange per batch and the codec garbage disappears.
func runE24(cfg Config) error {
	header(cfg, "E24", "Wire fast path: pipelined pooled codecs vs per-RPC exchanges", "systems extension; E22 follow-up, ROADMAP wire-measurement item")
	n := 1 << 18
	if cfg.Quick {
		n = 1 << 14
	}
	m := 4 * n
	edges := engine.FromOps(workload.RandomUnions(n, m, cfg.Seed+221)) // E22's workload, for comparable rows
	frames := []int{1 << 10, 1 << 13, 1 << 16}

	newServer := func() *httptest.Server {
		reg := dsu.NewRegistry()
		if _, err := reg.Create("t0", n, dsu.WithSeed(cfg.Seed+1)); err != nil {
			panic(fmt.Sprintf("bench: tenant create: %v", err))
		}
		return httptest.NewServer(server.New(server.Config{Registry: reg}))
	}

	// Steady-state codec cost first: the microscopic claim the macro rows
	// rest on. Encode and decode of a 1K-edge unite envelope through
	// acquired codecs must not allocate at all.
	encAllocs, decAllocs := codecSteadyStateAllocs(1 << 10)
	fmt.Fprintf(cfg.Out, "Steady-state pooled binary codec, 1K-edge unite envelope: %.1f allocs/encode, %.1f allocs/decode.\n\n", encAllocs, decAllocs)

	fmt.Fprintf(cfg.Out, "### Pipelined pooled path vs per-RPC (n=%d, m=%d edges, one tenant)\n\n", n, m)
	tb := stats.NewTable("frame", "in-proc Medge/s", "rpc Medge/s", "allocs/fr", "pipe Medge/s", "allocs/fr", "pipe/rpc ×")
	for _, frame := range frames {
		local := bestOf(func() time.Duration { return inProcessIngest(n, cfg.Seed+1, edges, frame) })
		lth := mops(m, local)

		hs := newServer()
		c := server.NewClient(hs.URL, server.WithHTTPClient(hs.Client()))
		rpcElapsed, rpcAPF := remoteIngest(c, "t0", edges, frame)
		hs.Close()
		rpcTh := mops(m, rpcElapsed)

		hs = newServer()
		c = server.NewClient(hs.URL, server.WithHTTPClient(hs.Client()))
		pipeElapsed, pipeAPF := pipedIngest(c, "t0", edges, frame)
		hs.Close()
		pipeTh := mops(m, pipeElapsed)

		tb.AddRowf(frame, lth, rpcTh, rpcAPF, pipeTh, pipeAPF, ratio(pipeTh, rpcTh))
	}
	fmt.Fprint(cfg.Out, tb)
	fmt.Fprintln(cfg.Out)

	fmt.Fprintf(cfg.Out, "\nShape check: the pipe/rpc column should be largest at the smallest frame —\n")
	fmt.Fprintf(cfg.Out, "per-RPC rows pay one HTTP exchange per 1K edges while the pipe pays one per\n")
	fmt.Fprintf(cfg.Out, "connection, so pipelining should at least double 1K-frame throughput (the\n")
	fmt.Fprintf(cfg.Out, "E24 acceptance bar) and converge toward 1.0 as frames grow and encode cost\n")
	fmt.Fprintf(cfg.Out, "dominates. Pipe allocs/frame should sit far below the per-RPC figure: the\n")
	fmt.Fprintf(cfg.Out, "codecs themselves are allocation-free (the line above), leaving only\n")
	fmt.Fprintf(cfg.Out, "the dsu layer's per-batch bookkeeping.\n")
	return nil
}

// codecSteadyStateAllocs measures allocations per steady-state pooled
// binary encode and decode of an edgesPerFrame-edge unite envelope —
// the number CI pins at zero through BenchmarkWireFastPath.
func codecSteadyStateAllocs(edgesPerFrame int) (enc, dec float64) {
	edgeList := make([]dsu.Edge, edgesPerFrame)
	for i := range edgeList {
		edgeList[i] = dsu.Edge{X: uint32(i), Y: uint32(i + 1)}
	}
	env := &wire.Envelope{Kind: wire.KindUnite, Seq: 1, Unite: &dsu.UniteRequest{Edges: edgeList}}

	e := wire.AcquireEncoder(io.Discard, wire.Binary)
	defer wire.ReleaseEncoder(e)
	enc = testing.AllocsPerRun(100, func() {
		if err := e.Encode(env); err != nil {
			panic(err)
		}
	})

	var buf bytes.Buffer
	if err := wire.NewEncoder(&buf, wire.Binary).Encode(env); err != nil {
		panic(err)
	}
	data := buf.Bytes()
	r := bytes.NewReader(data)
	d := wire.AcquireDecoder(r, wire.Binary, wire.DefaultMaxFrame)
	defer wire.ReleaseDecoder(d)
	dec = testing.AllocsPerRun(100, func() {
		r.Reset(data)
		if _, err := d.Decode(); err != nil {
			panic(err)
		}
	})
	return enc, dec
}
