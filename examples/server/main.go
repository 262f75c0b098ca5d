// Example server: a remote client of cmd/dsuserve that proves the wire path
// end to end. It creates three isolated tenants — "alpha" with the
// defaults, "beta" under the older find name "auto" and "gamma" under the
// older "lockfree" kind name, both of which build alpha's structure —
// ingests a random edge batch into alpha over a streaming connection
// (per-batch replies), into beta over batch RPC (one /unite exchange per
// 8K-edge frame), and into gamma over a pipelined connection (every reply
// checked), all in the binary framing, queries all three remotely, and
// validates every answer and every final partition against in-process
// oracles built from the same edges. Run it against a live server:
//
//	go run ./cmd/dsuserve -addr 127.0.0.1:7421 &
//	go run ./examples/server -addr http://127.0.0.1:7421 -n 20000 -m 60000
//
// It waits for the server's health endpoint, so starting both
// back-to-back (as CI does) is fine. Exit status 0 means every remote
// answer matched the oracle.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"reflect"
	"time"

	"repro/dsu"
	"repro/internal/server"
	"repro/internal/wire"
)

func main() {
	var (
		addr    = flag.String("addr", "http://127.0.0.1:7421", "dsuserve base URL")
		n       = flag.Int("n", 20000, "elements per tenant")
		m       = flag.Int("m", 60000, "edges per tenant")
		seed    = flag.Int64("seed", 42, "edge-generation seed")
		buffer  = flag.Int("buffer", 4096, "stream buffer (edges)")
		wait    = flag.Duration("wait", 10*time.Second, "how long to wait for the server to come up")
		queries = flag.Int("queries", 5000, "remote connectivity queries to validate per tenant")
	)
	flag.Parse()
	log.SetFlags(0)
	ctx := context.Background()

	c := server.NewClient(*addr)
	deadline := time.Now().Add(*wait)
	for {
		if err := c.Health(ctx); err == nil {
			break
		} else if time.Now().After(deadline) {
			log.Fatalf("server at %s not healthy after %v: %v", *addr, *wait, err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	rng := rand.New(rand.NewSource(*seed))
	edges := func() []dsu.Edge {
		out := make([]dsu.Edge, *m)
		for i := range out {
			out[i] = dsu.Edge{X: uint32(rng.Intn(*n)), Y: uint32(rng.Intn(*n))}
		}
		return out
	}
	alphaEdges, betaEdges, gammaEdges := edges(), edges(), edges()

	// Three isolated tenants, three configurations, one API.
	for _, spec := range []server.TenantSpec{
		{Name: "alpha", N: *n},
		{Name: "beta", N: *n, Find: "auto"},
		{Name: "gamma", N: *n, Kind: "lockfree"},
	} {
		info, err := c.CreateTenant(ctx, spec)
		if err != nil {
			log.Fatalf("create %s: %v", spec.Name, err)
		}
		log.Printf("tenant %-5s  n=%d", info.Name, info.N)
	}

	// Alpha: streaming ingest, watching per-batch replies arrive as the
	// server executes.
	var batches int
	cs, err := c.OpenStream(ctx, "alpha", server.StreamConfig{Buffer: *buffer, InFlight: 2, OnReply: func(env *wire.Envelope) {
		if env.Kind == wire.KindReply {
			batches++
		} else {
			log.Fatalf("stream batch %d failed: %s", env.Seq, env.Error)
		}
	}})
	if err != nil {
		log.Fatalf("open stream: %v", err)
	}
	start := time.Now()
	const chunk = 1000
	for i := 0; i < len(alphaEdges); i += chunk {
		hi := i + chunk
		if hi > len(alphaEdges) {
			hi = len(alphaEdges)
		}
		if err := cs.Push(alphaEdges[i:hi]...); err != nil {
			log.Fatalf("push: %v", err)
		}
	}
	end, err := cs.Close()
	if err != nil {
		log.Fatalf("stream close: %v", err)
	}
	log.Printf("alpha  stream: %d edges in %d batches, %d merged, %v (%d replies seen)",
		end.Edges, end.Batches, end.Merged, time.Since(start).Round(time.Millisecond), batches)

	// Beta: batch RPC, one request/reply exchange per frame.
	start = time.Now()
	var betaMerged int64
	for i := 0; i < len(betaEdges); i += 8192 {
		hi := i + 8192
		if hi > len(betaEdges) {
			hi = len(betaEdges)
		}
		rep, err := c.UniteAll(ctx, "beta", dsu.UniteRequest{Edges: betaEdges[i:hi]})
		if err != nil {
			log.Fatalf("beta unite: %v", err)
		}
		betaMerged += rep.Merged
	}
	log.Printf("beta   rpc: %d edges, %d merged, %v", len(betaEdges), betaMerged, time.Since(start).Round(time.Millisecond))

	// Oracles: the same edges through the in-process API.
	alphaOracle := dsu.New(*n)
	alphaOracle.UniteAll(alphaEdges)
	betaOracle := dsu.New(*n)
	betaOracle.UniteAll(betaEdges)

	fail := 0
	check := func(name string, ok bool, msg string) {
		if !ok {
			fail++
			log.Printf("MISMATCH %s: %s", name, msg)
		}
	}

	// Gamma: one pipelined connection. The oracle runs the same unite
	// batches in the same order first, so each reply's merge count is
	// known before it arrives; a final query batch rides the same pipe.
	// Replies arrive in request order on the pipe's reader goroutine, each
	// echoing its request's sequence number.
	gammaOracle := dsu.New(*n)
	type expect struct {
		merged  int
		answers []bool // non-nil for the query batch
	}
	var want []expect
	for i := 0; i < len(gammaEdges); i += chunk {
		want = append(want, expect{merged: gammaOracle.UniteAll(gammaEdges[i:min(i+chunk, len(gammaEdges))])})
	}
	gammaPairs := make([]dsu.Edge, *queries)
	for i := range gammaPairs {
		gammaPairs[i] = dsu.Edge{X: uint32(rng.Intn(*n)), Y: uint32(rng.Intn(*n))}
	}
	want = append(want, expect{answers: gammaOracle.SameSetAll(gammaPairs)})
	replies, gammaBad := 0, 0
	cp, err := c.OpenPipe(ctx, "gamma", server.PipeConfig{OnReply: func(env *wire.Envelope) {
		replies++
		seq := uint64(replies)
		switch {
		case env.Kind != wire.KindReply:
			log.Printf("MISMATCH gamma: request %d answered %v: %s", env.Seq, env.Kind, env.Error)
		case env.Seq != seq || int(seq) > len(want):
			log.Printf("MISMATCH gamma: reply %d echoes request %d", seq, env.Seq)
		case want[seq-1].answers != nil && !reflect.DeepEqual(env.Reply.Answers, want[seq-1].answers):
			log.Printf("MISMATCH gamma: piped query answers differ from in-process oracle")
		case want[seq-1].answers == nil && int(env.Reply.Merged) != want[seq-1].merged:
			log.Printf("MISMATCH gamma: batch %d merged %d, oracle %d", seq, env.Reply.Merged, want[seq-1].merged)
		default:
			return
		}
		gammaBad++
	}})
	if err != nil {
		log.Fatalf("open pipe: %v", err)
	}
	start = time.Now()
	for i := 0; i < len(gammaEdges); i += chunk {
		if _, err := cp.UniteAll(dsu.UniteRequest{Edges: gammaEdges[i:min(i+chunk, len(gammaEdges))]}); err != nil {
			log.Fatalf("gamma unite: %v", err)
		}
	}
	if _, err := cp.SameSetAll(dsu.QueryRequest{Pairs: gammaPairs}); err != nil {
		log.Fatalf("gamma query: %v", err)
	}
	if err := cp.Close(); err != nil {
		log.Fatalf("pipe close: %v", err)
	}
	check("gamma", gammaBad == 0 && replies == len(want),
		fmt.Sprintf("%d piped replies wrong; %d of %d requests answered", gammaBad, replies, len(want)))
	log.Printf("gamma  pipe: %d edges + %d pairs in %d requests, %d replies, %v",
		len(gammaEdges), len(gammaPairs), len(want), replies, time.Since(start).Round(time.Millisecond))

	// Remote query batches vs oracle answers.
	for _, tc := range []struct {
		name   string
		edges  []dsu.Edge
		oracle *dsu.DSU
	}{
		{"alpha", alphaEdges, alphaOracle},
		{"beta", betaEdges, betaOracle},
		{"gamma", gammaEdges, gammaOracle},
	} {
		pairs := make([]dsu.Edge, *queries)
		for i := range pairs {
			pairs[i] = dsu.Edge{X: uint32(rng.Intn(*n)), Y: uint32(rng.Intn(*n))}
		}
		rep, err := c.SameSetAll(ctx, tc.name, dsu.QueryRequest{Pairs: pairs})
		if err != nil {
			log.Fatalf("%s query: %v", tc.name, err)
		}
		check(tc.name, reflect.DeepEqual(rep.Answers, tc.oracle.SameSetAll(pairs)), "remote answers differ from in-process oracle")
		check(tc.name, rep.Find == dsu.TwoTrySplitting, fmt.Sprintf("remote query ran %v finds, want twotry", rep.Find))

		labels, err := c.Labels(ctx, tc.name)
		if err != nil {
			log.Fatalf("%s labels: %v", tc.name, err)
		}
		check(tc.name, reflect.DeepEqual(labels, tc.oracle.CanonicalLabels()), "remote partition differs from in-process oracle")

		info, err := c.Tenant(ctx, tc.name)
		if err != nil {
			log.Fatalf("%s info: %v", tc.name, err)
		}
		check(tc.name, info.Sets == tc.oracle.Sets(), fmt.Sprintf("remote sets %d, oracle %d", info.Sets, tc.oracle.Sets()))
		log.Printf("%-6s validated: %d sets, %d remote queries ≡ oracle", tc.name, info.Sets, *queries)
	}

	if fail > 0 {
		log.Printf("FAILED: %d mismatches", fail)
		os.Exit(1)
	}
	log.Printf("OK: all three tenants match their in-process oracles over the wire")
}
