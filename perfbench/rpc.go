package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/dsu"
	"repro/internal/randutil"
)

// runRPC is rpc-mixed: Clients closed-loop clients, one connection each,
// send one-shot /query (QueryFrac of calls) and /unite RPCs of Pairs
// Zipf-distributed pairs to a lock-free tenant with the adaptive find
// policy, preloaded with n uniform unions. This is the paper's regime:
// concurrent callers on the lock-free backend, hot keys, reads
// dominating writes.
func runRPC(cfg *config, tr *tracer) (*run, error) {
	sh := cfg.shape
	r := &run{}
	r.params = fmt.Sprintf("lock-free n=%d, find=auto, not durable, preloaded with %d uniform unions; %d closed-loop clients, one connection each; one-shot RPCs of %d pairs, %.0f%% /query and %.0f%% /unite; pairs Zipf(s=%.2f) over element ids; input pool %d query and %d unite batches",
		sh.N, sh.Preload, sh.Clients, sh.Pairs, 100*sh.QueryFrac, 100*(1-sh.QueryFrac), sh.Skew, sh.PoolBatches, sh.PoolBatches)

	// The preload is regenerated from the seed when needed rather than held
	// through the window, so the window's resident set is the program's.
	genPreload := func() []dsu.Edge {
		p := make([]dsu.Edge, sh.Preload)
		uniformEdges(rng(cfg.seed, 4), sh.N, p)
		return p
	}
	preload := genPreload()
	g := rng(cfg.seed, 3)
	z := rand.NewZipf(rand.New(rand.NewSource(int64(g.Next()>>1))), sh.Skew, 1, uint64(sh.N-1))
	zipfPool := func() [][]dsu.Edge {
		p := make([][]dsu.Edge, sh.PoolBatches)
		for i := range p {
			p[i] = make([]dsu.Edge, sh.Pairs)
			for j := range p[i] {
				p[i][j] = dsu.Edge{X: uint32(z.Uint64()), Y: uint32(z.Uint64())}
			}
		}
		return p
	}
	queries, unites := zipfPool(), zipfPool()
	seed := tenantSeed(cfg.seed)
	opts := []dsu.Option{dsu.WithKind(dsu.KindLockFree), dsu.WithAdaptiveFind(), dsu.WithSeed(seed)}
	build := func() (*dsu.Universe, error) {
		u, err := dsu.NewRegistry().Create("rpc-replay", sh.N, opts...)
		if err != nil {
			return nil, err
		}
		_, err = u.UniteAll(dsu.UniteRequest{Edges: genPreload()})
		return u, err
	}

	var st *stack
	for i := 0; i < sh.Setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		reg := dsu.NewRegistry()
		u, err := reg.Create("rpc", sh.N, opts...)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := u.UniteAll(dsu.UniteRequest{Edges: preload}); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if st, err = serve(reg, nil); err != nil {
			return nil, err
		}
		// Open one connection per client.
		var wg sync.WaitGroup
		errs := make([]error, sh.Clients)
		for c := 0; c < sh.Clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				errs[c] = st.c.Health(context.Background())
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				st.close()
				return nil, fmt.Errorf("open connection: %w", err)
			}
		}
		t3 := time.Now()
		r.setups = append(r.setups, t3.Sub(t0))
		r.phases = append(r.phases, [3]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)})
		tr.setup(t0, t1, t2, t3)
	}
	defer st.close()
	preload = nil

	clients := make([]*rpcClient, sh.Clients)
	for c := range clients {
		clients[c] = &rpcClient{id: c, g: rng(cfg.seed, 100+uint64(c)), unitesAcked: make([]bool, sh.PoolBatches)}
	}
	phase := func(d time.Duration, measured bool) {
		var wg sync.WaitGroup
		deadline := time.Now().Add(d)
		for _, c := range clients {
			wg.Add(1)
			go func(c *rpcClient) {
				defer wg.Done()
				c.loop(st, tr, sh, queries, unites, deadline, measured)
			}(c)
		}
		wg.Wait()
	}
	phase(sh.Warmup, false)
	window(r, func() time.Duration {
		start, from := time.Now(), stamp()
		phase(cfg.window, true)
		r.slices = evenSlices(from, stamp(), slicesPerWindow)
		return time.Since(start)
	})
	for _, c := range clients {
		r.attempted += c.attempted
		r.failed += c.failed
		r.ops += c.ops
		r.unite = append(r.unite, c.uniteLat...)
		r.query = append(r.query, c.queryLat...)
		r.agg.merge(&c.agg)
	}

	// Oracle: the preloaded partition bounds every answer from below, the
	// final one (preload plus every acknowledged unite batch) from above.
	o := newOracle(sh.N)
	o.unite(genPreload())
	before, setsBefore := o.labels(), o.sets()
	var merged int64
	for _, c := range clients {
		merged += c.mergedAll
		for i, ok := range c.unitesAcked {
			if ok {
				o.unite(unites[i])
			}
		}
	}
	after := o.labels()
	for _, c := range clients {
		for k, a := range c.answers {
			if cfg.corrupt == "answer" && k == 0 {
				a.bits[0] ^= 1
			}
			if err := checkBounded(fmt.Sprintf("rpc-mixed client %d query %d", c.id, k), queries[a.ref], a.bits, before, after); err != nil {
				return r, err
			}
		}
	}
	if err := checkMerged("rpc-mixed unites", merged, int64(setsBefore-o.sets())); err != nil {
		return r, err
	}
	if err := checkServedLabels(cfg, st, "rpc", after); err != nil {
		return r, err
	}
	if tr != nil {
		tr.replay = &replaySpec{
			clients:  sh.Clients,
			lockfree: true,
			build:    build,
			input: func(b *batchRec, _ []dsu.Edge) []dsu.Edge {
				if b.query {
					return queries[b.ref]
				}
				return unites[b.ref]
			},
			maxItems: sh.Pairs,
			opts:     opts,
		}
	}
	return r, nil
}

// rpcClient is one closed-loop caller; its state is its own goroutine's
// until the phase's WaitGroup returns.
type rpcClient struct {
	id                int
	g                 *randutil.Xoshiro256
	attempted, failed int64
	ops               int64
	uniteLat          []sample
	queryLat          []sample
	agg               replyAgg
	mergedAll         int64
	unitesAcked       []bool
	answers           []answered
}

type answered struct {
	ref  int
	bits bits
}

func (c *rpcClient) loop(st *stack, tr *tracer, sh shape, queries, unites [][]dsu.Edge, deadline time.Time, measured bool) {
	ctx := context.Background()
	for time.Now().Before(deadline) {
		query := c.g.Float64() < sh.QueryFrac
		ref := c.g.Intn(sh.PoolBatches)
		start := stamp()
		t0 := time.Now()
		var rep dsu.BatchReply
		var err error
		if query {
			rep, err = st.c.SameSetAll(ctx, "rpc", dsu.QueryRequest{Pairs: queries[ref]})
		} else {
			rep, err = st.c.UniteAll(ctx, "rpc", dsu.UniteRequest{Edges: unites[ref]})
		}
		d := time.Since(t0)
		if measured {
			c.attempted++
		}
		if err != nil {
			if measured {
				c.failed++
			}
			continue
		}
		if query {
			c.answers = append(c.answers, answered{ref, packAnswers(rep.Answers)})
		} else {
			c.unitesAcked[ref] = true
			c.mergedAll += rep.Merged
		}
		if !measured {
			continue
		}
		c.ops += int64(sh.Pairs)
		if query {
			c.queryLat = append(c.queryLat, sample{stamp(), d, sh.Pairs})
		} else {
			c.uniteLat = append(c.uniteLat, sample{stamp(), d, sh.Pairs})
		}
		c.agg.add(query, sh.Pairs, &rep)
		tr.batch(batchRec{client: c.id, query: query, ref: ref, items: sh.Pairs, start: start, end: stamp(), reply: stripAnswers(&rep)})
	}
}
