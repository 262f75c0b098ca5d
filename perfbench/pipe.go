package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/dsu"
	"repro/internal/server"
	"repro/internal/wire"
)

// runPipe is pipe-ingest: one client on one binary /pipe connection
// sends unite frames of uniform random edges, at most Outstanding
// unanswered, into a flat, non-durable, uninstrumented tenant. The forest
// is cache-resident and fully merged after the warm-up, so per-frame work
// (codecs, the pipe serve loop, FlushWriter, executor bookkeeping)
// dominates.
func runPipe(cfg *config, tr *tracer) (*run, error) {
	sh := cfg.shape
	r := &run{}
	r.params = fmt.Sprintf("flat n=%d, not durable; one /pipe connection, %d-edge unite frames, %d outstanding; input pool %d frames; read probe %d one-shot /query RPCs of %d pairs",
		sh.N, sh.Frame, sh.Outstanding, sh.PoolFrames, sh.ProbeRPCs, sh.ProbePairs)

	g := rng(cfg.seed, 1)
	pool := make([][]dsu.Edge, sh.PoolFrames)
	for i := range pool {
		pool[i] = make([]dsu.Edge, sh.Frame)
		uniformEdges(g, sh.N, pool[i])
	}
	probe := probePool(cfg.seed, sh)
	seed := tenantSeed(cfg.seed)
	opts := []dsu.Option{dsu.WithSeed(seed)}

	ps := &pipeState{
		tokens: make(chan struct{}, sh.Outstanding),
		sent:   make([]atomic.Int64, sh.Outstanding),
		acked:  make([]bool, sh.PoolFrames),
		frame:  sh.Frame,
		tr:     tr,
	}
	var st *stack
	var cp *server.ClientPipe
	for i := 0; i < sh.Setups; i++ {
		if st != nil {
			if err := discard(st, cp.Close()); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		reg := dsu.NewRegistry()
		u, err := reg.Create("pipe", sh.N, opts...)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		// This workload preloads nothing; the empty preload batch still
		// takes the set-up path the preloading workload takes.
		if _, err := u.UniteAll(dsu.UniteRequest{}); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if st, err = serve(reg, nil); err != nil {
			return nil, err
		}
		if cp, err = st.c.OpenPipe(context.Background(), "pipe", server.PipeConfig{OnReply: ps.onReply}); err != nil {
			st.close()
			return nil, fmt.Errorf("open pipe: %w", err)
		}
		t3 := time.Now()
		r.setups = append(r.setups, t3.Sub(t0))
		r.phases = append(r.phases, [3]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)})
		tr.setup(t0, t1, t2, t3)
	}
	defer st.close()

	next := 0
	send := func(deadline time.Time) error {
		for time.Now().Before(deadline) {
			if err := ps.acquire(); err != nil {
				return err
			}
			slot := next % sh.Outstanding
			ps.sent[slot].Store(stamp())
			if _, err := cp.UniteAll(dsu.UniteRequest{Edges: pool[next%sh.PoolFrames]}); err != nil {
				ps.failed.Add(1)
				<-ps.tokens
				return fmt.Errorf("pipe send: %w", err)
			}
			ps.attempted.Add(1)
			next++
		}
		return nil
	}
	drain := func() error {
		for i := 0; i < sh.Outstanding; i++ {
			if err := ps.acquire(); err != nil {
				return err
			}
		}
		for i := 0; i < sh.Outstanding; i++ {
			<-ps.tokens
		}
		return nil
	}

	sendErr := send(time.Now().Add(sh.Warmup))
	if sendErr == nil {
		sendErr = drain()
	}
	ps.reset()
	window(r, func() time.Duration {
		start, from := time.Now(), stamp()
		if sendErr == nil {
			sendErr = send(start.Add(cfg.window))
		}
		if sendErr == nil {
			sendErr = drain()
		}
		r.slices = evenSlices(from, stamp(), slicesPerWindow)
		return time.Since(start)
	})
	if err := cp.Close(); err != nil && sendErr == nil {
		sendErr = err
	}
	r.attempted, r.failed = ps.attempted.Load(), ps.failed.Load()
	r.ops = ps.ops.Load()
	r.unite = ps.lat
	r.agg = ps.agg
	if sendErr != nil {
		fmt.Printf("pipe-ingest: transport failure ended the window early: %v\n", sendErr)
	}

	// Oracle: every acknowledged pool frame, each applied once (re-uniting
	// an edge is idempotent).
	o := newOracle(sh.N)
	for i, ok := range ps.acked {
		if ok {
			o.unite(pool[i])
		}
	}
	want := o.labels()
	if err := probeQueries(cfg, st, "pipe", probe, want, r, tr, 0); err != nil {
		return r, err
	}
	if err := checkMerged("pipe-ingest", ps.mergedAll, int64(sh.N-o.sets())); err != nil {
		return r, err
	}
	if err := checkServedLabels(cfg, st, "pipe", want); err != nil {
		return r, err
	}
	if tr != nil {
		tr.replay = &replaySpec{
			clients: 1,
			build: func() (*dsu.Universe, error) {
				return dsu.NewRegistry().Create("pipe-replay", sh.N, opts...)
			},
			input: func(b *batchRec, _ []dsu.Edge) []dsu.Edge {
				if b.query {
					return probe[b.ref]
				}
				return pool[b.ref]
			},
			maxItems: sh.Frame,
			opts:     opts,
		}
	}
	return r, nil
}

// pipeState is the pipe's producer/reply-reader shared state. The reader
// goroutine writes lat, agg, acked and mergedAll; the producer reads them
// only after a drain or Close, which orders the accesses.
type pipeState struct {
	tokens    chan struct{}  // one per outstanding frame
	sent      []atomic.Int64 // send time per outstanding slot, tracer clock
	frame     int
	measuring atomic.Bool
	attempted atomic.Int64
	failed    atomic.Int64
	ops       atomic.Int64

	lat       []sample
	agg       replyAgg
	acked     []bool
	mergedAll int64 // Σ Merged over every acknowledged frame, warm-up included
	tr        *tracer
}

// reset starts the measured window: counters and samples so far belong
// to the warm-up.
func (ps *pipeState) reset() {
	ps.attempted.Store(0)
	ps.failed.Store(0)
	ps.ops.Store(0)
	ps.lat = ps.lat[:0]
	ps.agg = replyAgg{}
	ps.measuring.Store(true)
}

// acquire takes an outstanding-frame slot; a pipe that stops answering
// for a minute has failed.
func (ps *pipeState) acquire() error {
	select {
	case ps.tokens <- struct{}{}:
		return nil
	case <-time.After(time.Minute):
		return fmt.Errorf("pipe stalled: no reply for a minute")
	}
}

func (ps *pipeState) onReply(env *wire.Envelope) {
	now := stamp()
	if env.Seq == 0 {
		// An unnumbered error: the server ended the pipe. The frames it
		// never answered fail the drain.
		ps.failed.Add(1)
		return
	}
	n := len(ps.sent)
	slot := int((env.Seq - 1) % uint64(n))
	sent := ps.sent[slot].Load()
	defer func() { <-ps.tokens }()
	if env.Kind != wire.KindReply {
		ps.failed.Add(1)
		return
	}
	pool := len(ps.acked)
	ref := int((env.Seq - 1) % uint64(pool))
	ps.acked[ref] = true
	ps.mergedAll += env.Reply.Merged
	if !ps.measuring.Load() {
		return
	}
	ps.ops.Add(int64(ps.frame))
	ps.lat = append(ps.lat, sample{now, time.Duration(now - sent), ps.frame})
	ps.agg.add(false, ps.frame, env.Reply)
	ps.tr.batch(batchRec{ref: ref, items: ps.frame, start: sent, end: now, reply: stripAnswers(env.Reply)})
}
