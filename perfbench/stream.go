package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/dsu"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// runStream is durable-stream: one client on one binary /stream
// connection pushes uniform random edges into a flat, durable tenant
// (group commit, automatic snapshots, metrics attached, as dsuserve
// -data -metrics runs it) whose parent and id arrays do not fit in L2.
// Execution on a cache-missing forest, log append and fsync, and
// snapshots do most of the work.
//
// The window is a sequence of identical rounds, each a fresh tenant fed
// RoundEdges edges, so the log a round leaves has a fixed size: recovery
// time and log bytes per edge then measure the log, not how fast the
// window happened to ingest. The producer keeps at most InFlight+1
// sealed batches unacknowledged, which keeps the server busy without
// queueing batches in socket buffers, so a batch's acknowledgement
// latency is a property of the program.
func runStream(cfg *config, tr *tracer) (*run, error) {
	sh := cfg.shape
	r := &run{}
	pushes := sh.RoundEdges / sh.Push
	perBatch := sh.Seal / sh.Push
	batches := pushes / perBatch
	r.params = fmt.Sprintf("flat n=%d, durable (group commit, snapshot every %d edges, metrics on); one /stream connection, %d-edge pushes, seal %d, in-flight %d, at most %d sealed batches unacknowledged; rounds of %d edges (%d batches) on a fresh tenant; input pool %d pushes; read probe %d one-shot /query RPCs of %d pairs on the recovered tenant",
		sh.N, sh.CheckpointEvery, sh.Push, sh.Seal, sh.InFlight, sh.InFlight+1, sh.RoundEdges, batches, sh.PoolPushes, sh.ProbeRPCs, sh.ProbePairs)

	// Inputs: a pool of pushes; push i of a round is pool push i mod
	// PoolPushes translated by the offsets of its cycle, so a round's
	// edges are uniform without the whole round held in memory.
	g := rng(cfg.seed, 2)
	pool := make([]dsu.Edge, sh.PoolPushes*sh.Push)
	uniformEdges(g, sh.N, pool)
	offsets := make([][2]uint32, (pushes+sh.PoolPushes-1)/sh.PoolPushes)
	for c := 1; c < len(offsets); c++ {
		offsets[c] = [2]uint32{uint32(g.Uint64n(uint64(sh.N))), uint32(g.Uint64n(uint64(sh.N)))}
	}
	mask := uint32(sh.N - 1)
	fill := func(i int, dst []dsu.Edge) {
		src := pool[(i%sh.PoolPushes)*sh.Push:][:sh.Push]
		off := offsets[i/sh.PoolPushes]
		for j, e := range src {
			dst[j] = dsu.Edge{X: (e.X + off[0]) & mask, Y: (e.Y + off[1]) & mask}
		}
	}
	batchEdges := func(b int, dst []dsu.Edge) []dsu.Edge {
		dst = dst[:sh.Seal]
		for k := 0; k < perBatch; k++ {
			fill((b-1)*perBatch+k, dst[k*sh.Push:(k+1)*sh.Push])
		}
		return dst
	}
	probe := probePool(cfg.seed, sh)
	seed := tenantSeed(cfg.seed)
	opts := []dsu.Option{dsu.WithSeed(seed)}

	root, err := os.MkdirTemp(cfg.dir, "stream-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	registry := func(dir string) (*dsu.Registry, *dsu.Metrics) {
		m := dsu.NewMetrics()
		return dsu.NewRegistry(dsu.WithMetrics(m), dsu.WithDurability(dir,
			dsu.WithSyncPolicy(dsu.SyncGroup), dsu.WithCheckpointEvery(sh.CheckpointEvery))), m
	}

	ss := &streamState{
		tokens:  make(chan struct{}, sh.InFlight+1),
		sealed:  make([]atomic.Int64, batches+1),
		acked:   make([]bool, batches+1),
		seal:    sh.Seal,
		aborted: make(chan struct{}),
		tr:      tr,
	}
	var st *stack
	var cs *server.ClientStream
	var logDir string
	open := func(tenant string) error {
		var err error
		cs, err = st.c.OpenStream(context.Background(), tenant, server.StreamConfig{
			Buffer: sh.Seal, InFlight: sh.InFlight, OnReply: ss.onReply})
		return err
	}
	for i := 0; i < sh.Setups; i++ {
		if st != nil {
			_, cerr := cs.Close()
			if err := discard(st, cerr); err != nil {
				return nil, err
			}
		}
		logDir = filepath.Join(root, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		reg, m := registry(logDir)
		u, err := reg.Create("stream-0", sh.N, opts...)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		// Nothing to preload; the empty batch takes the same path (and is
		// not logged).
		if _, err := u.UniteAll(dsu.UniteRequest{}); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if st, err = serve(reg, m); err != nil {
			return nil, err
		}
		if err := open("stream-0"); err != nil {
			st.close()
			return nil, fmt.Errorf("open stream: %w", err)
		}
		t3 := time.Now()
		r.setups = append(r.setups, t3.Sub(t0))
		r.phases = append(r.phases, [3]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)})
		tr.setup(t0, t1, t2, t3)
	}

	scratch := make([]dsu.Edge, sh.Push)
	var ingest time.Duration
	var mergedOK []int64 // Σ Merged of each round without failures
	round := 0
	var runErr error
	window(r, func() time.Duration {
		for round = 0; ingest < cfg.window || round == 0; round++ {
			tenant := fmt.Sprintf("stream-%d", round)
			ss.startRound(round)
			if round > 0 {
				// A fresh tenant per round; the previous one is sealed and
				// its log deleted. Not timed.
				prev := fmt.Sprintf("stream-%d", round-1)
				st.reg.Drop(prev)
				os.Remove(filepath.Join(logDir, prev+".dsulog"))
				settle()
				if _, err := st.reg.Create(tenant, sh.N, opts...); err != nil {
					runErr = err
					return ingest
				}
				if err := open(tenant); err != nil {
					runErr = fmt.Errorf("open stream: %w", err)
					return ingest
				}
			}
			start, from := time.Now(), stamp()
			for i := 0; i < pushes; i++ {
				b := (i + 1) / perBatch
				sealing := (i+1)%perBatch == 0
				if sealing {
					if err := ss.acquire(); err != nil {
						runErr = err
						break
					}
				}
				fill(i, scratch)
				if sealing {
					ss.sealed[b].Store(stamp())
					ss.attempted.Add(1)
				}
				if err := cs.Push(scratch...); err != nil {
					runErr = fmt.Errorf("stream push: %w", err)
					break
				}
			}
			end, err := cs.Close()
			ingest += time.Since(start)
			r.slices = append(r.slices, interval{from, stamp()})
			if err != nil {
				// Every lost batch has already failed through its error
				// envelope; the end envelope only confirms the count.
				runErr = fmt.Errorf("stream close: %w (%d batches lost)", err, endFailed(end))
			}
			if ss.roundFailed.Load() == 0 && runErr == nil {
				mergedOK = append(mergedOK, ss.roundMerged)
			}
			if runErr != nil {
				round++
				return ingest
			}
		}
		return ingest
	})
	r.attempted, r.failed = ss.attempted.Load(), ss.failed.Load()
	r.ops = ss.ops.Load()
	r.unite = ss.lat
	r.agg = ss.agg
	r.rounds = round
	if runErr != nil {
		st.close()
		return r, runErr
	}

	// Crash image: the last round's log as a kill -9 would leave it (every
	// acknowledged batch is already fsynced). Then seal the live log.
	last := fmt.Sprintf("stream-%d", round-1)
	crashDir := filepath.Join(root, "crash")
	if err := os.MkdirAll(crashDir, 0o755); err != nil {
		return r, err
	}
	if err := copyFile(filepath.Join(logDir, last+".dsulog"), filepath.Join(crashDir, last+".dsulog")); err != nil {
		return r, err
	}
	if err := st.close(); err != nil {
		return r, err
	}
	sealed := filepath.Join(logDir, last+".dsulog")
	shape, err := readLogShape(sealed, filepath.Join(crashDir, last+".dsulog"))
	if err != nil {
		return r, err
	}
	r.log = shape

	// Recovery: a fresh registry over the crash image, until the recovered
	// tenant answers through the front end.
	t0 := time.Now()
	reg, m := registry(crashDir)
	if _, err := reg.RestoreTenants(); err != nil {
		return r, fmt.Errorf("recovery: %w", err)
	}
	rst, err := serve(reg, m)
	if err != nil {
		return r, err
	}
	defer rst.close()
	if _, err := rst.c.SameSetAll(context.Background(), last, dsu.QueryRequest{Pairs: []dsu.Edge{{X: 0, Y: 1}}}); err != nil {
		return r, fmt.Errorf("recovered tenant does not serve: %w", err)
	}
	r.recovery = time.Since(t0)

	// Oracle: the last round's acknowledged batches. Every round pushes
	// the same edges, so a round without failures must merge exactly as
	// many sets as the full round does.
	o := newOracle(sh.N)
	buf := make([]dsu.Edge, sh.Seal)
	for b := 1; b <= batches; b++ {
		if ss.acked[b] {
			o.unite(batchEdges(b, buf))
		}
	}
	want := o.labels()
	if err := checkServedLabels(cfg, rst, last, want); err != nil {
		return r, err
	}
	if err := probeQueries(cfg, rst, last, probe, want, r, tr, round-1); err != nil {
		return r, err
	}
	if ss.roundFailed.Load() == 0 {
		for _, got := range mergedOK {
			if err := checkMerged("durable-stream round", got, int64(sh.N-o.sets())); err != nil {
				return r, err
			}
		}
	}
	if tr != nil {
		tr.replay = &replaySpec{
			clients: 1,
			durable: true,
			build: func() (*dsu.Universe, error) {
				return dsu.NewRegistry().Create("stream-replay", sh.N, opts...)
			},
			input: func(b *batchRec, dst []dsu.Edge) []dsu.Edge {
				if b.query {
					return probe[b.ref]
				}
				return batchEdges(b.ref, dst)
			},
			maxItems: sh.Seal,
			opts:     opts,
		}
	}
	return r, nil
}

// streamState is the stream's producer/reply-reader shared state. The
// reader goroutine writes lat, agg, acked and roundMerged; the producer
// reads them after ClientStream.Close, which waits for the reader.
type streamState struct {
	tokens      chan struct{}  // one per unacknowledged sealed batch
	sealed      []atomic.Int64 // client time of each batch's sealing push
	attempted   atomic.Int64
	failed      atomic.Int64
	roundFailed atomic.Int64
	ops         atomic.Int64
	round       int
	seal        int
	aborted     chan struct{} // closed on an unnumbered error: the server ended the stream
	abortOnce   sync.Once

	lat         []sample
	agg         replyAgg
	acked       []bool
	roundMerged int64
	tr          *tracer
}

func (ss *streamState) startRound(round int) {
	ss.round = round
	ss.roundMerged = 0
	ss.roundFailed.Store(0)
	for i := range ss.acked {
		ss.acked[i] = false
	}
}

func (ss *streamState) onReply(env *wire.Envelope) {
	now := stamp()
	b := int(env.Seq)
	if b <= 0 || b >= len(ss.acked) {
		// An unnumbered error: the server ended the stream, and the end
		// envelope reports what was lost.
		ss.abortOnce.Do(func() { close(ss.aborted) })
		return
	}
	sealed := ss.sealed[b].Load()
	<-ss.tokens
	if env.Kind != wire.KindReply {
		ss.failed.Add(1)
		ss.roundFailed.Add(1)
		return
	}
	items := ss.seal
	ss.acked[b] = true
	ss.roundMerged += env.Reply.Merged
	ss.ops.Add(int64(items))
	ss.lat = append(ss.lat, sample{now, time.Duration(now - sealed), items})
	ss.agg.add(false, items, env.Reply)
	ss.tr.batch(batchRec{epoch: ss.round, ref: b, items: items, start: sealed, end: now, reply: stripAnswers(env.Reply)})
}

func endFailed(end *wire.StreamEnd) uint64 {
	if end == nil {
		return 0
	}
	return end.Failed
}

// acquire takes an unacknowledged-batch slot.
func (ss *streamState) acquire() error {
	select {
	case ss.tokens <- struct{}{}:
		return nil
	case <-ss.aborted:
		return fmt.Errorf("stream aborted by the server")
	case <-time.After(time.Minute):
		return fmt.Errorf("stream stalled: no reply for a minute")
	}
}

// copyFile copies a log byte for byte.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// logShape is what one tenant log holds.
type logShape struct {
	bytes      int64 // sealed file size
	edges      int64 // logged edges
	batches    int64 // logged batches
	chunks     int64 // chunk records: one fsync each under group commit
	snapshots  int64
	snapBytes  int64 // bytes in snapshot records
	tailEdges  int64 // edges past the latest snapshot in the crash image: what recovery replays
	crashBytes int64
}

// readLogShape reads the sealed log's index and the crash image's tail.
func readLogShape(sealed, crash string) (logShape, error) {
	rd, err := wal.OpenReader(sealed)
	if err != nil {
		return logShape{}, err
	}
	st, err := os.Stat(sealed)
	if err != nil {
		return logShape{}, err
	}
	s := logShape{bytes: st.Size(), chunks: int64(len(rd.Chunks())), snapshots: int64(len(rd.Snapshots()))}
	for _, c := range rd.Chunks() {
		s.edges += int64(c.Edges)
		s.batches += int64(c.LastSeq - c.FirstSeq + 1)
	}
	// A snapshot record runs from its offset to the next record's.
	for _, sn := range rd.Snapshots() {
		next := rd.DataEnd()
		for _, c := range rd.Chunks() {
			if c.Offset > sn.Offset && c.Offset < next {
				next = c.Offset
			}
		}
		for _, o := range rd.Snapshots() {
			if o.Offset > sn.Offset && o.Offset < next {
				next = o.Offset
			}
		}
		s.snapBytes += next - sn.Offset
	}
	crd, err := wal.OpenReader(crash)
	if err != nil {
		return logShape{}, err
	}
	var snapSeq uint64
	if sn := crd.Snapshots(); len(sn) > 0 {
		snapSeq = sn[len(sn)-1].Seq
	}
	for _, c := range crd.Chunks() {
		if c.LastSeq > snapSeq {
			s.tailEdges += int64(c.Edges)
		}
	}
	if cst, err := os.Stat(crash); err == nil {
		s.crashBytes = cst.Size()
	}
	return s, nil
}
