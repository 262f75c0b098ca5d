package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/dsu"
	"repro/internal/wal"
	"repro/internal/wire"
)

// clock is the benchmark's time base: span and latency stamps are
// nanoseconds since process start.
var clock = time.Now()

func stamp() int64 { return int64(time.Since(clock)) }

// span is one recorded interval. Spans of one client batch share its
// batch id; replay spans name the batch's root span as parent.
type span struct {
	Name   string `json:"name"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Batch  uint64 `json:"batch"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// batchRec is one acknowledged client batch of a traced window: enough
// to replay it through each layer and to attribute its time.
type batchRec struct {
	id         uint64
	root       uint32 // the batch's root span
	client     int
	epoch      int // tenant generation the batch ran on (durable-stream rounds)
	query      bool
	ref        int // workload-specific reference to the batch's input
	items      int
	start, end int64
	reply      dsu.BatchReply
}

// replaySpec is what a workload hands the per-layer passes.
type replaySpec struct {
	clients  int  // replay concurrency: one goroutine per client
	durable  bool // the served tenant logs its unite batches
	lockfree bool // the served tenant is the lock-free kind
	build    func() (*dsu.Universe, error)
	input    func(b *batchRec, dst []dsu.Edge) []dsu.Edge
	maxItems int
	opts     []dsu.Option
}

// tracer keeps spans in memory; it is written out when the run ends.
// A nil tracer records nothing.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	batches []batchRec
	replay  *replaySpec
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) addLocked(name string, batch uint64, parent uint32, start, end int64) uint32 {
	id := uint32(len(t.spans) + 1)
	t.spans = append(t.spans, span{name, id, parent, batch, start, end})
	return id
}

func (t *tracer) add(name string, batch uint64, parent uint32, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(name, batch, parent, start, end)
}

// reserve grows the span buffer ahead of a pass whose allocations are
// measured.
func (t *tracer) reserve(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(make([]span, 0, len(t.spans)+n), t.spans...)
}

// setup records one set-up's phases: tenant create, in-process preload,
// and front-end start through connection open.
func (t *tracer) setup(t0, created, preloaded, connected time.Time) {
	if t == nil {
		return
	}
	at := func(x time.Time) int64 { return int64(x.Sub(clock)) }
	t.add("dsu.create", 0, 0, at(t0), at(created))
	t.add("dsu.preload", 0, 0, at(created), at(preloaded))
	t.add("server.start", 0, 0, at(preloaded), at(connected))
}

// batch records a client batch's root span.
func (t *tracer) batch(b batchRec) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b.id = uint64(len(t.batches) + 1)
	b.root = t.addLocked("batch", b.id, 0, b.start, b.end)
	t.batches = append(t.batches, b)
}

// writeFile dumps every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// wirePass passes each batch's request and reply envelopes through the
// pooled binary codecs, as client and server do, returning per-batch
// encode and decode time (indexed by batch id), encoded bytes, and
// allocations per envelope.
func wirePass(t *tracer, spec *replaySpec) (enc, dec []time.Duration, wireBytes int64, allocsPerFrame float64, err error) {
	var buf bytes.Buffer
	e := wire.AcquireEncoder(&buf, wire.Binary)
	defer wire.ReleaseEncoder(e)
	rd := bytes.NewReader(nil)
	d := wire.AcquireDecoder(rd, wire.Binary, wire.DefaultMaxFrame)
	defer wire.ReleaseDecoder(d)

	enc = make([]time.Duration, len(t.batches)+1)
	dec = make([]time.Duration, len(t.batches)+1)
	scratch := make([]dsu.Edge, spec.maxItems)
	answers := make([]bool, spec.maxItems)
	var env wire.Envelope
	var ureq dsu.UniteRequest
	var qreq dsu.QueryRequest
	var rep dsu.BatchReply
	trip := func(b *batchRec, record bool) error {
		s0 := stamp()
		buf.Reset()
		if err := e.Encode(&env); err != nil {
			return err
		}
		s1 := stamp()
		wireBytes += int64(buf.Len())
		rd.Reset(buf.Bytes())
		if _, err := d.Decode(); err != nil {
			return err
		}
		s2 := stamp()
		if !record {
			return nil
		}
		enc[b.id] += time.Duration(s1 - s0)
		dec[b.id] += time.Duration(s2 - s1)
		t.add("wire.encode", b.id, b.root, s0, s1)
		t.add("wire.decode", b.id, b.root, s1, s2)
		return nil
	}
	roundTrip := func(b *batchRec, record bool) error {
		in := spec.input(b, scratch)
		if b.query {
			qreq.Pairs = in
			env = wire.Envelope{Kind: wire.KindQuery, Seq: b.id, Query: &qreq}
		} else {
			ureq.Edges = in
			env = wire.Envelope{Kind: wire.KindUnite, Seq: b.id, Unite: &ureq}
		}
		if err := trip(b, record); err != nil {
			return err
		}
		rep = b.reply
		if b.query {
			rep.Answers = answers[:len(in)]
		}
		env = wire.Envelope{Kind: wire.KindReply, Seq: b.id, Reply: &rep}
		return trip(b, record)
	}
	// Two passes: the first grows the codecs' scratch buffers, the second
	// is measured, so the allocation count is the steady state's.
	var mem *memProbe
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			t.reserve(4 * len(t.batches))
			wireBytes = 0
			mem = startMem()
		}
		for i := range t.batches {
			b := &t.batches[i]
			if err := roundTrip(b, pass == 1); err != nil {
				return nil, nil, 0, 0, fmt.Errorf("wire pass: %w", err)
			}
		}
	}
	allocs := mem.finish().mallocs
	if len(t.batches) > 0 {
		allocsPerFrame = float64(allocs) / float64(2*len(t.batches))
	}
	return enc, dec, wireBytes, allocsPerFrame, nil
}

// dsuPass replays every batch through Universe.UniteAll and SameSetAll on
// an identically built in-process tenant, one goroutine per client as
// served, returning per-batch time indexed by batch id. A single-client
// workload whose batches ran on several tenant generations gets a fresh
// tenant at each generation change.
func dsuPass(t *tracer, spec *replaySpec) ([]time.Duration, error) {
	out := make([]time.Duration, len(t.batches)+1)
	per := make([][]*batchRec, spec.clients)
	for i := range t.batches {
		b := &t.batches[i]
		per[b.client] = append(per[b.client], b)
	}
	u, err := spec.build()
	if err != nil {
		return nil, err
	}
	t.reserve(len(t.batches))
	errs := make([]error, spec.clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			scratch := make([]dsu.Edge, spec.maxItems)
			cu, epoch := u, 0
			if len(per[c]) > 0 {
				epoch = per[c][0].epoch
			}
			for _, b := range per[c] {
				if b.epoch != epoch {
					if cu, errs[c] = spec.build(); errs[c] != nil {
						return
					}
					epoch = b.epoch
				}
				in := spec.input(b, scratch)
				s0 := stamp()
				name := "dsu.unite"
				if b.query {
					name = "dsu.query"
					_, errs[c] = cu.SameSetAll(dsu.QueryRequest{Pairs: in})
				} else {
					_, errs[c] = cu.UniteAll(dsu.UniteRequest{Edges: in})
				}
				s1 := stamp()
				if errs[c] != nil {
					return
				}
				out[b.id] = time.Duration(s1 - s0)
				t.add(name, b.id, b.root, s0, s1)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dsu pass: %w", err)
		}
	}
	return out, nil
}

// walResult is the log replay pass's measurements.
type walResult struct {
	appendT   []time.Duration // per batch id
	checkpt   []time.Duration // snapshot writes
	autoSnaps int64
	shape     logShape
	recovery  time.Duration
}

// walPass appends the traced window's unite batches to a fresh log with
// dsuserve's default policy (group commit, automatic snapshots) through
// wal.Writer directly, applying them untimed to a freshly built in-process
// tenant whose Snapshot feeds the automatic checkpoints. A durable
// workload replays its last tenant generation, whose log was the one
// served; the others replay at most limit batches, pricing what logging
// would cost them. The log is then crash-copied, sealed and recovered, and
// one explicit snapshot is timed on a scratch log.
func walPass(cfg *config, t *tracer, spec *replaySpec, limit int) (walResult, error) {
	res := walResult{appendT: make([]time.Duration, len(t.batches)+1)}
	root, err := os.MkdirTemp(cfg.dir, "walpass-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(root)
	apply, err := spec.build()
	if err != nil {
		return res, err
	}
	// Let a durable registry write the header, so the log carries exactly
	// the configuration a served tenant's would and recovers under it.
	logDir := filepath.Join(root, "log")
	reg := dsu.NewRegistry(dsu.WithDurability(logDir))
	if _, err := reg.Create("replay", apply.N(), spec.opts...); err != nil {
		return res, err
	}
	if err := reg.Close(); err != nil {
		return res, err
	}
	live := filepath.Join(logDir, "replay.dsulog")
	meta, err := wal.ReadMeta(live)
	if err != nil {
		return res, err
	}
	if err := os.Remove(live); err != nil {
		return res, err
	}
	w, _, err := wal.Open(live, meta, wal.Options{Sync: wal.SyncGroup, CheckpointEvery: cfg.shape.CheckpointEvery})
	if err != nil {
		return res, err
	}
	defer w.Close()

	last := t.batches[len(t.batches)-1].epoch
	var unites []*batchRec
	for i := range t.batches {
		b := &t.batches[i]
		if b.query {
			continue
		}
		if spec.durable && b.epoch == last || !spec.durable && len(unites) < limit {
			unites = append(unites, b)
		}
	}
	if len(unites) == 0 {
		return res, fmt.Errorf("wal pass: no unite batches to log")
	}
	t.reserve(len(unites))
	scratch := make([]dsu.Edge, spec.maxItems)
	for _, b := range unites {
		in := spec.input(b, scratch)
		s0 := stamp()
		_, err := w.Append(in)
		s1 := stamp()
		if err != nil {
			return res, fmt.Errorf("wal pass: %w", err)
		}
		res.appendT[b.id] = time.Duration(s1 - s0)
		t.add("wal.append", b.id, b.root, s0, s1)
		if _, err := apply.UniteAll(dsu.UniteRequest{Edges: in}); err != nil {
			return res, err
		}
		if w.CheckpointDue() {
			s0 := stamp()
			_, err := w.WriteSnapshot(meta.Kind, apply.Snapshot())
			s1 := stamp()
			if err != nil {
				return res, err
			}
			res.checkpt = append(res.checkpt, time.Duration(s1-s0))
			res.autoSnaps++
			t.add("wal.checkpoint", b.id, b.root, s0, s1)
		}
	}

	crashDir := filepath.Join(root, "crash")
	if err := os.MkdirAll(crashDir, 0o755); err != nil {
		return res, err
	}
	if err := copyFile(live, filepath.Join(crashDir, "replay.dsulog")); err != nil {
		return res, err
	}
	if err := w.Close(); err != nil {
		return res, err
	}
	if res.shape, err = readLogShape(live, filepath.Join(crashDir, "replay.dsulog")); err != nil {
		return res, err
	}
	t0 := time.Now()
	rec := dsu.NewRegistry(dsu.WithDurability(crashDir))
	if _, err := rec.RestoreTenants(); err != nil {
		return res, fmt.Errorf("wal pass recovery: %w", err)
	}
	res.recovery = time.Since(t0)
	if err := rec.Close(); err != nil {
		return res, err
	}

	// One explicit snapshot of the final state, on a scratch log.
	sw, _, err := wal.Open(filepath.Join(root, "snapshot.dsulog"), meta, wal.Options{Sync: wal.SyncGroup})
	if err != nil {
		return res, err
	}
	defer sw.Close()
	s0 := stamp()
	_, err = sw.WriteSnapshot(meta.Kind, apply.Snapshot())
	res.checkpt = append(res.checkpt, time.Duration(stamp()-s0))
	if err != nil {
		return res, err
	}
	return res, sw.Close()
}

// median is the nearest-rank median of a sample.
func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }
