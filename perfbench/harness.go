package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/dsu"
	"repro/internal/randutil"
	"repro/internal/server"
)

// shape holds one workload's input sizes. The full shapes are the
// benchmark; the tiny ones exist so the self-test runs in seconds.
type shape struct {
	N      int           // universe size
	Setups int           // set-ups per run; setup_s is their median
	Warmup time.Duration // traffic before the window, unmeasured

	// pipe-ingest
	Frame       int // edges per unite frame
	Outstanding int // frames in flight on the pipe
	PoolFrames  int // distinct frames in the input pool

	// durable-stream
	Push            int   // edges per stream push
	Seal            int   // server seal threshold (edges per batch)
	InFlight        int   // server in-flight sealed batches
	RoundEdges      int   // edges per ingest round (one fresh tenant each)
	PoolPushes      int   // distinct pushes in the input pool
	CheckpointEvery int64 // logged edges between automatic snapshots (dsuserve's default)

	// rpc-mixed
	Clients     int     // closed-loop clients, one connection each
	Pairs       int     // pairs per RPC
	QueryFrac   float64 // share of RPCs that are queries
	Skew        float64 // Zipf exponent of element ids
	PoolBatches int     // distinct unite and query batches in the pool
	Preload     int     // uniform unions applied in-process at set-up

	// read probe after the ingest workloads' window
	ProbeRPCs  int
	ProbePairs int

	// WALBatches caps the write-ahead-log replay pass of a traced run on
	// a workload whose tenant is not durable; a durable one replays its
	// last tenant generation in full.
	WALBatches int
}

// shapes returns the benchmark's input sizes, or the self-test's tiny
// ones.
func shapes(tiny bool) map[string]shape {
	full := map[string]shape{
		"pipe-ingest": {
			N: 1 << 18, Setups: 21, Warmup: time.Second,
			Frame: 1024, Outstanding: 8, PoolFrames: 1024,
			ProbeRPCs: 10000, ProbePairs: 512, WALBatches: 2048, CheckpointEvery: 1 << 22,
		},
		"durable-stream": {
			N: 1 << 22, Setups: 7,
			Push: 8192, Seal: 65536, InFlight: 2,
			// Two and a half checkpoint intervals: every round writes two
			// snapshots and leaves a half-interval tail, so recovery always
			// restores a snapshot and replays a non-empty tail, and log
			// bytes per edge does not depend on how far the last interval
			// got.
			RoundEdges: 5 << 21, PoolPushes: 128, CheckpointEvery: 1 << 22,
			ProbeRPCs: 10000, ProbePairs: 512,
		},
		"rpc-mixed": {
			N: 1 << 22, Setups: 3, Warmup: time.Second,
			Clients: 2, Pairs: 512, QueryFrac: 0.9, Skew: 1.01, PoolBatches: 512,
			Preload: 1 << 22, WALBatches: 2048, CheckpointEvery: 1 << 22,
		},
	}
	if !tiny {
		return full
	}
	small := map[string]shape{}
	for name, s := range full {
		s.N = 1 << 12
		s.Setups = 2
		s.Warmup = 50 * time.Millisecond
		s.PoolFrames = 16
		s.Frame = 64
		s.Push, s.Seal, s.PoolPushes = 256, 1024, 8
		s.CheckpointEvery = 1 << 12
		s.RoundEdges = 5 << 11
		s.PoolBatches = 16
		s.Pairs = 64
		if s.Preload > 0 {
			s.Preload = s.N
		}
		s.ProbeRPCs, s.ProbePairs = 40, 64
		s.WALBatches = 64
		small[name] = s
	}
	return small
}

// run is one workload execution's raw measurements.
type run struct {
	attempted, failed int64         // client batches
	ops               int64         // acknowledged unite edges plus query pairs
	elapsed           time.Duration // the measured window
	unite, query      []sample
	setups            []time.Duration

	// slices split the window, and probeSlices the read probe; the gated
	// metrics are medians over slices.
	slices, probeSlices []interval
	rss                 []sample // resident-set samples over the window
	mem                 memDelta
	agg                 replyAgg // the window's replies
	probe               replyAgg // the read probe's replies

	// set-up phases (create, preload, start and connect) of every set-up
	phases [][3]time.Duration

	// durable-stream only
	rounds   int
	recovery time.Duration
	log      logShape

	params string // workload parameters for the report
}

func (r *run) opsPerSec() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.ops) / r.elapsed.Seconds()
}

// stack is one served system: a registry, its front end on a loopback
// listener, and a client with its own connection pool.
type stack struct {
	reg  *dsu.Registry
	srv  *server.Server
	hs   *http.Server
	done chan struct{}
	tr   *http.Transport
	c    *server.Client
}

// serve starts the front end over reg on an ephemeral loopback port,
// instrumented onto m as dsuserve -metrics runs it (nil: uninstrumented).
func serve(reg *dsu.Registry, m *dsu.Metrics) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &stack{reg: reg, srv: server.New(server.Config{Registry: reg, Metrics: m}), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	// At most two connections from this process: one per client.
	s.tr = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	s.c = server.NewClient("http://"+ln.Addr().String(), server.WithHTTPClient(&http.Client{Transport: s.tr}))
	return s, nil
}

// close stops the front end, waits for its serve loop, and seals the
// registry's logs.
func (s *stack) close() error {
	s.srv.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	s.tr.CloseIdleConnections()
	return errors.Join(err, s.reg.Close())
}

// discard tears down a set-up that was only timed.
func discard(st *stack, connErr error) error {
	if err := st.close(); err != nil {
		return err
	}
	return connErr
}

// rssSampler samples the process's resident set every 5ms while it runs.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []sample // at: stamp; items: resident bytes
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			s.samples = append(s.samples, sample{at: stamp(), items: int(rssBytes())})
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the samples.
func (s *rssSampler) finish() []sample {
	close(s.stop)
	<-s.done
	return s.samples
}

// slicePeakMB is the median over slices of each slice's peak resident
// set, in MB (2^20 bytes).
func slicePeakMB(sl []interval, samples []sample) float64 {
	var peaks []float64
	for _, b := range bucket(sl, samples) {
		peak := 0
		for _, s := range b {
			peak = max(peak, s.items)
		}
		if peak > 0 {
			peaks = append(peaks, float64(peak)/(1<<20))
		}
	}
	return medianFloat(peaks)
}

// rssBytes reads the current resident set from /proc/self/statm, falling
// back to the process's lifetime peak where that file is unavailable.
func rssBytes() int64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return ru.Maxrss << 10
	}
	return 0
}

// memDelta is process-wide allocation activity over the window.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
}

type memProbe struct{ before runtime.MemStats }

func startMem() *memProbe {
	p := &memProbe{}
	runtime.ReadMemStats(&p.before)
	return p
}

func (p *memProbe) finish() memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		mallocs: after.Mallocs - p.before.Mallocs,
		bytes:   after.TotalAlloc - p.before.TotalAlloc,
		gcs:     after.NumGC - p.before.NumGC,
	}
}

// settle returns set-up garbage to the OS so the window's resident-set
// peak reflects serving, not set-up.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// window measures one workload window: it settles memory, starts the
// resident-set and allocation probes, runs body, and records elapsed
// time, peak memory and allocation deltas on r.
func window(r *run, body func() time.Duration) {
	settle()
	rss := startRSS()
	mem := startMem()
	r.elapsed = body()
	r.mem = mem.finish()
	r.rss = rss.finish()
}

// replyAgg accumulates the execution accounting every reply carries.
type replyAgg struct {
	uniteBatches, queryBatches int64
	uniteEdges, queryPairs     int64
	merged                     int64
	casRetries                 int64
	downgraded                 int64 // query replies that ran a cheaper find than configured
	uniteStats, queryStats     dsu.Stats
	execBusy                   time.Duration // Σ reply Elapsed
	execute                    []time.Duration
}

func (a *replyAgg) add(query bool, items int, rep *dsu.BatchReply) {
	a.execBusy += rep.Elapsed
	a.execute = append(a.execute, rep.Elapsed)
	a.casRetries += rep.CASRetries
	if query {
		a.queryBatches++
		a.queryPairs += int64(items)
		a.queryStats.Add(rep.Stats)
		if rep.Find == dsu.NoCompaction || rep.Find == dsu.OneTrySplitting {
			a.downgraded++
		}
		return
	}
	a.uniteBatches++
	a.uniteEdges += int64(items)
	a.merged += rep.Merged
	a.uniteStats.Add(rep.Stats)
}

// merge folds another client's accounting into a.
func (a *replyAgg) merge(b *replyAgg) {
	a.uniteBatches += b.uniteBatches
	a.queryBatches += b.queryBatches
	a.uniteEdges += b.uniteEdges
	a.queryPairs += b.queryPairs
	a.merged += b.merged
	a.casRetries += b.casRetries
	a.downgraded += b.downgraded
	a.uniteStats.Add(b.uniteStats)
	a.queryStats.Add(b.queryStats)
	a.execBusy += b.execBusy
	a.execute = append(a.execute, b.execute...)
}

// sample is one acknowledged batch: when its reply arrived, how long it
// took, and how many edges or pairs it carried.
type sample struct {
	at    int64
	d     time.Duration
	items int
}

// interval is a span of the clock, in stamps.
type interval struct{ from, to int64 }

// slicesPerWindow is how many equal slices a time window is cut into.
const slicesPerWindow = 10

// evenSlices cuts [from, to] into k equal slices.
func evenSlices(from, to int64, k int) []interval {
	out := make([]interval, k)
	w := (to - from) / int64(k)
	for i := range out {
		out[i] = interval{from + int64(i)*w, from + int64(i+1)*w}
	}
	out[k-1].to = to
	return out
}

// bucket groups samples by the slice their reply landed in; samples
// outside every slice are dropped.
func bucket(sl []interval, samples []sample) [][]sample {
	out := make([][]sample, len(sl))
	for _, s := range samples {
		i := sort.Search(len(sl), func(i int) bool { return sl[i].to >= s.at })
		if i < len(sl) && s.at >= sl[i].from {
			out[i] = append(out[i], s)
		}
	}
	return out
}

// sliceRate is the median over slices of items acknowledged per second.
func sliceRate(sl []interval, samples []sample) float64 {
	var rates []float64
	for i, b := range bucket(sl, samples) {
		items := 0
		for _, s := range b {
			items += s.items
		}
		if d := sl[i].to - sl[i].from; d > 0 {
			rates = append(rates, float64(items)/(float64(d)/1e9))
		}
	}
	return medianFloat(rates)
}

// sliceQuantile is the median over non-empty slices of each slice's
// q-quantile latency, in ms.
func sliceQuantile(sl []interval, samples []sample, q float64) float64 {
	var qs []float64
	for _, b := range bucket(sl, samples) {
		if len(b) > 0 {
			qs = append(qs, ms(quantile(durations(b), q)))
		}
	}
	return medianFloat(qs)
}

func durations(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.d
	}
	return out
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank q-quantile of ds (0 for an empty sample).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

// rng derives an independent deterministic generator per purpose from
// the run seed.
func rng(seed uint64, stream uint64) *randutil.Xoshiro256 {
	return randutil.NewXoshiro256(randutil.Mix64(seed ^ randutil.Mix64(stream+0x9e3779b97f4a7c15)))
}

// uniformEdges fills dst with uniform random edges over [0, n).
func uniformEdges(r *randutil.Xoshiro256, n int, dst []dsu.Edge) {
	for i := range dst {
		dst[i] = dsu.Edge{X: uint32(r.Uint64n(uint64(n))), Y: uint32(r.Uint64n(uint64(n)))}
	}
}

// tenantSeed fixes the tenant's random linking order from the run seed.
func tenantSeed(seed uint64) uint64 { return randutil.Mix64(seed+1) | 1 }
