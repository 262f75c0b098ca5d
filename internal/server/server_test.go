package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dsu"
	"repro/internal/wire"
)

// newTestServer serves a Server over loopback for the test's lifetime.
// net/http reports a panic it recovered from a handler or a connection in
// the server's error log; any such line fails the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = dsu.NewRegistry()
	}
	s := New(cfg)
	var errLog lockedBuffer
	hs := httptest.NewUnstartedServer(s)
	hs.Config.ErrorLog = log.New(&errLog, "", 0)
	hs.Start()
	t.Cleanup(func() {
		hs.Close() // waits for every connection, so their log lines are in
		if out := errLog.String(); strings.Contains(out, "panic") {
			t.Errorf("server error log:\n%s", out)
		}
	})
	return s, NewClient(hs.URL, WithHTTPClient(hs.Client()))
}

// lockedBuffer collects the server's error log, which connection
// goroutines write while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func testEdges(n, m int, seed int64) []dsu.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]dsu.Edge, m)
	for i := range edges {
		edges[i] = dsu.Edge{X: uint32(rng.Intn(n)), Y: uint32(rng.Intn(n))}
	}
	return edges
}

func TestTenantAdmin(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	flat, err := c.CreateTenant(ctx, TenantSpec{Name: "alpha", N: 100})
	if err != nil {
		t.Fatal(err)
	}
	if flat.N != 100 || flat.Sets != 100 {
		t.Errorf("alpha info = %+v", flat)
	}
	// "auto" is a compatibility name of two-try splitting: the tenant
	// builds, and its query batches report the variant they ran.
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "beta", N: 100, Find: "auto"}); err != nil {
		t.Fatal(err)
	}
	rep, err := c.SameSetAll(ctx, "beta", dsu.QueryRequest{Pairs: testEdges(100, 50, 9)})
	if err != nil || rep.Find != dsu.TwoTrySplitting {
		t.Errorf("beta query reply find = %v, %v; want twotry", rep.Find, err)
	}
	// The lock-free kind name builds the one structure, so it takes every
	// configuration the default kind takes.
	for _, spec := range []TenantSpec{
		{Name: "gamma", N: 100, Kind: "lockfree", Find: "halving"},
		{Name: "delta", N: 100, Kind: "lockfree", EarlyTermination: true},
	} {
		if info, err := c.CreateTenant(ctx, spec); err != nil || info.N != 100 {
			t.Errorf("create %+v = %+v, %v", spec, info, err)
		}
	}
	infos, err := c.Tenants(ctx)
	if err != nil || len(infos) != 4 {
		t.Fatalf("Tenants = %v, %v", infos, err)
	}
	if _, err := c.Tenant(ctx, "missing"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("missing tenant err = %v", err)
	}
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "alpha", N: 5}); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("duplicate create err = %v", err)
	}
	for _, bad := range []TenantSpec{
		{Name: "sp ace", N: 5},
		{Name: "x", N: -1},
		{Name: "x", N: 1 << 30}, // past the server's MaxN resource cap
		{Name: "x", N: 5, Find: "zorp"},
		{Name: "x", N: 5, Find: "halving", EarlyTermination: true},
		{Name: "x", N: 5, Kind: "sharded"}, // the retired kind
		{Name: "x", N: 5, Kind: "4"},       // dsuserve -tenant x:5:4, the retired shard-count form
		{Name: "x", N: 5, Kind: "zorp"},
	} {
		if _, err := c.CreateTenant(ctx, bad); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("spec %+v: err = %v, want a 400", bad, err)
		}
	}
	// A spec field the server does not know is refused, not ignored.
	for _, body := range []string{`{"name":"x","n":5,"shards":4}`, `{"name":"x","n":5,"zorp":1}`} {
		resp, err := c.hc.Post(c.base+"/v1/tenants", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("create %s: status = %d, want 400", body, resp.StatusCode)
		}
	}
	if err := c.DropTenant(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTenant(ctx, "alpha"); err == nil {
		t.Error("second drop succeeded")
	}
}

// TestRPCMatchesInProcess checks one remote unite+query round against the
// in-process oracle, including the per-batch find override and the
// reply's accounting.
func TestRPCMatchesInProcess(t *testing.T) {
	const n, m = 800, 2400
	edges := testEdges(n, m, 5)
	queries := testEdges(n, m/2, 6)

	t.Run("binary", func(t *testing.T) {
		reg := dsu.NewRegistry()
		_, c := newTestServer(t, Config{Registry: reg})
		ctx := context.Background()
		if _, err := c.CreateTenant(ctx, TenantSpec{Name: "t", N: n, Seed: 11}); err != nil {
			t.Fatal(err)
		}
		oracle := dsu.New(n, dsu.WithSeed(11))
		wantMerged := oracle.UniteAll(edges)

		rep, err := c.UniteAll(ctx, "t", dsu.UniteRequest{Edges: edges, Options: dsu.BatchOptions{Grain: 256}})
		if err != nil {
			t.Fatal(err)
		}
		if int(rep.Merged) != wantMerged {
			t.Errorf("remote Merged = %d, want %d", rep.Merged, wantMerged)
		}
		if rep.Stats.Ops == 0 || rep.Elapsed <= 0 {
			t.Errorf("reply accounting looks empty: %+v", rep)
		}

		want := oracle.SameSetAll(queries)
		qrep, err := c.SameSetAll(ctx, "t", dsu.QueryRequest{Pairs: queries, Options: dsu.BatchOptions{Find: dsu.NoCompaction}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(qrep.Answers, want) {
			t.Error("remote answers differ from in-process oracle")
		}
		if qrep.Find != dsu.NoCompaction {
			t.Errorf("reply Find = %v, want the override", qrep.Find)
		}

		// Validation errors travel as error envelopes, not broken frames.
		if _, err := c.UniteAll(ctx, "t", dsu.UniteRequest{Edges: []dsu.Edge{{X: 0, Y: uint32(n)}}}); err == nil || !strings.Contains(err.Error(), "universe") {
			t.Errorf("out-of-range unite err = %v", err)
		}

		labels, err := c.Labels(ctx, "t")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(labels, oracle.CanonicalLabels()) {
			t.Error("remote labels differ from oracle")
		}
	})
}

// TestConcurrentTenantsMatchOracle is the acceptance test: three isolated
// tenants — default, one created under the older "auto" find name and one
// under the older "lockfree" kind name — each fed concurrently over stream, RPC and pipe,
// with queries in flight, must end with exactly the partition a
// sequential in-process pass produces. Every
// tenant is served under the one policy, the lockfree-spec tenant
// included: its RPCs take the per-tenant budget, and its InFlight: 2
// stream answers in ascending batch order. Run under -race (CI does).
func TestConcurrentTenantsMatchOracle(t *testing.T) {
	// Sparse enough (m/n = 2) that each tenant keeps a distinctive
	// multi-component partition — a fully connected graph would make the
	// isolation check below vacuous.
	const n, m, clients = 1200, 2400, 3
	_, c := newTestServer(t, Config{MaxInFlight: 3, StreamBuffer: 256})
	ctx := context.Background()

	tenants := []struct {
		spec  TenantSpec
		edges []dsu.Edge
	}{
		{TenantSpec{Name: "flat", N: n}, testEdges(n, m, 101)},
		{TenantSpec{Name: "auto", N: n, Find: "auto"}, testEdges(n, m, 202)},
		{TenantSpec{Name: "lockfree", N: n, Kind: "lockfree"}, testEdges(n, m, 303)},
	}
	for _, tn := range tenants {
		if _, err := c.CreateTenant(ctx, tn.spec); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for _, tn := range tenants {
		per := (len(tn.edges) + clients - 1) / clients
		for i := 0; i < clients; i++ {
			lo := i * per
			hi := min(lo+per, len(tn.edges))
			part := tn.edges[lo:hi]
			wg.Add(1)
			go func(name string, idx int, part []dsu.Edge) {
				defer wg.Done()
				switch idx {
				case 0: // streaming ingest, binary, small batches
					var seqs []uint64 // appended by the reader goroutine; read after Close
					cs, err := c.OpenStream(ctx, name, StreamConfig{Buffer: 128, InFlight: 2, OnReply: func(env *wire.Envelope) {
						if env.Kind == wire.KindReply {
							seqs = append(seqs, env.Seq)
						}
					}})
					if err != nil {
						errs <- fmt.Errorf("%s stream open: %w", name, err)
						return
					}
					for j := 0; j < len(part); j += 100 {
						if err := cs.Push(part[j:min(j+100, len(part))]...); err != nil {
							errs <- fmt.Errorf("%s push: %w", name, err)
							return
						}
					}
					if err := cs.Flush(); err != nil {
						errs <- err
						return
					}
					end, err := cs.Close()
					if err != nil {
						errs <- fmt.Errorf("%s stream close: %w", name, err)
						return
					}
					if end.Edges != int64(len(part)) || end.Failed != 0 {
						errs <- fmt.Errorf("%s stream totals %+v, want %d edges, 0 failed", name, end, len(part))
					}
					for k := range seqs {
						if seqs[k] != uint64(k+1) {
							errs <- fmt.Errorf("%s stream replies arrived as %v, want batch ids 1, 2, … in seal order", name, seqs)
							break
						}
					}
					if uint64(len(seqs)) != end.Batches {
						errs <- fmt.Errorf("%s stream: %d replies for %d batches", name, len(seqs), end.Batches)
					}
				case 1: // RPC, chunked
					for j := 0; j < len(part); j += 500 {
						if _, err := c.UniteAll(ctx, name, dsu.UniteRequest{Edges: part[j:min(j+500, len(part))]}); err != nil {
							errs <- fmt.Errorf("%s rpc unite: %w", name, err)
							return
						}
					}
				default: // pipe, chunked, every reply checked after Close
					var bad error // set by the reader goroutine, read after Close
					replies := 0
					cp, err := c.OpenPipe(ctx, name, PipeConfig{OnReply: func(env *wire.Envelope) {
						replies++
						if env.Kind != wire.KindReply && bad == nil {
							bad = fmt.Errorf("%s piped unite %d answered %v: %s", name, env.Seq, env.Kind, env.Error)
						}
					}})
					if err != nil {
						errs <- fmt.Errorf("%s pipe open: %w", name, err)
						return
					}
					sent := 0
					for j := 0; j < len(part); j += 500 {
						if _, err := cp.UniteAll(dsu.UniteRequest{Edges: part[j:min(j+500, len(part))]}); err != nil {
							errs <- fmt.Errorf("%s pipe unite: %w", name, err)
							return
						}
						sent++
					}
					if err := cp.Close(); err != nil {
						errs <- fmt.Errorf("%s pipe close: %w", name, err)
						return
					}
					if bad != nil {
						errs <- bad
					} else if replies != sent {
						errs <- fmt.Errorf("%s pipe: %d replies for %d requests", name, replies, sent)
					}
				}
			}(tn.spec.Name, i, part)
		}
		// One concurrent query client per tenant: answers mid-flight are
		// only checked for transport health, not content.
		wg.Add(1)
		go func(name string, pairs []dsu.Edge) {
			defer wg.Done()
			for j := 0; j+50 <= len(pairs) && j < 500; j += 50 {
				if _, err := c.SameSetAll(ctx, name, dsu.QueryRequest{Pairs: pairs[j : j+50]}); err != nil {
					errs <- fmt.Errorf("%s mid-flight query: %w", name, err)
					return
				}
			}
		}(tn.spec.Name, tn.edges)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiescent: every tenant's partition must equal its own sequential
	// oracle — and, isolation, not the other tenant's.
	var labelSets [][]uint32
	for _, tn := range tenants {
		oracle := dsu.New(n)
		oracle.UniteAll(tn.edges)
		want := oracle.CanonicalLabels()
		got, err := c.Labels(ctx, tn.spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tenant %s: remote partition differs from sequential oracle", tn.spec.Name)
		}
		info, err := c.Tenant(ctx, tn.spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		if info.Sets != oracle.Sets() {
			t.Errorf("tenant %s: Sets = %d, oracle %d", tn.spec.Name, info.Sets, oracle.Sets())
		}
		labelSets = append(labelSets, got)
	}
	for i := range labelSets {
		for j := i + 1; j < len(labelSets); j++ {
			if reflect.DeepEqual(labelSets[i], labelSets[j]) {
				t.Errorf("tenants %s and %s ended with identical partitions — isolation suspect (or the generator produced twins)",
					tenants[i].spec.Name, tenants[j].spec.Name)
			}
		}
	}
}

// TestStreamReplies checks the per-batch reply channel: sealed batches
// answer in order with batch ids and real accounting.
func TestStreamReplies(t *testing.T) {
	const n = 500
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "t", N: n}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seqs []uint64
	var merged int64
	cs, err := c.OpenStream(ctx, "t", StreamConfig{Buffer: 100, OnReply: func(env *wire.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		if env.Kind != wire.KindReply {
			t.Errorf("unexpected envelope %v: %s", env.Kind, env.Error)
			return
		}
		seqs = append(seqs, env.Seq)
		merged += env.Reply.Merged
	}})
	if err != nil {
		t.Fatal(err)
	}
	edges := testEdges(n, 350, 9)
	for _, e := range edges {
		if err := cs.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	end, err := cs.Close()
	if err != nil {
		t.Fatal(err)
	}
	if end.Batches != 4 || end.Edges != 350 {
		t.Errorf("end totals = %+v, want 4 batches / 350 edges", end)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(seqs, []uint64{1, 2, 3, 4}) {
		t.Errorf("reply batch ids = %v, want in-order 1..4", seqs)
	}
	if merged != end.Merged {
		t.Errorf("sum of per-batch merges %d ≠ end total %d", merged, end.Merged)
	}
}

// TestStreamRejectsBadFrames: a range-violating unite frame is refused
// with an error envelope while the stream survives; a misrouted kind ends
// the stream.
func TestStreamRejectsBadFrames(t *testing.T) {
	const n = 50
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "t", N: n}); err != nil {
		t.Fatal(err)
	}
	var rejected atomic.Int64
	cs, err := c.OpenStream(ctx, "t", StreamConfig{OnReply: func(env *wire.Envelope) {
		if env.Kind == wire.KindError && strings.Contains(env.Error, "universe") {
			rejected.Add(1)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Push(dsu.Edge{X: 0, Y: 999}); err != nil { // out of range: rejected, stream lives
		t.Fatal(err)
	}
	if err := cs.Push(dsu.Edge{X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	end, err := cs.Close()
	if err != nil {
		t.Fatal(err)
	}
	if end.Edges != 1 || end.Merged != 1 {
		t.Errorf("end totals = %+v, want exactly the valid edge ingested", end)
	}
	if rejected.Load() != 1 {
		t.Errorf("rejected frames = %d, want 1", rejected.Load())
	}

	// A stream parameter the server does not know is refused before the
	// stream opens, not ignored.
	for _, q := range []string{"prefilter=1", "connected=1", "buffer=64&zorp=2"} {
		resp, err := c.hc.Post(c.base+"/v1/tenants/t/stream?"+q, wire.ContentTypeBinary, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("stream?%s: status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestBodylessEnvelopeRejected pins the kind→body invariant at the HTTP
// boundary: a frame naming a batch kind without carrying its body is a
// 400, never a handler panic.
func TestBodylessEnvelopeRejected(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "t", N: 10}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		action string
		kind   wire.Kind
	}{{"unite", wire.KindUnite}, {"query", wire.KindQuery}} {
		// Length, kind, and sequence number: a 9-byte payload with no
		// options and no edges.
		frame := []byte{0, 0, 0, 9, byte(tc.kind), 0, 0, 0, 0, 0, 0, 0, 1}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.base+"/v1/tenants/t/"+tc.action, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", wire.ContentTypeBinary+"; version=1") // parameters must be tolerated
		resp, err := c.hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bodyless %v frame: status = %d, want 400", tc.kind, resp.StatusCode)
		}
	}
}

// TestDataPlaneRefusesOtherMediaTypes: the four data-plane URLs speak
// only the binary framing. A JSON body is refused with 415 before it is
// read, so the tenant's applied-batch sequence does not move.
func TestDataPlaneRefusesOtherMediaTypes(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "t", N: 10}); err != nil {
		t.Fatal(err)
	}
	for action, body := range map[string]string{
		"unite":  `{"kind":"unite","unite":{"edges":[{"X":1,"Y":2}]}}`,
		"query":  `{"kind":"query","query":{"pairs":[{"X":1,"Y":2}]}}`,
		"stream": `{"kind":"unite","unite":{"edges":[{"X":1,"Y":2}]}}`,
		"pipe":   `{"kind":"unite","unite":{"edges":[{"X":1,"Y":2}]}}`,
	} {
		for _, ct := range []string{"application/json", "application/x-ndjson"} {
			resp, err := c.hc.Post(c.base+"/v1/tenants/t/"+action, ct, strings.NewReader(body+"\n"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnsupportedMediaType {
				t.Errorf("%s with %s: status = %d, want 415", action, ct, resp.StatusCode)
			}
		}
	}
	info, err := c.Tenant(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 0 || info.Sets != 10 {
		t.Errorf("tenant after refused requests = %+v, want seq 0 and 10 sets", info)
	}
}

// postOpen posts to path with a request body that stays open until the
// status arrives, as a stream or pipe client's does, and returns that
// status. A server that waits for the body to end before answering fails
// the call after 10s instead of hanging the test.
func postOpen(c *Client, path, contentType string) (int, error) {
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, c.base+path, pr)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	type result struct {
		resp *http.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := c.hc.Do(req)
		done <- result{resp, err}
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
		pw.Close() // end the body so the exchange finishes, then report the wait
		if r = <-done; r.err == nil {
			r.resp.Body.Close()
		}
		return 0, fmt.Errorf("no status within 10s while the request body was open")
	}
	if r.err != nil {
		return 0, r.err
	}
	r.resp.Body.Close()
	return r.resp.StatusCode, nil
}

// TestStopRefusesDataPlane: after Stop, every data-plane URL answers 503
// before it reads a frame — /stream and /pipe included, which must not
// open a connection only to abort it — and the answer reaches a client
// whose request body is still open.
func TestStopRefusesDataPlane(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "t", N: 10}); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	for _, action := range []string{"unite", "query", "stream", "pipe"} {
		if got, err := postOpen(c, "/v1/tenants/t/"+action, wire.ContentTypeBinary); err != nil || got != http.StatusServiceUnavailable {
			t.Errorf("%s after Stop: status %d, %v; want 503", action, got, err)
		}
	}
	if info, err := c.Tenant(ctx, "t"); err != nil || info.Seq != 0 {
		t.Errorf("tenant after Stop = %+v, %v; want nothing applied", info, err)
	}
}

// TestRefusalReachesOpenBody: a stream or pipe client (Client.OpenStream,
// Client.OpenPipe) writes its request body while it waits for the
// status, so every refusal must reach it while that body is still open.
func TestRefusalReachesOpenBody(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if _, err := c.CreateTenant(context.Background(), TenantSpec{Name: "t", N: 10}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, contentType string
		want              int
	}{
		{"/v1/tenants/missing/stream", wire.ContentTypeBinary, http.StatusNotFound},
		{"/v1/tenants/missing/pipe", wire.ContentTypeBinary, http.StatusNotFound},
		{"/v1/tenants/t/stream?zorp=1", wire.ContentTypeBinary, http.StatusBadRequest},
		{"/v1/tenants/t/pipe", "application/json", http.StatusUnsupportedMediaType},
	} {
		if got, err := postOpen(c, tc.path, tc.contentType); err != nil || got != tc.want {
			t.Errorf("%s (%s): status %d, %v; want %d", tc.path, tc.contentType, got, err, tc.want)
		}
	}
}

// TestDuplexEarlyEndLeavesClientUsable: a /stream or /pipe handler that
// stops before its request body ends — at a frame of the wrong kind, with
// another frame behind it — must leave net/http no body to drain on a
// kept-alive connection. The server's error log stays free of panics
// (newTestServer checks it), and the client's next request succeeds.
func TestDuplexEarlyEndLeavesClientUsable(t *testing.T) {
	edge := []dsu.Edge{{X: 1, Y: 2}}
	for _, tc := range []struct {
		action string
		first  *wire.Envelope // a kind the endpoint refuses
	}{
		{"stream", &wire.Envelope{Kind: wire.KindQuery, Seq: 1, Query: &dsu.QueryRequest{Pairs: edge}}},
		{"pipe", &wire.Envelope{Kind: wire.KindFlush, Seq: 1}},
	} {
		t.Run(tc.action, func(t *testing.T) {
			_, c := newTestServer(t, Config{})
			ctx := context.Background()
			if _, err := c.CreateTenant(ctx, TenantSpec{Name: "t", N: 10}); err != nil {
				t.Fatal(err)
			}
			var body bytes.Buffer
			enc := wire.NewEncoder(&body, wire.Binary)
			for _, env := range []*wire.Envelope{tc.first, {Kind: wire.KindUnite, Seq: 2, Unite: &dsu.UniteRequest{Edges: edge}}} {
				if err := enc.Encode(env); err != nil {
					t.Fatal(err)
				}
			}
			resp, err := c.hc.Post(c.base+"/v1/tenants/t/"+tc.action, wire.ContentTypeBinary, &body)
			if err != nil {
				t.Fatal(err)
			}
			env, err := wire.NewDecoder(resp.Body, wire.Binary, 0).Decode()
			if err != nil || env.Kind != wire.KindError || env.Seq != 1 {
				t.Fatalf("first answer = %+v, %v; want a seq-1 error envelope", env, err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()

			if _, err := c.UniteAll(ctx, "t", dsu.UniteRequest{Edges: edge}); err != nil {
				t.Errorf("next request after the %s ended early: %v", tc.action, err)
			}
		})
	}
}

// TestStopSurfacesShutdownToStreams wires the shutdown satellite end to
// end: Server.Stop must end even a push-only stream connection promptly —
// no flush, no body close, the handler is parked in a body read — and the
// client's Close must report the cancellation rather than a clean end.
// Batches buffered-but-unsealed at the abort are abandoned by the
// stream's Close and surface through the same error (the dsu layer's
// Flush/Close cancellation contract, over the wire).
func TestStopSurfacesShutdownToStreams(t *testing.T) {
	const n = 200
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "t", N: n}); err != nil {
		t.Fatal(err)
	}
	var aborted atomic.Int64
	cs, err := c.OpenStream(ctx, "t", StreamConfig{Buffer: 1 << 20, OnReply: func(env *wire.Envelope) {
		if env.Kind == wire.KindError && strings.Contains(env.Error, "context canceled") {
			aborted.Add(1)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Edges below the seal threshold: genuinely in-flight work the client
	// never flushed. The server must not need another frame to notice Stop.
	if err := cs.Push(testEdges(n, 50, 1)...); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	// Stop propagates asynchronously; the abort envelope — which the
	// server sends unprompted, without the client closing or flushing — is
	// the observable proof the push-only connection noticed. Wait for it
	// before closing, so the close below cannot race a clean shutdown.
	deadline := time.Now().Add(10 * time.Second)
	for aborted.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never aborted the push-only stream after Stop")
		}
		time.Sleep(time.Millisecond)
	}
	end, err := cs.Close()
	if err == nil {
		t.Fatalf("Close after Stop = nil error, end=%+v; want the cancellation surfaced", end)
	}
	if !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("Close err = %v, want context cancellation", err)
	}
}
