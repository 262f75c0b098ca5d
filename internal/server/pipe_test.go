package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/dsu"
	"repro/internal/wire"
)

// copyEnvelope deep-copies a pipe reply out of the connection's pooled
// decoder — the pattern OnReply callers use for anything that outlives
// the callback.
func copyEnvelope(env *wire.Envelope) *wire.Envelope {
	cp := *env
	if env.Reply != nil {
		rep := *env.Reply
		if rep.Answers != nil {
			rep.Answers = append(make([]bool, 0, len(rep.Answers)), rep.Answers...)
		}
		cp.Reply = &rep
	}
	if env.End != nil {
		end := *env.End
		cp.End = &end
	}
	return &cp
}

// TestPipeMatchesInProcess drives the pipelined endpoint: interleaved
// unite and query batches enqueued without waiting, replies collected
// from OnReply, and the result compared against the sequential in-process
// oracle — seq-for-seq, in request order.
func TestPipeMatchesInProcess(t *testing.T) {
	const n, m = 600, 240
	t.Run("binary", func(t *testing.T) {
		reg := dsu.NewRegistry()
		_, c := newTestServer(t, Config{Registry: reg})
		ctx := context.Background()
		if _, err := c.CreateTenant(ctx, TenantSpec{Name: "p", N: n, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		oracle := dsu.New(n, dsu.WithSeed(7))

		var replies []*wire.Envelope
		done := make(chan struct{})
		cp, err := c.OpenPipe(ctx, "p", PipeConfig{OnReply: func(env *wire.Envelope) {
			replies = append(replies, copyEnvelope(env)) // reader goroutine only
		}})
		if err != nil {
			t.Fatal(err)
		}
		go func() { defer close(done); <-cp.done }()

		type round struct {
			seq     uint64
			unite   []dsu.Edge
			query   []dsu.Edge
			merged  int
			answers []bool
		}
		var rounds []round
		const batches = 24
		for i := 0; i < batches; i++ {
			var r round
			if i%3 == 2 {
				r.query = testEdges(n, 40, int64(1000+i))
				r.answers = oracle.SameSetAll(r.query)
				r.seq, err = cp.SameSetAll(dsu.QueryRequest{Pairs: r.query})
			} else {
				r.unite = testEdges(n, 40, int64(2000+i))
				r.merged = oracle.UniteAll(r.unite)
				r.seq, err = cp.UniteAll(dsu.UniteRequest{Edges: r.unite})
			}
			if err != nil {
				t.Fatalf("enqueue #%d: %v", i, err)
			}
			rounds = append(rounds, r)
		}
		if err := cp.Close(); err != nil {
			t.Fatal(err)
		}
		<-done

		if len(replies) != batches {
			t.Fatalf("got %d replies, want %d", len(replies), batches)
		}
		for i, r := range rounds {
			env := replies[i]
			if env.Kind != wire.KindReply || env.Seq != r.seq {
				t.Fatalf("reply #%d = kind %v seq %d, want reply seq %d (error %q)", i, env.Kind, env.Seq, r.seq, env.Error)
			}
			if r.query != nil {
				if !reflect.DeepEqual(env.Reply.Answers, r.answers) {
					t.Errorf("query seq %d answers differ from oracle", r.seq)
				}
			} else if int(env.Reply.Merged) != r.merged {
				t.Errorf("unite seq %d Merged = %d, want %d", r.seq, env.Reply.Merged, r.merged)
			}
		}

		labels, err := c.Labels(ctx, "p")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(labels, oracle.CanonicalLabels()) {
			t.Error("piped tenant's final partition differs from oracle")
		}
	})
}

// TestPipeSurvivesValidationError pins the pipe's error contract: a
// batch that fails validation answers a seq-carrying error envelope and
// the connection keeps serving.
func TestPipeSurvivesValidationError(t *testing.T) {
	const n = 100
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "v", N: n}); err != nil {
		t.Fatal(err)
	}
	var replies []*wire.Envelope
	cp, err := c.OpenPipe(ctx, "v", PipeConfig{OnReply: func(env *wire.Envelope) {
		replies = append(replies, copyEnvelope(env))
	}})
	if err != nil {
		t.Fatal(err)
	}
	badSeq, err := cp.UniteAll(dsu.UniteRequest{Edges: []dsu.Edge{{X: 0, Y: n}}}) // out of range
	if err != nil {
		t.Fatal(err)
	}
	goodSeq, err := cp.UniteAll(dsu.UniteRequest{Edges: []dsu.Edge{{X: 1, Y: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 {
		t.Fatalf("got %d replies, want 2", len(replies))
	}
	if replies[0].Kind != wire.KindError || replies[0].Seq != badSeq || !strings.Contains(replies[0].Error, "universe") {
		t.Errorf("bad batch reply = %+v, want a seq-%d universe error", replies[0], badSeq)
	}
	if replies[1].Kind != wire.KindReply || replies[1].Seq != goodSeq || replies[1].Reply.Merged != 1 {
		t.Errorf("pipe did not keep serving after the error: %+v", replies[1])
	}
}

// TestPipeRejectsNonBatchKinds drives the endpoint with a raw frame the
// pipe vocabulary excludes and expects a seq-echoing error envelope and
// a closed response.
func TestPipeRejectsNonBatchKinds(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "k", N: 10}); err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := wire.NewEncoder(&body, wire.Binary).Encode(&wire.Envelope{Kind: wire.KindFlush, Seq: 41}); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/tenants/k/pipe", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	resp, err := c.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	env, err := wire.NewDecoder(resp.Body, wire.Binary, wire.DefaultMaxFrame).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != wire.KindError || env.Seq != 41 || !strings.Contains(env.Error, "unite/query") {
		t.Fatalf("flush frame on a pipe answered %+v, want a seq-41 vocabulary error", env)
	}
	if _, err := wire.NewDecoder(resp.Body, wire.Binary, wire.DefaultMaxFrame).Decode(); err != io.EOF {
		t.Fatalf("pipe stayed open after a vocabulary error: %v", err)
	}
}

// TestRPCReplyStability is the satellite-1 regression at the RPC
// boundary: a reply handed out by Client must be a stable copy,
// unaffected by later traffic reusing the connection's pooled decoder.
func TestRPCReplyStability(t *testing.T) {
	const n = 400
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, TenantSpec{Name: "s", N: n}); err != nil {
		t.Fatal(err)
	}
	pairs := testEdges(n, 64, 3)
	held, err := c.SameSetAll(ctx, "s", dsu.QueryRequest{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]bool(nil), held.Answers...)
	merged := held.Merged
	for i := 0; i < 25; i++ {
		if _, err := c.UniteAll(ctx, "s", dsu.UniteRequest{Edges: testEdges(n, 64, int64(i))}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SameSetAll(ctx, "s", dsu.QueryRequest{Pairs: pairs}); err != nil {
			t.Fatal(err)
		}
	}
	if held.Merged != merged || !reflect.DeepEqual(held.Answers, snapshot) {
		t.Fatal("an RPC reply changed under later traffic — it aliases recycled decode state")
	}
}

// TestOpenHonoursContext pins that OpenStream and OpenPipe return once
// their context ends, even against a peer that reads the whole request
// body before it answers: a duplex body ends only when the client closes
// it, so without the context closing it the open would wait forever.
func TestOpenHonoursContext(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	}))
	t.Cleanup(func() {
		hs.CloseClientConnections() // frees a handler still reading a body
		hs.Close()
	})
	c := NewClient(hs.URL, WithHTTPClient(hs.Client()))
	for name, open := range map[string]func(context.Context) error{
		"stream": func(ctx context.Context) error { _, err := c.OpenStream(ctx, "t", StreamConfig{}); return err },
		"pipe":   func(ctx context.Context) error { _, err := c.OpenPipe(ctx, "t", PipeConfig{}); return err },
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		done := make(chan error, 1)
		go func() { done <- open(ctx) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: open succeeded against a peer that never accepted it", name)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: open still blocked 5 s after its 200 ms deadline", name)
		}
		cancel()
	}
}
