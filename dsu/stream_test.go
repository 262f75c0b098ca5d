package dsu_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/dsu"
	"repro/internal/engine"
	"repro/internal/workload"
)

// streamBackends builds the structure both ways the stream contract
// covers — New, and a spec naming the retired lock-free kind — seeded
// identically so partitions are comparable structure to structure.
func streamBackends(n int, seed uint64) map[string]func() *dsu.DSU {
	return map[string]func() *dsu.DSU{
		"flat":     func() *dsu.DSU { return dsu.New(n, dsu.WithSeed(seed)) },
		"lockfree": func() *dsu.DSU { return newLockFreeSpec(n, dsu.WithSeed(seed)) },
	}
}

// labelsOf reads the canonical partition off a structure.
func labelsOf(t *testing.T, b *dsu.DSU) []uint32 {
	t.Helper()
	return b.CanonicalLabels()
}

// TestStreamMatchesBlocking is the acceptance cross-validation: for seeds
// × buffer sizes × {flat, lockfree} specs, pushing an edge sequence
// through dsu.Stream (in randomly sized chunks, with occasional explicit
// flushes) must produce the exact partition of a blocking UniteAll loop
// over the same sequence, plus the same total merge count. CI runs this
// under -race.
func TestStreamMatchesBlocking(t *testing.T) {
	const n = 2000
	for _, seed := range []uint64{1, 7, 42} {
		edges := engine.FromOps(workload.ZipfMixed(n, 3*n, 1.0, 1.1, seed+500))
		edges = append(edges, engine.FromOps(workload.CommunityUnions(n, 2*n, 8, 0.9, seed+600))...)
		for _, buffer := range []int{64, 257, 4096} {
			for name, mk := range streamBackends(n, seed) {
				t.Run(fmt.Sprintf("seed=%d/buffer=%d/%s", seed, buffer, name), func(t *testing.T) {
					// Blocking reference: UniteAll in buffer-sized batches,
					// through the common Backend surface.
					ref := mk()
					var refMerged int
					for lo := 0; lo < len(edges); lo += buffer {
						refMerged += ref.UniteAll(edges[lo:min(lo+buffer, len(edges)):len(edges)], dsu.BatchOptions{Workers: 3})
					}

					// Streamed run: same sequence, random chunking, random flushes.
					back := mk()
					s := dsu.NewStream(back,
						dsu.WithBufferSize(buffer),
						dsu.WithMaxInFlight(2),
						dsu.WithBatchOptions(dsu.BatchOptions{Workers: 3, Grain: 64}))
					rng := rand.New(rand.NewSource(int64(seed) + int64(buffer)))
					for lo := 0; lo < len(edges); {
						hi := min(lo+1+rng.Intn(700), len(edges))
						if err := s.Push(edges[lo:hi]...); err != nil {
							t.Fatal(err)
						}
						lo = hi
						if rng.Intn(5) == 0 {
							if err := s.Flush(); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}

					if s.Edges() != int64(len(edges)) {
						t.Fatalf("stream drained %d edges, pushed %d", s.Edges(), len(edges))
					}
					if s.Merged() != int64(refMerged) {
						t.Fatalf("stream merged %d, blocking %d", s.Merged(), refMerged)
					}
					want, got := labelsOf(t, ref), labelsOf(t, back)
					for x := range got {
						if got[x] != want[x] {
							t.Fatalf("label[%d] = %d, blocking %d", x, got[x], want[x])
						}
					}
				})
			}
		}
	}
}

// TestStreamCallbackOrdering pins the delivery contract at the dsu layer:
// ids dense and ascending, one callback per sealed batch, totals matching,
// every batch run under the stream's WithBatchOptions, and Close draining
// everything before it returns.
func TestStreamCallbackOrdering(t *testing.T) {
	const n = 1000
	edges := engine.FromOps(workload.RandomUnions(n, 4*n, 77))
	var results []dsu.BatchResult
	d := dsu.New(n)
	s := dsu.NewStream(d,
		dsu.WithBufferSize(300),
		dsu.WithBatchOptions(dsu.BatchOptions{Workers: 2, Grain: 64}),
		dsu.WithOnBatch(func(r dsu.BatchResult) { results = append(results, r) }))
	for _, e := range edges {
		if err := s.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantBatches := (len(edges) + 299) / 300
	if len(results) != wantBatches {
		t.Fatalf("callbacks = %d, want %d", len(results), wantBatches)
	}
	var total, merged int64
	for i, r := range results {
		if r.ID != uint64(i+1) {
			t.Fatalf("callback %d carries id %d: not dense in-order delivery", i, r.ID)
		}
		if r.Err != nil {
			t.Fatalf("batch %d: %v", r.ID, r.Err)
		}
		if r.Workers != 2 || r.Grain != 64 {
			t.Errorf("batch %d ran %d workers at grain %d, want the stream's 2 at 64", r.ID, r.Workers, r.Grain)
		}
		total += int64(r.Edges)
		merged += r.Merged
	}
	if total != int64(len(edges)) {
		t.Errorf("callbacks cover %d edges, pushed %d", total, len(edges))
	}
	if merged != s.Merged() || int64(n)-int64(d.Sets()) != merged {
		t.Errorf("merged: callbacks %d, stream %d, structure says %d",
			merged, s.Merged(), int64(n)-int64(d.Sets()))
	}
	if err := s.Push(dsu.Edge{X: 1, Y: 2}); !errors.Is(err, dsu.ErrStreamClosed) {
		t.Errorf("Push after Close = %v, want ErrStreamClosed", err)
	}
}

// TestStreamBatchOptions pins streams to the one per-batch vocabulary:
// every batch runs under the stream's BatchOptions, find override
// included, and an override the request path refuses fails every batch
// with the request path's error, leaving the structure untouched.
func TestStreamBatchOptions(t *testing.T) {
	const n = 1000
	edges := engine.FromOps(workload.RandomUnions(n, 2*n, 79))
	stream := func(d *dsu.DSU, o dsu.BatchOptions) []dsu.BatchResult {
		t.Helper()
		var results []dsu.BatchResult
		s := dsu.NewStream(d, dsu.WithBufferSize(256), dsu.WithBatchOptions(o),
			dsu.WithOnBatch(func(r dsu.BatchResult) { results = append(results, r) }))
		if err := s.Push(edges...); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return results
	}

	d := dsu.New(n)
	for _, r := range stream(d, dsu.BatchOptions{Workers: 2, Grain: 64, Find: dsu.NoCompaction}) {
		if r.Err != nil {
			t.Fatalf("batch %d: %v", r.ID, r.Err)
		}
		if r.Workers != 2 || r.Grain != 64 {
			t.Errorf("batch %d ran %d workers at grain %d, want 2 at 64", r.ID, r.Workers, r.Grain)
		}
		if f := dsu.ReplyOf(r).Find; f != dsu.NoCompaction {
			t.Errorf("batch %d ran find %v, want %v", r.ID, f, dsu.NoCompaction)
		}
	}
	want := dsu.New(n)
	want.UniteAll(edges)
	checkLabelsMatch(t, d.CanonicalLabels(), want.CanonicalLabels())

	for _, tc := range []struct {
		name string
		d    *dsu.DSU
		find dsu.FindStrategy
	}{
		{"auto", dsu.New(n), dsu.FindAuto},
		{"early+halving", dsu.New(n, dsu.WithEarlyTermination()), dsu.Halving},
	} {
		_, refused := dsu.NewUniverse("t", tc.d).UniteAll(dsu.UniteRequest{Edges: edges, Options: dsu.BatchOptions{Find: tc.find}})
		if refused == nil {
			t.Fatalf("%s: the request path accepted find %v", tc.name, tc.find)
		}
		results := stream(tc.d, dsu.BatchOptions{Find: tc.find})
		if len(results) == 0 {
			t.Fatalf("%s: no batches delivered", tc.name)
		}
		for _, r := range results {
			if r.Err == nil || r.Err.Error() != refused.Error() {
				t.Errorf("%s: batch %d error %v, want the request path's %v", tc.name, r.ID, r.Err, refused)
			}
		}
		if tc.d.Sets() != n {
			t.Errorf("%s: refused batches merged %d sets", tc.name, n-tc.d.Sets())
		}
	}
}

// TestStreamContextAbort checks cancellation at the dsu layer: abandoned
// batches surface through Failed and the callback's Err, and the partition
// only reflects batches that executed.
func TestStreamContextAbort(t *testing.T) {
	const n = 300
	ctx, cancel := context.WithCancel(context.Background())
	d := dsu.New(n)
	executed := make(chan struct{}, 16)
	s := dsu.NewStream(d,
		dsu.WithBufferSize(50),
		dsu.WithStreamContext(ctx),
		dsu.WithOnBatch(func(r dsu.BatchResult) { executed <- struct{}{} }))
	if err := s.Push(engine.FromOps(workload.RandomUnions(n, 50, 5))...); err != nil {
		t.Fatal(err)
	}
	<-executed // batch 1 done
	cancel()
	if err := s.Push(engine.FromOps(workload.RandomUnions(n, 50, 6))...); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close = %v, want context.Canceled", err)
	}
	if s.Failed() != 1 {
		t.Errorf("Failed() = %d, want 1", s.Failed())
	}
	if s.Batches() != 2 {
		t.Errorf("Batches() = %d, want 2 (abandoned batches still report)", s.Batches())
	}
}

// TestStreamSoak is the randomized shutdown/ordering soak CI runs under
// -race on the GOMAXPROCS matrix: concurrent producers hammer one stream
// per iteration with pushes and flushes, Close drains, and the final
// partition must equal the blocking single-batch partition (unions are
// order-independent, so producer interleaving cannot change it).
// Iterations are bounded; STREAM_SOAK=1 selects the longer CI bound.
func TestStreamSoak(t *testing.T) {
	iters := 4
	if os.Getenv("STREAM_SOAK") != "" {
		iters = 24
	}
	const n = 600
	for it := 0; it < iters; it++ {
		seed := uint64(1000 + it)
		edges := engine.FromOps(workload.RandomUnions(n, 2*n, seed))
		ref := dsu.New(n, dsu.WithSeed(seed))
		ref.UniteAll(edges)
		want := ref.CanonicalLabels()

		back := dsu.New(n, dsu.WithSeed(seed))
		var delivered int64
		var mu sync.Mutex
		s := dsu.NewStream(back,
			dsu.WithBufferSize(64+16*it),
			dsu.WithMaxInFlight(1+it%3),
			dsu.WithBatchOptions(dsu.BatchOptions{Workers: 2, Grain: 32}),
			dsu.WithOnBatch(func(r dsu.BatchResult) {
				mu.Lock()
				delivered += int64(r.Edges)
				mu.Unlock()
				if r.Err != nil {
					t.Errorf("iter %d batch %d: %v", it, r.ID, r.Err)
				}
			}))
		const producers = 4
		per := len(edges) / producers
		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(seed)*31 + int64(w)))
				part := edges[w*per : (w+1)*per]
				for lo := 0; lo < len(part); {
					hi := min(lo+1+rng.Intn(90), len(part))
					if err := s.Push(part[lo:hi]...); err != nil {
						t.Errorf("iter %d producer %d: %v", it, w, err)
						return
					}
					lo = hi
					if rng.Intn(7) == 0 {
						if err := s.Flush(); err != nil {
							t.Errorf("iter %d producer %d flush: %v", it, w, err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if err := s.Push(edges[producers*per:]...); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("iter %d Close: %v", it, err)
		}
		if delivered != int64(len(edges)) {
			t.Fatalf("iter %d: callbacks cover %d edges, pushed %d", it, delivered, len(edges))
		}
		got := labelsOf(t, back)
		for x := range got {
			if got[x] != want[x] {
				t.Fatalf("iter %d: label[%d] = %d, want %d", it, x, got[x], want[x])
			}
		}
	}
}
