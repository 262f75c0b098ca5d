package pipeline

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/tracespan"
)

// countingExec returns an Exec that tallies batches and edges and reports
// every edge as merged, for callback-contract tests that need no DSU.
func countingExec(batches, edges *atomic.Int64) Exec {
	return func(b []exec.Edge, _ *tracespan.Trace) Result {
		batches.Add(1)
		edges.Add(int64(len(b)))
		return Result{Result: exec.Result{Merged: int64(len(b))}}
	}
}

// TestCallbackContract pins the delivery guarantees: exactly one callback
// per sealed batch, ids dense and in order, size-triggered batches exactly
// BufferSize long, Close seals the remainder and drains everything.
func TestCallbackContract(t *testing.T) {
	var batches, edges atomic.Int64
	var got []Result
	p := New(countingExec(&batches, &edges), Config{
		BufferSize: 8,
		Callback:   func(r Result) { got = append(got, r) },
	})
	const total = 8*5 + 3 // five full batches and a remainder
	for i := 0; i < total; i++ {
		if err := p.Push(exec.Edge{X: uint32(i), Y: uint32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(got) != 6 {
		t.Fatalf("callbacks = %d, want 6", len(got))
	}
	sum := 0
	for i, r := range got {
		if r.ID != uint64(i+1) {
			t.Errorf("callback %d has id %d, want %d (in-order, dense)", i, r.ID, i+1)
		}
		if r.Err != nil {
			t.Errorf("batch %d: unexpected err %v", r.ID, r.Err)
		}
		want := 8
		if i == 5 {
			want = 3
		}
		if r.Edges != want {
			t.Errorf("batch %d edges = %d, want %d", r.ID, r.Edges, want)
		}
		sum += r.Edges
	}
	if sum != total || edges.Load() != total {
		t.Errorf("drained %d edges via callbacks, %d via exec, want %d", sum, edges.Load(), total)
	}
	if batches.Load() != 6 {
		t.Errorf("exec ran %d times, want 6", batches.Load())
	}
}

// TestFlushAndClosedErrors pins Flush semantics (a short batch; an empty
// flush is a no-op) and the ErrClosed contract.
func TestFlushAndClosedErrors(t *testing.T) {
	var sizes []int
	p := New(func(b []exec.Edge, _ *tracespan.Trace) Result {
		sizes = append(sizes, len(b))
		return Result{}
	}, Config{BufferSize: 100})

	if err := p.Flush(); err != nil {
		t.Fatalf("empty Flush: %v", err)
	}
	if err := p.Push(exec.Edge{X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.Push(exec.Edge{X: 3, Y: 4}, exec.Edge{X: 5, Y: 6}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 2 {
		t.Fatalf("exec ran batches of %v edges, want [1 2] (empty flush must not seal)", sizes)
	}

	if err := p.Push(exec.Edge{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Push after Close = %v, want ErrClosed", err)
	}
	if err := p.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after Close = %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second Close = %v, want nil (idempotent)", err)
	}
}

// TestBackpressure pins the MaxInFlight bound: with the dispatcher gated
// on batch 1 and MaxInFlight=1, sealing batch 2 must block until the gate
// opens.
func TestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	var started atomic.Int64
	p := New(func(b []exec.Edge, _ *tracespan.Trace) Result {
		started.Add(1)
		<-gate
		return Result{}
	}, Config{BufferSize: 1, MaxInFlight: 1})

	if err := p.Push(exec.Edge{X: 0, Y: 1}); err != nil { // seals batch 1; dispatcher blocks in exec
		t.Fatal(err)
	}
	for started.Load() == 0 {
		time.Sleep(time.Millisecond) // wait for the dispatcher to enter exec
	}

	var unblocked atomic.Bool
	pushed := make(chan struct{})
	go func() {
		p.Push(exec.Edge{X: 2, Y: 3}) // seals batch 2: must block, dispatcher is busy
		unblocked.Store(true)
		close(pushed)
	}()
	time.Sleep(50 * time.Millisecond)
	if unblocked.Load() {
		t.Fatal("second seal returned while the dispatcher was gated: MaxInFlight not enforced")
	}
	close(gate)
	<-pushed
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if started.Load() != 2 {
		t.Fatalf("exec ran %d times, want 2", started.Load())
	}
}

// TestContextAbort pins the cancellation contract: batches sealed after
// the cancellation point are abandoned — callback fires with Err set, exec
// never sees them — and Close reports the context error.
func TestContextAbort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var execs atomic.Int64
	var mu sync.Mutex
	var got []Result
	p := New(func(b []exec.Edge, _ *tracespan.Trace) Result {
		execs.Add(1)
		return Result{Result: exec.Result{Merged: 1}}
	}, Config{BufferSize: 2, Context: ctx, Callback: func(r Result) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	}})

	if err := p.Push(exec.Edge{X: 0, Y: 1}, exec.Edge{X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}
	// Let batch 1 drain before cancelling so its success is deterministic.
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := p.Push(exec.Edge{X: 2, Y: 3}, exec.Edge{X: 3, Y: 4}); err != nil {
		t.Fatal(err) // Push still accepts; the batch is abandoned at dispatch
	}
	if err := p.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close = %v, want context.Canceled", err)
	}
	if execs.Load() != 1 {
		t.Errorf("exec ran %d times, want 1 (post-cancel batch must not execute)", execs.Load())
	}
	if len(got) != 2 {
		t.Fatalf("callbacks = %d, want 2 (abandoned batches still report)", len(got))
	}
	if got[0].Err != nil {
		t.Errorf("batch 1 err = %v, want nil", got[0].Err)
	}
	if !errors.Is(got[1].Err, context.Canceled) {
		t.Errorf("batch 2 err = %v, want context.Canceled", got[1].Err)
	}
}

// TestLateCancelIsNotAnError pins Close's refinement: a cancellation that
// arrives after every batch already executed abandoned nothing, so Close
// reports success.
func TestLateCancelIsNotAnError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	var results []Result
	p := New(func(b []exec.Edge, _ *tracespan.Trace) Result {
		return Result{Result: exec.Result{Merged: int64(len(b))}}
	}, Config{BufferSize: 2, Context: ctx, Callback: func(r Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	}})
	if err := p.Push(exec.Edge{X: 0, Y: 1}, exec.Edge{X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}
	// Drain fully, then cancel: nothing is in flight to abandon.
	for {
		mu.Lock()
		n := len(results)
		mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := p.Close(); err != nil {
		t.Fatalf("Close after a no-loss cancellation = %v, want nil", err)
	}
	if results[0].Err != nil {
		t.Fatalf("batch errored: %v", results[0].Err)
	}
}

// TestExecPanicRecovered pins that a panicking batch run becomes that
// batch's Err and the pipeline keeps serving later batches.
func TestExecPanicRecovered(t *testing.T) {
	var got []Result
	p := New(func(b []exec.Edge, _ *tracespan.Trace) Result {
		if b[0].X == 13 {
			panic("unlucky batch")
		}
		return Result{Result: exec.Result{Merged: 7}}
	}, Config{BufferSize: 1, Callback: func(r Result) { got = append(got, r) }})

	for _, x := range []uint32{1, 13, 2} {
		if err := p.Push(exec.Edge{X: x, Y: x + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("callbacks = %d, want 3", len(got))
	}
	if got[0].Err != nil || got[2].Err != nil {
		t.Errorf("healthy batches errored: %v, %v", got[0].Err, got[2].Err)
	}
	if got[1].Err == nil {
		t.Error("panicking batch reported no error")
	}
	if got[2].Merged != 7 {
		t.Errorf("batch after panic merged = %d, want 7 (pipeline must keep serving)", got[2].Merged)
	}
}

// TestConcurrentProducers drives many producers into one pipeline and
// checks nothing is lost or double-counted.
func TestConcurrentProducers(t *testing.T) {
	var edges atomic.Int64
	var cbEdges atomic.Int64
	p := New(func(b []exec.Edge, _ *tracespan.Trace) Result {
		edges.Add(int64(len(b)))
		return Result{}
	}, Config{BufferSize: 64, MaxInFlight: 2, Callback: func(r Result) { cbEdges.Add(int64(r.Edges)) }})

	const producers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := p.Push(exec.Edge{X: uint32(w), Y: uint32(i)}); err != nil {
					t.Errorf("producer %d: %v", w, err)
					return
				}
				if i%97 == 0 {
					if err := p.Flush(); err != nil {
						t.Errorf("producer %d flush: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if want := int64(producers * per); edges.Load() != want || cbEdges.Load() != want {
		t.Fatalf("exec saw %d edges, callbacks %d, want %d", edges.Load(), cbEdges.Load(), want)
	}
}

// TestFlushSurfacesCancellation pins the fail-fast contract: once the
// pipeline context is cancelled, Flush reports the context error at the
// call site instead of sealing a batch the dispatcher would only abandon.
// The buffered edges are abandoned by Close, which reports the same error.
func TestFlushSurfacesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var execs atomic.Int64
	p := New(func(b []exec.Edge, _ *tracespan.Trace) Result {
		execs.Add(1)
		return Result{}
	}, Config{BufferSize: 1 << 20, Context: ctx})

	if err := p.Push(exec.Edge{X: 0, Y: 1}); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := p.Flush(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Flush after cancel = %v, want context.Canceled", err)
	}
	if err := p.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close = %v, want context.Canceled (buffered remainder was abandoned)", err)
	}
	if execs.Load() != 0 {
		t.Fatalf("exec ran %d times, want 0", execs.Load())
	}
}
