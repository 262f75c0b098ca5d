package wire

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// blockingSink is a write target whose Write parks until released,
// simulating a slow peer: the flusher stalls inside it while producers
// keep appending — exactly the window where coalescing happens.
type blockingSink struct {
	entered chan struct{} // signaled (non-blocking) on each Write entry
	release chan struct{} // closed to let Writes complete

	mu     sync.Mutex
	writes int
	data   bytes.Buffer
}

func newBlockingSink() *blockingSink {
	return &blockingSink{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (s *blockingSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.writes++
	s.data.Write(p)
	s.mu.Unlock()
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.release
	return len(p), nil
}

func (s *blockingSink) snapshot() (int, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes, s.data.String()
}

// TestFlushWriterCoalesces is the satellite-3 core property: small
// frames written while the downstream is busy land in one downstream
// Write, byte-for-byte in order.
func TestFlushWriterCoalesces(t *testing.T) {
	sink := newBlockingSink()
	fw := NewFlushWriter(sink, 0, nil)

	frame := func(i int) []byte { return []byte(fmt.Sprintf("frame-%03d;", i)) }
	var want bytes.Buffer
	want.Write(frame(0))
	if _, err := fw.Write(frame(0)); err != nil {
		t.Fatal(err)
	}
	<-sink.entered // the flusher is now parked inside sink.Write(frame 0)
	const n = 100
	for i := 1; i < n; i++ {
		want.Write(frame(i))
		if _, err := fw.Write(frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(sink.release)
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	writes, got := sink.snapshot()
	if got != want.String() {
		t.Fatalf("downstream bytes differ:\n got %q\nwant %q", got, want.String())
	}
	// Frame 0 went alone; frames 1..99 accumulated behind the stalled
	// flusher and must arrive as one coalesced write.
	if writes != 2 {
		t.Errorf("downstream writes = %d, want 2 (1 stalled + 1 coalesced batch of %d)", writes, n-1)
	}
}

// TestFlushWriterFlush pins that Flush delivers everything written
// before it, without needing Close.
func TestFlushWriterFlush(t *testing.T) {
	var sink bytes.Buffer
	fw := NewFlushWriter(&sink, 0, nil)
	defer fw.Close()
	if _, err := fw.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flush's return synchronizes with the flusher's last downstream
	// write, so this read is ordered.
	if got := sink.String(); got != "hello world" {
		t.Fatalf("after Flush, sink = %q, want %q", got, "hello world")
	}
}

// TestFlushWriterOnFlush pins the downstream-flush hook: it runs after
// every underlying write (the server passes ResponseController.Flush
// here so coalesced frames leave the HTTP buffers too).
func TestFlushWriterOnFlush(t *testing.T) {
	var sink bytes.Buffer
	var mu sync.Mutex
	hooks := 0
	fw := NewFlushWriter(&sink, 0, func() { mu.Lock(); hooks++; mu.Unlock() })
	if _, err := fw.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	h := hooks
	mu.Unlock()
	if h == 0 {
		t.Fatal("onFlush never ran despite a completed Flush")
	}
	fw.Close()
}

// TestFlushWriterClose pins close semantics: Close drains pending
// bytes, later Writes and Flushes fail with ErrWriterClosed, and Close
// is idempotent.
func TestFlushWriterClose(t *testing.T) {
	var sink bytes.Buffer
	fw := NewFlushWriter(&sink, 0, nil)
	for i := 0; i < 50; i++ {
		if _, err := fw.Write([]byte("abcdefgh")); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := sink.Len(), 50*8; got != want {
		t.Fatalf("Close drained %d bytes, want %d", got, want)
	}
	if _, err := fw.Write([]byte("late")); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("Write after Close = %v, want ErrWriterClosed", err)
	}
	if err := fw.Flush(); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("Flush after Close = %v, want ErrWriterClosed", err)
	}
	if err := fw.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// errSink fails every write.
type errSink struct{ err error }

func (s errSink) Write(p []byte) (int, error) { return 0, s.err }

// TestFlushWriterErrorSticky pins error propagation: once the
// downstream fails, the error reaches producers, Flush, and Close.
func TestFlushWriterErrorSticky(t *testing.T) {
	sinkErr := errors.New("connection reset by peer")
	fw := NewFlushWriter(errSink{sinkErr}, 0, nil)
	if _, err := fw.Write([]byte("doomed")); err != nil {
		t.Fatalf("first write should buffer cleanly, got %v", err)
	}
	// The flusher hits the error asynchronously; poll until it lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := fw.Flush(); errors.Is(err, sinkErr) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flusher never surfaced the downstream error")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := fw.Write([]byte("more")); !errors.Is(err, sinkErr) {
		t.Fatalf("Write after downstream failure = %v, want %v", err, sinkErr)
	}
	if err := fw.Close(); !errors.Is(err, sinkErr) {
		t.Fatalf("Close after downstream failure = %v, want %v", err, sinkErr)
	}
}

// TestFlushWriterBackpressure is the PR-5 contract at the coalescing
// layer: a stalled downstream fills the pending buffer to its limit and
// blocks the producer until the flusher drains.
func TestFlushWriterBackpressure(t *testing.T) {
	sink := newBlockingSink()
	fw := NewFlushWriter(sink, 8, nil)

	if _, err := fw.Write([]byte("12345678")); err != nil { // swapped out by the flusher
		t.Fatal(err)
	}
	<-sink.entered                                          // flusher parked downstream
	if _, err := fw.Write([]byte("abcdefgh")); err != nil { // fills pending to the limit
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := fw.Write([]byte("ZZ")) // must block: pending ≥ limit
		blocked <- err
	}()
	select {
	case err := <-blocked:
		t.Fatalf("write past the limit returned (%v) despite a stalled flusher", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(sink.release) // downstream drains; the blocked producer resumes
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer stayed blocked after the flusher drained")
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, got := sink.snapshot(); got != "12345678abcdefghZZ" {
		t.Fatalf("downstream bytes = %q, want %q", got, "12345678abcdefghZZ")
	}
}
