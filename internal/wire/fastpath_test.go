package wire

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/dsu"
)

// TestPooledRoundTrip is TestRoundTrip for the pooled codecs: any
// well-formed envelope survives AcquireEncoder→AcquireDecoder exactly,
// compared immediately (the pooled ownership window) across back-to-back
// sequences on one connection-lifetime codec pair.
func TestPooledRoundTrip(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		var buf bytes.Buffer
		enc := AcquireEncoder(&buf, Binary)
		defer ReleaseEncoder(enc)
		want := make([]*Envelope, 200)
		for i := range want {
			want[i] = randomEnvelope(rng)
			if err := enc.Encode(want[i]); err != nil {
				t.Fatalf("encode #%d: %v", i, err)
			}
		}
		dec := AcquireDecoder(&buf, Binary, DefaultMaxFrame)
		defer ReleaseDecoder(dec)
		for i := range want {
			got, err := dec.Decode()
			if err != nil {
				t.Fatalf("decode #%d: %v", i, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("envelope #%d:\n got %+v\nwant %+v", i, got, want[i])
			}
		}
		if _, err := dec.Decode(); err != io.EOF {
			t.Fatalf("decode past end = %v, want io.EOF", err)
		}
	})
}

// steadyStateEnvelopes is the batch-path working set the zero-alloc
// target covers: a unite, a query, and a reply with answers, traced and
// untraced.
func steadyStateEnvelopes() []*Envelope {
	edges := []dsu.Edge{{X: 1, Y: 2}, {X: 3, Y: 4}, {X: 5, Y: 6}}
	return []*Envelope{
		{Kind: KindUnite, Seq: 1, Unite: &dsu.UniteRequest{Edges: edges}},
		{Kind: KindQuery, Seq: 2, Trace: 0xbeef, Span: 4,
			Query: &dsu.QueryRequest{Pairs: edges, Options: dsu.BatchOptions{Workers: 4}}},
		{Kind: KindReply, Seq: 2, Trace: 0xbeef, Span: 4,
			Reply: &dsu.BatchReply{Merged: 3, Answers: []bool{true, false, true}}},
		{Kind: KindFlush, Seq: 3},
	}
}

// TestPooledCodecAllocs pins the tentpole target: steady-state binary
// encode and decode of unite/query/reply envelopes through acquired
// codecs perform zero allocations. CI runs BenchmarkWireFastPath with
// the same pin; this is the fast in-tree guard.
func TestPooledCodecAllocs(t *testing.T) {
	envs := steadyStateEnvelopes()

	enc := AcquireEncoder(io.Discard, Binary)
	defer ReleaseEncoder(enc)
	if allocs := testing.AllocsPerRun(200, func() {
		for _, env := range envs {
			if err := enc.Encode(env); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("pooled binary encode: %.1f allocs/run, want 0", allocs)
	}

	var buf bytes.Buffer
	wireEnc := NewEncoder(&buf, Binary)
	for _, env := range envs {
		if err := wireEnc.Encode(env); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()
	r := bytes.NewReader(data)
	dec := AcquireDecoder(r, Binary, DefaultMaxFrame)
	defer ReleaseDecoder(dec)
	if allocs := testing.AllocsPerRun(200, func() {
		r.Reset(data)
		for i := 0; i < len(envs); i++ {
			if _, err := dec.Decode(); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("pooled binary decode: %.1f allocs/run, want 0", allocs)
	}
}

// copyReply deep-copies a reply envelope the way Client.rpc does —
// the documented escape hatch for callers whose replies must outlive
// the pooled decoder's ownership window.
func copyReply(env *Envelope) (Envelope, dsu.BatchReply) {
	cp := *env
	rep := *env.Reply
	if rep.Answers != nil {
		rep.Answers = append(make([]bool, 0, len(rep.Answers)), rep.Answers...)
	}
	cp.Reply = &rep
	return cp, rep
}

// TestPooledReplyCopyOutSurvivesReuse is the satellite-1 regression: a
// reply copied out of a pooled decoder stays intact when the next Decode
// mutates the recycled scratch underneath the original envelope.
func TestPooledReplyCopyOutSurvivesReuse(t *testing.T) {
	first := &Envelope{Kind: KindReply, Seq: 1, Reply: &dsu.BatchReply{
		Merged: 7, CASRetries: 3, Answers: []bool{true, false, true, true}}}
	second := &Envelope{Kind: KindReply, Seq: 2, Reply: &dsu.BatchReply{
		Merged: -100, CASRetries: 999, Answers: []bool{false, true, false, false}}}

	var buf bytes.Buffer
	enc := NewEncoder(&buf, Binary)
	for _, env := range []*Envelope{first, second} {
		if err := enc.Encode(env); err != nil {
			t.Fatal(err)
		}
	}
	dec := AcquireDecoder(&buf, Binary, DefaultMaxFrame)
	defer ReleaseDecoder(dec)

	got1, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	cp, rep := copyReply(got1)

	// The second Decode reuses the scratch backing got1 and cp's source.
	got2, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, second) {
		t.Fatalf("second decode:\n got %+v\nwant %+v", got2, second)
	}
	if got1.Reply.Merged != second.Reply.Merged {
		t.Fatalf("scratch semantics changed: first envelope no longer aliases the recycled buffer (Merged=%d)", got1.Reply.Merged)
	}
	// The copy must be untouched by the overwrite.
	if !reflect.DeepEqual(&cp, first) || !reflect.DeepEqual(rep.Answers, first.Reply.Answers) {
		t.Fatalf("copied reply mutated by scratch reuse:\n got %+v\nwant %+v", &cp, first)
	}
}

// TestUnpooledDecoderKeepsOwnership pins the NewDecoder contract the
// fast path must not erode: envelopes from an unpooled decoder stay
// valid after later Decodes.
func TestUnpooledDecoderKeepsOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Binary)
	want := make([]*Envelope, 20)
	for i := range want {
		want[i] = randomEnvelope(rng)
		if err := enc.Encode(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf, Binary, DefaultMaxFrame)
	got := make([]*Envelope, 0, len(want))
	for range want {
		env, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, env) // retained across Decodes on purpose
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("retained envelope #%d changed:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestReleaseIsSafe pins the release edge cases: releasing nil codecs,
// unpooled codecs, or the same codec twice must all be no-ops.
func TestReleaseIsSafe(t *testing.T) {
	ReleaseEncoder(nil)
	ReleaseDecoder(nil)
	var buf bytes.Buffer
	ReleaseEncoder(NewEncoder(&buf, Binary))
	ReleaseDecoder(NewDecoder(&buf, Binary, DefaultMaxFrame))

	enc := AcquireEncoder(&buf, Binary)
	ReleaseEncoder(enc)
	ReleaseEncoder(enc)
	dec := AcquireDecoder(&buf, Binary, DefaultMaxFrame)
	ReleaseDecoder(dec)
	ReleaseDecoder(dec)
}

// TestBufPoolClasses pins the size-class arithmetic: a recycled buffer
// is only ever handed back from a class whose size it fully covers.
func TestBufPoolClasses(t *testing.T) {
	for _, n := range []int{1, 1 << 10, (1 << 10) + 1, 1 << 15, 1 << 24} {
		b := getBuf(n)
		if cap(b) < n || len(b) != 0 {
			t.Fatalf("getBuf(%d): len=%d cap=%d", n, len(b), cap(b))
		}
		putBuf(b)
	}
	// Oversized buffers are not pooled but still served.
	big := getBuf(1<<24 + 1)
	if cap(big) < 1<<24+1 {
		t.Fatalf("oversized getBuf: cap=%d", cap(big))
	}
	putBuf(big) // dropped silently

	// A buffer recycled into a class must satisfy any request the class
	// serves: put a 3 KiB buffer, ask for sizes around its class.
	putBuf(make([]byte, 0, 3<<10))
	for i := 0; i < 10; i++ {
		b := getBuf(2 << 10)
		if cap(b) < 2<<10 {
			t.Fatalf("class served undersized buffer: cap=%d want ≥ %d", cap(b), 2<<10)
		}
	}
}
