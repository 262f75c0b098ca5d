package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/dsu"
	"repro/internal/core"
)

// randomEnvelope draws one arbitrary well-formed envelope. Edge lists are
// nil or non-empty — the codec's one canonicalization (a nil edge list and
// an absent one are indistinguishable on the wire); reply Answers exercise
// nil, empty, and populated, which must all round-trip exactly.
func randomEnvelope(rng *rand.Rand) *Envelope {
	edges := func() []dsu.Edge {
		n := rng.Intn(5)
		if n == 0 {
			return nil
		}
		out := make([]dsu.Edge, rng.Intn(64)+1)
		for i := range out {
			out[i] = dsu.Edge{X: rng.Uint32(), Y: rng.Uint32()}
		}
		return out
	}
	opts := func() dsu.BatchOptions {
		return dsu.BatchOptions{
			Workers: rng.Intn(65) - 32,
			Grain:   rng.Intn(5000) - 100,
			Find:    dsu.FindStrategy(rng.Intn(7)),
		}
	}
	env := &Envelope{Seq: rng.Uint64()}
	// Trace context rides unite/query/reply envelopes; the generator
	// attaches one about half the time so every property below covers
	// traced and untraced frames alike. Span without Trace is not a
	// context, so Span is drawn only alongside a nonzero Trace (and may
	// itself be zero — "link to the root").
	trace := func() {
		if rng.Intn(2) == 0 {
			return
		}
		env.Trace = rng.Uint64()
		if env.Trace == 0 {
			env.Trace = 1
		}
		env.Span = rng.Uint64() % 4
	}
	switch rng.Intn(6) {
	case 0:
		env.Kind = KindUnite
		env.Unite = &dsu.UniteRequest{Edges: edges(), Options: opts()}
		trace()
	case 1:
		env.Kind = KindQuery
		env.Query = &dsu.QueryRequest{Pairs: edges(), Options: opts()}
		trace()
	case 2:
		env.Kind = KindFlush
	case 3:
		env.Kind = KindReply
		rep := &dsu.BatchReply{
			Merged:     rng.Int63() - rng.Int63(),
			Find:       dsu.FindStrategy(rng.Intn(6)),
			CASRetries: rng.Int63n(1 << 30),
			Elapsed:    time.Duration(rng.Int63n(1 << 40)),
			Stats: core.Stats{
				Reads: rng.Int63n(1 << 30), CASAttempts: rng.Int63n(1 << 30), CASFailures: rng.Int63n(1 << 20),
				FindSteps: rng.Int63n(1 << 30), Rounds: rng.Int63n(1 << 20), Finds: rng.Int63n(1 << 30),
				Links: rng.Int63n(1 << 20), Rewrites: rng.Int63n(1 << 20), Ops: rng.Int63n(1 << 30),
			},
		}
		if rng.Intn(3) != 0 {
			// Sometimes empty-but-present: a zero-pair query's reply must
			// round-trip identically (nil means "unite reply, no answers").
			rep.Answers = make([]bool, rng.Intn(100))
			for i := range rep.Answers {
				rep.Answers[i] = rng.Intn(2) == 0
			}
		}
		env.Reply = rep
		trace()
	case 4:
		env.Kind = KindError
		env.Error = "tenant \"x\" not found — try again\n…"
	case 5:
		env.Kind = KindEnd
		env.End = &StreamEnd{Batches: rng.Uint64() % 1000, Edges: rng.Int63n(1 << 40), Merged: rng.Int63n(1 << 40), Failed: rng.Uint64() % 10}
		if rng.Intn(2) == 0 {
			env.Error = "context canceled" // the close error rides the end frame
		}
	}
	return env
}

// TestRoundTrip is the codec property test: any well-formed envelope
// survives encode→decode exactly, alone and in back-to-back sequences on
// one stream.
func TestRoundTrip(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		var buf bytes.Buffer
		enc := NewEncoder(&buf, Binary)
		var want []*Envelope
		for i := 0; i < 500; i++ {
			env := randomEnvelope(rng)
			if err := enc.Encode(env); err != nil {
				t.Fatalf("encode %d: %v", i, err)
			}
			want = append(want, env)
		}
		dec := NewDecoder(&buf, Binary, 0)
		for i, w := range want {
			got, err := dec.Decode()
			if err != nil {
				t.Fatalf("decode %d: %v", i, err)
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("round trip %d:\n got %+v\nwant %+v", i, got, w)
			}
		}
		if _, err := dec.Decode(); err != io.EOF {
			t.Fatalf("trailing Decode = %v, want io.EOF", err)
		}
	})
}

// TestTruncatedFrames cuts a valid binary stream at every byte boundary:
// the decoder must report a clean io.EOF only at frame boundaries,
// io.ErrUnexpectedEOF everywhere else, and never panic or misdecode.
func TestTruncatedFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Binary)
	var boundaries []int
	for i := 0; i < 8; i++ {
		if err := enc.Encode(randomEnvelope(rng)); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, buf.Len())
	}
	full := buf.Bytes()
	atBoundary := map[int]bool{0: true}
	for _, b := range boundaries {
		atBoundary[b] = true
	}
	for cut := 0; cut <= len(full); cut++ {
		dec := NewDecoder(bytes.NewReader(full[:cut]), Binary, 0)
		var err error
		for {
			if _, err = dec.Decode(); err != nil {
				break
			}
		}
		if atBoundary[cut] {
			if err != io.EOF {
				t.Fatalf("cut at boundary %d: err = %v, want io.EOF", cut, err)
			}
		} else if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut mid-frame at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestOversizedFrames checks both directions of the size limit: a header
// declaring more than maxFrame is rejected before any allocation, and an
// encoded frame past a decoder's limit is refused on decode.
func TestOversizedFrames(t *testing.T) {
	// A 4 GiB-declaring header against a 1 KiB limit.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := NewDecoder(bytes.NewReader(huge), Binary, 1024).Decode(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("binary oversize err = %v, want ErrFrameTooLarge", err)
	}
	// A frame within the limit but truncated mid-payload.
	short := []byte{0x00, 0x00, 0x00, 0x20, byte(KindFlush)}
	if _, err := NewDecoder(bytes.NewReader(short), Binary, 1024).Decode(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("binary truncated err = %v, want io.ErrUnexpectedEOF", err)
	}
	// An oversized *encode* must refuse rather than emit an unreadable frame.
	env := &Envelope{Kind: KindUnite, Unite: &dsu.UniteRequest{Edges: make([]dsu.Edge, 100)}}
	var buf bytes.Buffer
	if err := NewEncoder(&buf, Binary).Encode(env); err != nil {
		t.Fatalf("encode within uint32: %v", err)
	}
	dec := NewDecoder(&buf, Binary, 64)
	if _, err := dec.Decode(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("decode with small limit = %v, want ErrFrameTooLarge", err)
	}
}

// retiredFlagFrame is a one-edge binary batch frame of the given kind
// whose options byte carries flags — valid in every other respect.
func retiredFlagFrame(kind Kind, flags byte) []byte {
	return []byte{
		0, 0, 0, 27, // payload length: 9 meta + 10 opts + 8 edge
		byte(kind), 0, 0, 0, 0, 0, 0, 0, 1, // kind, seq=1
		0, 0, 0, 0, 0, 0, 0, 0, // workers, grain
		0, flags, // find, flags
		0, 0, 0, 1, 0, 0, 0, 2, // edge {1,2}
	}
}

// TestCorruptFrames feeds structurally inconsistent payloads: wrong edge
// alignment, bitset/count mismatches, unknown kinds, stray bytes.
func TestCorruptFrames(t *testing.T) {
	frame := func(payload ...byte) []byte {
		out := []byte{0, 0, 0, byte(len(payload))}
		return append(out, payload...)
	}
	meta := func(kind Kind) []byte {
		return append([]byte{byte(kind)}, 0, 0, 0, 0, 0, 0, 0, 0)
	}
	cases := map[string][]byte{
		"unknown kind":      frame(meta(Kind(99))...),
		"short meta":        frame(byte(KindUnite), 0, 0),
		"misaligned edges":  frame(append(meta(KindUnite), make([]byte, binOptsLen+3)...)...),
		"short options":     frame(append(meta(KindQuery), 1, 2, 3)...),
		"stray flush bytes": frame(append(meta(KindFlush), 1)...),
		"short reply":       frame(append(meta(KindReply), make([]byte, 10)...)...),
		"short end":         frame(append(meta(KindEnd), make([]byte, 8)...)...),
		"bad reply flag": frame(func() []byte {
			b := append(meta(KindReply), make([]byte, binReplyLen)...)
			b[len(b)-1] = 7
			return b
		}()...),
		"bitset mismatch": frame(func() []byte {
			b := append(meta(KindReply), make([]byte, binReplyLen)...)
			b[len(b)-1] = 1                      // answers present
			b = append(b, 0, 0, 0, 100)          // 100 answers…
			return append(b, make([]byte, 2)...) // …but 2 bitset bytes
		}()...),
		"truncated unite trace": frame(func() []byte {
			b := append(meta(KindUnite), make([]byte, binOptsLen)...)
			b[len(b)-1] = 4              // trace context present…
			return append(b, 1, 2, 3, 4) // …but only 4 of 16 bytes
		}()...),
		"zero unite trace id": frame(func() []byte {
			b := append(meta(KindUnite), make([]byte, binOptsLen)...)
			b[len(b)-1] = 4                                // trace context present…
			return append(b, make([]byte, binTraceLen)...) // …with trace id 0
		}()...),
		"truncated reply trace": frame(func() []byte {
			b := append(meta(KindReply), make([]byte, binReplyLen)...)
			b[len(b)-1] = 2 // trace context present, no bytes follow
			return b
		}()...),
		"zero reply trace id": frame(func() []byte {
			b := append(meta(KindReply), make([]byte, binReplyLen)...)
			b[len(b)-1] = 2
			return append(b, make([]byte, binTraceLen)...)
		}()...),
		// Bits 0 and 1 of the options byte once asked for the prefilter and
		// the connected screen; a frame still setting them is refused.
		"retired prefilter flag": retiredFlagFrame(KindUnite, 1),
		"retired connected flag": retiredFlagFrame(KindQuery, 2),
		"unknown option flag":    retiredFlagFrame(KindUnite, 8),
	}
	for name, raw := range cases {
		if _, err := NewDecoder(bytes.NewReader(raw), Binary, 0).Decode(); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: err = %v, want ErrCorruptFrame", name, err)
		}
	}
}

// TestTraceContextRoundTrip pins the trace fields explicitly: a traced
// unite, query, and reply each survive exactly, and an untraced envelope
// stays untraced.
func TestTraceContextRoundTrip(t *testing.T) {
	cases := []*Envelope{
		{Kind: KindUnite, Seq: 1, Trace: 0xdeadbeefcafef00d, Span: 1,
			Unite: &dsu.UniteRequest{Edges: []dsu.Edge{{X: 1, Y: 2}}}},
		{Kind: KindQuery, Seq: 2, Trace: 42,
			Query: &dsu.QueryRequest{Pairs: []dsu.Edge{{X: 3, Y: 4}}}},
		{Kind: KindReply, Seq: 3, Trace: ^uint64(0), Span: 1,
			Reply: &dsu.BatchReply{Merged: 5, Answers: []bool{true, false, true}}},
		{Kind: KindUnite, Seq: 4, Unite: &dsu.UniteRequest{}},
	}
	for i, env := range cases {
		var buf bytes.Buffer
		if err := NewEncoder(&buf, Binary).Encode(env); err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got, err := NewDecoder(&buf, Binary, 0).Decode()
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Fatalf("case %d:\n got %+v\nwant %+v", i, got, env)
		}
	}
	// A Span without a Trace is not a context: the encoder drops it, so it
	// must NOT survive the trip.
	orphan := &Envelope{Kind: KindFlush, Seq: 9, Span: 77}
	var buf bytes.Buffer
	if err := NewEncoder(&buf, Binary).Encode(orphan); err != nil {
		t.Fatalf("encode orphan span: %v", err)
	}
	got, err := NewDecoder(&buf, Binary, 0).Decode()
	if err != nil {
		t.Fatalf("decode orphan span: %v", err)
	}
	if got.Trace != 0 || got.Span != 0 {
		t.Fatalf("orphan span survived: %+v", got)
	}
}

// TestUntracedFramesCompat decodes hand-built pre-tracing frames — the
// exact bytes an old peer emits — proving the trace extension is purely
// additive: no flag bit, no extension bytes, untraced envelope out.
func TestUntracedFramesCompat(t *testing.T) {
	// Binary unite: header + kind/seq + options(no flags, no trace bit)
	// + one edge.
	unite := []byte{
		0, 0, 0, 27, // payload length: 9 meta + 10 opts + 8 edge
		byte(KindUnite), 0, 0, 0, 0, 0, 0, 0, 7, // kind, seq=7
		0, 0, 0, 2, // workers=2
		0, 0, 0, 0, // grain=0
		0,                      // find
		0,                      // flags: none
		0, 0, 0, 1, 0, 0, 0, 2, // edge {1,2}
	}
	env, err := NewDecoder(bytes.NewReader(unite), Binary, 0).Decode()
	if err != nil {
		t.Fatalf("old unite frame: %v", err)
	}
	if env.Trace != 0 || env.Span != 0 || env.Unite.Options.Workers != 2 ||
		len(env.Unite.Edges) != 1 || env.Unite.Edges[0] != (dsu.Edge{X: 1, Y: 2}) {
		t.Fatalf("old unite frame decoded as %+v", env)
	}
	// Binary reply: fixed part with flags byte 1 (answers, no trace),
	// then count+bitset — the pre-tracing flag byte held only 0 or 1.
	body := make([]byte, binReplyLen)
	body[binReplyLen-1] = 1
	body = append(body, 0, 0, 0, 2, 0b01)
	reply := append([]byte{0, 0, 0, byte(9 + len(body)), byte(KindReply), 0, 0, 0, 0, 0, 0, 0, 1}, body...)
	env, err = NewDecoder(bytes.NewReader(reply), Binary, 0).Decode()
	if err != nil {
		t.Fatalf("old reply frame: %v", err)
	}
	if env.Trace != 0 || len(env.Reply.Answers) != 2 || !env.Reply.Answers[0] || env.Reply.Answers[1] {
		t.Fatalf("old reply frame decoded as %+v", env)
	}
}

// TestFormatFor pins the content-type check the HTTP layer relies on:
// the binary media type with parameters or in any case, and the empty
// default, are accepted; every other type is refused.
func TestFormatFor(t *testing.T) {
	for _, ct := range []string{
		"",
		ContentTypeBinary,
		ContentTypeBinary + "; version=1",
		"APPLICATION/X-DSU-BATCH", // media types are case-insensitive
	} {
		if !FormatFor(ct) {
			t.Errorf("FormatFor(%q) refused", ct)
		}
	}
	for _, ct := range []string{
		"application/json",
		"application/json; charset=utf-8",
		"application/x-ndjson",
		"text/html",
	} {
		if FormatFor(ct) {
			t.Errorf("FormatFor(%q) accepted", ct)
		}
	}
}

// FuzzBinaryDecode drives arbitrary bytes through the binary decoder: it
// must never panic, and whatever it does decode must re-encode and decode
// back to the same envelope (decode ∘ encode is the identity on the
// decoder's image).
func FuzzBinaryDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	var seed bytes.Buffer
	enc := NewEncoder(&seed, Binary)
	for i := 0; i < 6; i++ {
		_ = enc.Encode(randomEnvelope(rng))
	}
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	// Traced frames: a unite and a reply carrying the trace extension.
	var traced bytes.Buffer
	enc = NewEncoder(&traced, Binary)
	_ = enc.Encode(&Envelope{Kind: KindUnite, Seq: 1, Trace: 0xabc, Span: 1,
		Unite: &dsu.UniteRequest{Edges: []dsu.Edge{{X: 1, Y: 2}}}})
	_ = enc.Encode(&Envelope{Kind: KindReply, Seq: 1, Trace: 0xabc, Span: 1,
		Reply: &dsu.BatchReply{Answers: []bool{true}}})
	f.Add(traced.Bytes())
	// Back-to-back frames, the pooled decoder's interesting regime: the
	// second decode reuses scratch the first one filled.
	var pair bytes.Buffer
	enc = NewEncoder(&pair, Binary)
	for i := 0; i < 2; i++ {
		_ = enc.Encode(&Envelope{Kind: KindUnite, Seq: uint64(i),
			Unite: &dsu.UniteRequest{Edges: []dsu.Edge{{X: 7, Y: 9}, {X: 3, Y: 4}}}})
	}
	f.Add(pair.Bytes())
	var mixed bytes.Buffer
	enc = NewEncoder(&mixed, Binary)
	_ = enc.Encode(&Envelope{Kind: KindUnite, Seq: 1,
		Unite: &dsu.UniteRequest{Edges: []dsu.Edge{{X: 1, Y: 2}, {X: 5, Y: 6}, {X: 8, Y: 9}}}})
	_ = enc.Encode(&Envelope{Kind: KindReply, Seq: 1,
		Reply: &dsu.BatchReply{Merged: 3, Answers: []bool{true, false, true}}})
	_ = enc.Encode(&Envelope{Kind: KindUnite, Seq: 2,
		Unite: &dsu.UniteRequest{Edges: []dsu.Edge{{X: 10, Y: 11}}}})
	f.Add(mixed.Bytes())
	// Frames setting the retired filter bits of the options byte.
	f.Add(retiredFlagFrame(KindUnite, 1))
	f.Add(retiredFlagFrame(KindQuery, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data), Binary, 1<<20)
		// The pooled decoder reads the same bytes in lockstep; any place
		// where scratch reuse changes the result (cross-frame state leak,
		// stale field merge) shows up as a per-step mismatch.
		pooled := AcquireDecoder(bytes.NewReader(data), Binary, 1<<20)
		defer ReleaseDecoder(pooled)
		for {
			env, err := dec.Decode()
			penv, perr := pooled.Decode()
			if (err == nil) != (perr == nil) {
				t.Fatalf("pooled decoder diverged: plain err=%v pooled err=%v", err, perr)
			}
			if err != nil {
				return
			}
			if !reflect.DeepEqual(env, penv) {
				t.Fatalf("pooled decode differs from plain:\n got %+v\nwant %+v", penv, env)
			}
			var buf bytes.Buffer
			if err := NewEncoder(&buf, Binary).Encode(env); err != nil {
				t.Fatalf("re-encode of decoded envelope failed: %v", err)
			}
			again, err := NewDecoder(&buf, Binary, 1<<20).Decode()
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(env, again) {
				t.Fatalf("decode∘encode not identity:\n got %+v\nwant %+v", again, env)
			}
		}
	})
}
