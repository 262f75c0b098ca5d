package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"repro/dsu"
	"repro/internal/core"
)

// Binary framing: every message is a 4-byte big-endian payload length
// followed by the payload. The payload opens with a 1-byte kind and an
// 8-byte big-endian sequence number; the body depends on the kind.
//
//	unite/query  [workers i32][grain i32][find u8][flags u8]
//	             [trace u64][span u64]                    (only when flags bit2)
//	             [edges: X u32, Y u32 ...]
//	reply        [merged i64][0 i64][casretries i64][elapsed i64][stats 10×i64]
//	             [find u8][flags u8]
//	             [trace u64][span u64]                    (only when flags bit1)
//	             [answer count u32][answer bitset]        (count+bitset only when flags bit0)
//	error        [utf-8 message]
//	end          [batches u64][edges i64][merged i64][0 i64][failed u64][utf-8 close error]
//	flush        (empty)
//
// Edge counts are never declared — they are derived from the frame length,
// so a count can't contradict the bytes that actually arrived. The answer
// bitset does declare a count (answers aren't byte-aligned) and the
// decoder insists the bitset length matches it exactly. Option flags:
// bit 2 "trace context present" (a 16-byte trace/span pair follows the
// flags byte — optional, so peers that predate tracing still
// interoperate: old frames decode here as untraced, and old decoders
// never see the bit from an untraced sender). Bits 0 and 1 once asked
// for batch filter passes the server no longer has; a frame setting
// them, or any other bit, is corrupt. The zero slots of reply and end
// (and the tenth stats slot) once carried filtered-edge counts: they
// are written as 0 and ignored on read, which keeps both layouts
// unchanged for peers of either age.
// Reply flags: bit 0 "answers present" (distinguishing a unite reply's
// absent answers from a query reply with zero pairs), bit 1 "trace
// context present" (same 16-byte pair, before the answer count). A trace
// extension with a zero trace ID contradicts itself and is rejected as
// corrupt. Stats order is the core.Stats field order — Reads,
// CASAttempts, CASFailures, FindSteps, Rounds, Finds, Links, Rewrites,
// Ops, then the zero slot — and must be revisited if core.Stats grows.
const (
	binHeaderLen = 4
	binMetaLen   = 1 + 8 // kind + seq
	binOptsLen   = 4 + 4 + 1 + 1
	binStatsLen  = 10 * 8
	binReplyLen  = 8 + 8 + 8 + 8 + binStatsLen + 1 + 1
	binEndLen    = 8 + 8 + 8 + 8 + 8
	binTraceLen  = 8 + 8 // optional trace/span extension
)

// Flag bits of the unite/query options byte and the reply flags byte.
const (
	optFlagTrace   = 1 << 2
	repFlagAnswers = 1 << 0
	repFlagTrace   = 1 << 1
)

// Encoder writes envelopes to a stream. Encoders are not safe for
// concurrent use; serialize externally (the server writes from one
// goroutine per connection).
type Encoder struct {
	w      io.Writer
	buf    []byte // working frame, recycled across messages
	pooled bool   // from AcquireEncoder, so ReleaseEncoder may recycle it
}

// NewEncoder returns an encoder writing envelopes to w.
func NewEncoder(w io.Writer, _ Format) *Encoder { return &Encoder{w: w} }

// clamp32 saturates an int into int32 range for the options fields (any
// out-of-range tuning value means "default" or "absurd" downstream anyway).
func clamp32(v int) int32 {
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	if v < math.MinInt32 {
		return math.MinInt32
	}
	return int32(v)
}

func appendOptions(b []byte, o dsu.BatchOptions, trace, span uint64) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(clamp32(o.Workers)))
	b = binary.BigEndian.AppendUint32(b, uint32(clamp32(o.Grain)))
	b = append(b, byte(o.Find))
	var flags byte
	if trace != 0 {
		flags |= optFlagTrace
	}
	b = append(b, flags)
	if trace != 0 {
		b = binary.BigEndian.AppendUint64(b, trace)
		b = binary.BigEndian.AppendUint64(b, span)
	}
	return b
}

func appendEdges(b []byte, edges []dsu.Edge) []byte {
	for _, e := range edges {
		b = binary.BigEndian.AppendUint32(b, e.X)
		b = binary.BigEndian.AppendUint32(b, e.Y)
	}
	return b
}

func appendStats(b []byte, s core.Stats) []byte {
	for _, v := range [...]int64{s.Reads, s.CASAttempts, s.CASFailures, s.FindSteps, s.Rounds, s.Finds, s.Links, s.Rewrites, s.Ops, 0} {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// Encode writes env as one frame, in a single Write.
func (e *Encoder) Encode(env *Envelope) error {
	b := e.buf[:0]
	b = append(b, 0, 0, 0, 0) // length, patched below
	b = append(b, byte(env.Kind))
	b = binary.BigEndian.AppendUint64(b, env.Seq)
	switch env.Kind {
	case KindUnite:
		var req dsu.UniteRequest
		if env.Unite != nil {
			req = *env.Unite
		}
		b = appendOptions(b, req.Options, env.Trace, env.Span)
		b = appendEdges(b, req.Edges)
	case KindQuery:
		var req dsu.QueryRequest
		if env.Query != nil {
			req = *env.Query
		}
		b = appendOptions(b, req.Options, env.Trace, env.Span)
		b = appendEdges(b, req.Pairs)
	case KindFlush:
	case KindReply:
		var rep dsu.BatchReply
		if env.Reply != nil {
			rep = *env.Reply
		}
		b = binary.BigEndian.AppendUint64(b, uint64(rep.Merged))
		b = binary.BigEndian.AppendUint64(b, 0)
		b = binary.BigEndian.AppendUint64(b, uint64(rep.CASRetries))
		b = binary.BigEndian.AppendUint64(b, uint64(int64(rep.Elapsed)))
		b = appendStats(b, rep.Stats)
		b = append(b, byte(rep.Find))
		var rflags byte
		if rep.Answers != nil {
			rflags |= repFlagAnswers
		}
		if env.Trace != 0 {
			rflags |= repFlagTrace
		}
		b = append(b, rflags)
		if env.Trace != 0 {
			b = binary.BigEndian.AppendUint64(b, env.Trace)
			b = binary.BigEndian.AppendUint64(b, env.Span)
		}
		if rep.Answers != nil {
			b = binary.BigEndian.AppendUint32(b, uint32(len(rep.Answers)))
			// Build the bitset in place — appending zero bytes and setting
			// bits directly keeps the steady-state encode allocation-free.
			off := len(b)
			for n := (len(rep.Answers) + 7) / 8; n > 0; n-- {
				b = append(b, 0)
			}
			for i, v := range rep.Answers {
				if v {
					b[off+i/8] |= 1 << (i % 8)
				}
			}
		}
	case KindError:
		b = append(b, env.Error...)
	case KindEnd:
		var end StreamEnd
		if env.End != nil {
			end = *env.End
		}
		b = binary.BigEndian.AppendUint64(b, end.Batches)
		b = binary.BigEndian.AppendUint64(b, uint64(end.Edges))
		b = binary.BigEndian.AppendUint64(b, uint64(end.Merged))
		b = binary.BigEndian.AppendUint64(b, 0)
		b = binary.BigEndian.AppendUint64(b, end.Failed)
		b = append(b, env.Error...) // the close error rides the end frame
	default:
		return fmt.Errorf("%w: cannot encode kind %d", ErrCorruptFrame, env.Kind)
	}
	payload := len(b) - binHeaderLen
	if uint64(payload) > math.MaxUint32 {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b[:4], uint32(payload))
	e.buf = b // recycle the working buffer across messages
	_, err := e.w.Write(b)
	return err
}

// Decoder reads envelopes from a stream into a reusable payload buffer. A
// clean end-of-stream is io.EOF from Decode; a stream that ends inside a
// message is io.ErrUnexpectedEOF. In reuse mode (AcquireDecoder) the
// decoded DTOs live in the decoder's scratch fields too, so a
// steady-state unite/query/reply decode performs no allocation at all —
// the returned envelope is valid only until the next Decode (or
// ReleaseDecoder). Without reuse (NewDecoder) every Decode returns freshly
// allocated DTOs the caller owns outright.
type Decoder struct {
	r        io.Reader
	maxFrame int
	reuse    bool
	head     [binHeaderLen]byte
	buf      []byte

	// Scratch DTOs, used only in reuse mode.
	env     Envelope
	unite   dsu.UniteRequest
	query   dsu.QueryRequest
	reply   dsu.BatchReply
	end     StreamEnd
	edges   []dsu.Edge
	answers []bool
}

// NewDecoder returns a decoder reading envelopes from r, rejecting any
// message larger than maxFrame bytes (values ≤ 0 select DefaultMaxFrame).
func NewDecoder(r io.Reader, _ Format, maxFrame int) *Decoder {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Decoder{r: r, maxFrame: maxFrame}
}

// envelope returns the target envelope for one Decode: the zeroed
// scratch in reuse mode, a fresh allocation otherwise.
func (d *Decoder) envelope() *Envelope {
	if !d.reuse {
		return &Envelope{}
	}
	d.env = Envelope{}
	return &d.env
}

// edgeSlice returns a decode target for n edges, reusing (and growing)
// the scratch slice in reuse mode.
func (d *Decoder) edgeSlice(n int) []dsu.Edge {
	if !d.reuse {
		return make([]dsu.Edge, n)
	}
	if cap(d.edges) < n {
		d.edges = make([]dsu.Edge, n)
	}
	d.edges = d.edges[:n]
	return d.edges
}

// answerSlice is edgeSlice for reply answer vectors. The result is
// non-nil even for n == 0: answers-present-but-empty and answers-absent
// are distinct on the wire and must stay distinct after decode.
func (d *Decoder) answerSlice(n int) []bool {
	if !d.reuse {
		return make([]bool, n)
	}
	if cap(d.answers) < n || d.answers == nil {
		c := n
		if c < 8 {
			c = 8
		}
		d.answers = make([]bool, n, c)
	}
	d.answers = d.answers[:n]
	return d.answers
}

// Decode reads the next envelope.
func (d *Decoder) Decode() (*Envelope, error) {
	if _, err := io.ReadFull(d.r, d.head[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err // io.EOF here is a clean end of stream
	}
	length := int(binary.BigEndian.Uint32(d.head[:]))
	if length > d.maxFrame {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, length, d.maxFrame)
	}
	if length < binMetaLen {
		return nil, fmt.Errorf("%w: %d-byte payload cannot hold kind and sequence", ErrCorruptFrame, length)
	}
	if cap(d.buf) < length {
		putBuf(d.buf) // the payload never escapes Decode, so recycle
		d.buf = getBuf(length)
	}
	p := d.buf[:length]
	if _, err := io.ReadFull(d.r, p); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	env := d.envelope()
	env.Kind, env.Seq = Kind(p[0]), binary.BigEndian.Uint64(p[1:9])
	body := p[9:]
	switch env.Kind {
	case KindUnite:
		opts, edges, err := d.parseBatch(body, env)
		if err != nil {
			return nil, err
		}
		if d.reuse {
			d.unite = dsu.UniteRequest{Edges: edges, Options: opts}
			env.Unite = &d.unite
		} else {
			env.Unite = &dsu.UniteRequest{Edges: edges, Options: opts}
		}
	case KindQuery:
		opts, pairs, err := d.parseBatch(body, env)
		if err != nil {
			return nil, err
		}
		if d.reuse {
			d.query = dsu.QueryRequest{Pairs: pairs, Options: opts}
			env.Query = &d.query
		} else {
			env.Query = &dsu.QueryRequest{Pairs: pairs, Options: opts}
		}
	case KindFlush:
		if len(body) != 0 {
			return nil, fmt.Errorf("%w: flush carries %d stray bytes", ErrCorruptFrame, len(body))
		}
	case KindReply:
		rep := &d.reply
		if !d.reuse {
			rep = &dsu.BatchReply{}
		}
		if err := d.parseReply(body, env, rep); err != nil {
			return nil, err
		}
		env.Reply = rep
	case KindError:
		env.Error = string(body)
	case KindEnd:
		if len(body) < binEndLen {
			return nil, fmt.Errorf("%w: end payload is %d bytes, want ≥ %d", ErrCorruptFrame, len(body), binEndLen)
		}
		end := &d.end
		if !d.reuse {
			end = &StreamEnd{}
		}
		*end = StreamEnd{
			Batches: binary.BigEndian.Uint64(body[0:8]),
			Edges:   int64(binary.BigEndian.Uint64(body[8:16])),
			Merged:  int64(binary.BigEndian.Uint64(body[16:24])),
			Failed:  binary.BigEndian.Uint64(body[32:40]),
		}
		env.End = end
		env.Error = string(body[binEndLen:])
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorruptFrame, p[0])
	}
	return env, nil
}

// parseBatch decodes the shared unite/query body: options, the optional
// trace-context extension (stored straight into env), then a
// length-derived edge list.
func (d *Decoder) parseBatch(body []byte, env *Envelope) (dsu.BatchOptions, []dsu.Edge, error) {
	if len(body) < binOptsLen {
		return dsu.BatchOptions{}, nil, fmt.Errorf("%w: batch body is %d bytes, want ≥ %d", ErrCorruptFrame, len(body), binOptsLen)
	}
	if flags := body[9]; flags&^optFlagTrace != 0 {
		return dsu.BatchOptions{}, nil, fmt.Errorf("%w: batch option flag byte %d", ErrCorruptFrame, flags)
	}
	opts := dsu.BatchOptions{
		Workers: int(int32(binary.BigEndian.Uint32(body[0:4]))),
		Grain:   int(int32(binary.BigEndian.Uint32(body[4:8]))),
		Find:    dsu.FindStrategy(body[8]),
	}
	raw := body[binOptsLen:]
	if body[9]&optFlagTrace != 0 {
		if len(raw) < binTraceLen {
			return dsu.BatchOptions{}, nil, fmt.Errorf("%w: trace context truncated", ErrCorruptFrame)
		}
		env.Trace = binary.BigEndian.Uint64(raw[0:8])
		env.Span = binary.BigEndian.Uint64(raw[8:16])
		if env.Trace == 0 {
			return dsu.BatchOptions{}, nil, fmt.Errorf("%w: trace context with zero trace id", ErrCorruptFrame)
		}
		raw = raw[binTraceLen:]
	}
	if len(raw)%8 != 0 {
		return dsu.BatchOptions{}, nil, fmt.Errorf("%w: %d edge bytes are not a multiple of 8", ErrCorruptFrame, len(raw))
	}
	var edges []dsu.Edge
	if len(raw) > 0 {
		edges = d.edgeSlice(len(raw) / 8)
		for i := range edges {
			edges[i].X = binary.BigEndian.Uint32(raw[i*8:])
			edges[i].Y = binary.BigEndian.Uint32(raw[i*8+4:])
		}
	}
	return opts, edges, nil
}

func parseStats(b []byte) core.Stats {
	at := func(i int) int64 { return int64(binary.BigEndian.Uint64(b[i*8:])) }
	return core.Stats{
		Reads: at(0), CASAttempts: at(1), CASFailures: at(2), FindSteps: at(3),
		Rounds: at(4), Finds: at(5), Links: at(6), Rewrites: at(7), Ops: at(8),
	}
}

func (d *Decoder) parseReply(body []byte, env *Envelope, rep *dsu.BatchReply) error {
	if len(body) < binReplyLen {
		return fmt.Errorf("%w: reply body is %d bytes, want ≥ %d", ErrCorruptFrame, len(body), binReplyLen)
	}
	*rep = dsu.BatchReply{
		Merged:     int64(binary.BigEndian.Uint64(body[0:8])),
		CASRetries: int64(binary.BigEndian.Uint64(body[16:24])),
		Elapsed:    time.Duration(binary.BigEndian.Uint64(body[24:32])),
		Stats:      parseStats(body[32 : 32+binStatsLen]),
		Find:       dsu.FindStrategy(body[32+binStatsLen]),
	}
	rflags := body[32+binStatsLen+1]
	if rflags&^(repFlagAnswers|repFlagTrace) != 0 {
		return fmt.Errorf("%w: reply flag byte %d", ErrCorruptFrame, rflags)
	}
	rest := body[binReplyLen:]
	if rflags&repFlagTrace != 0 {
		if len(rest) < binTraceLen {
			return fmt.Errorf("%w: reply trace context truncated", ErrCorruptFrame)
		}
		env.Trace = binary.BigEndian.Uint64(rest[0:8])
		env.Span = binary.BigEndian.Uint64(rest[8:16])
		if env.Trace == 0 {
			return fmt.Errorf("%w: trace context with zero trace id", ErrCorruptFrame)
		}
		rest = rest[binTraceLen:]
	}
	if rflags&repFlagAnswers == 0 {
		if len(rest) != 0 {
			return fmt.Errorf("%w: reply without answers carries %d stray bytes", ErrCorruptFrame, len(rest))
		}
		return nil
	}
	if len(rest) < 4 {
		return fmt.Errorf("%w: reply answer count truncated", ErrCorruptFrame)
	}
	count := int(binary.BigEndian.Uint32(rest[0:4]))
	bits := rest[4:]
	if len(bits) != (count+7)/8 {
		return fmt.Errorf("%w: %d answers need %d bitset bytes, frame has %d", ErrCorruptFrame, count, (count+7)/8, len(bits))
	}
	rep.Answers = d.answerSlice(count)
	for i := range rep.Answers {
		rep.Answers[i] = bits[i/8]&(1<<(i%8)) != 0
	}
	return nil
}
