package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/dsu"
)

// JSON debug mode: one envelope per line (NDJSON), the kind spelled as a
// string, empty fields omitted — framing a human can speak with curl and
// read in a terminal. Same model, same limits as the binary framing: a
// line longer than the decoder's maxFrame is rejected as ErrFrameTooLarge,
// a line that isn't a well-formed envelope as ErrCorruptFrame, and a
// stream ending without a final newline still yields its last line. The
// dsu DTOs marshal under their own JSON tags, so what travels here is
// exactly the tenant-API vocabulary — and nothing else: a line carrying a
// key the envelope or its DTOs do not define (a retired option, a typo)
// is ErrCorruptFrame, as the binary framing refuses unknown flag bits,
// rather than a batch run without the knob its sender asked for.
// Trace context travels as two optional numeric fields; omitted keys
// mean untraced, so pre-tracing peers read and write the same lines they
// always did, and a "span" without a "trace" is rejected just as the
// binary framing rejects a zero-ID trace extension.
type jsonEnvelope struct {
	Kind  string            `json:"kind"`
	Seq   uint64            `json:"seq,omitempty"`
	Trace uint64            `json:"trace,omitempty"`
	Span  uint64            `json:"span,omitempty"`
	Unite *dsu.UniteRequest `json:"unite,omitempty"`
	Query *dsu.QueryRequest `json:"query,omitempty"`
	Reply *dsu.BatchReply   `json:"reply,omitempty"`
	End   *StreamEnd        `json:"end,omitempty"`
	Error string            `json:"error,omitempty"`
}

// jsonEncoder carries per-connection state: one persistent json.Encoder
// (whose internal buffer is reused across envelopes — no fresh marshal
// output slice per line) and one scratch jsonEnvelope. Encoding is not
// allocation-free — encoding/json reflects — but the per-envelope
// garbage is bounded and the wire bytes are identical to json.Marshal's
// (same HTML escaping, same trailing newline).
type jsonEncoder struct {
	enc *json.Encoder
	je  jsonEnvelope // scratch, rebuilt per Encode
}

func newJSONEncoder(w io.Writer) *jsonEncoder { return &jsonEncoder{enc: json.NewEncoder(w)} }

func (e *jsonEncoder) Encode(env *Envelope) error {
	if kindFromString(env.Kind.String()) == 0 {
		return fmt.Errorf("%w: cannot encode kind %d", ErrCorruptFrame, env.Kind)
	}
	e.je = jsonEnvelope{
		Kind:  env.Kind.String(),
		Seq:   env.Seq,
		Unite: env.Unite,
		Query: env.Query,
		Reply: env.Reply,
		End:   env.End,
		Error: env.Error,
	}
	je := &e.je
	if env.Trace != 0 { // a span without a trace is not a context
		je.Trace = env.Trace
		je.Span = env.Span
	}
	// Materialize the kind's body when the caller left it nil, exactly as
	// the binary encoder does, so every encoded envelope satisfies the
	// decoder's kind→body invariant.
	switch {
	case env.Kind == KindUnite && je.Unite == nil:
		je.Unite = &dsu.UniteRequest{}
	case env.Kind == KindQuery && je.Query == nil:
		je.Query = &dsu.QueryRequest{}
	case env.Kind == KindReply && je.Reply == nil:
		je.Reply = &dsu.BatchReply{}
	case env.Kind == KindEnd && je.End == nil:
		je.End = &StreamEnd{}
	}
	// json.Encoder writes the marshaled line and its trailing newline as
	// one Write, which the coalescing writer counts as one frame.
	return e.enc.Encode(je)
}

type jsonDecoder struct {
	sc       *bufio.Scanner
	maxFrame int
}

func newJSONDecoder(r io.Reader, maxFrame int) *jsonDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxFrame)
	return &jsonDecoder{sc: sc, maxFrame: maxFrame}
}

func (d *jsonDecoder) Decode() (*Envelope, error) {
	for {
		if !d.sc.Scan() {
			if err := d.sc.Err(); err != nil {
				if errors.Is(err, bufio.ErrTooLong) {
					return nil, fmt.Errorf("%w: line exceeds %d bytes", ErrFrameTooLarge, d.maxFrame)
				}
				return nil, err
			}
			return nil, io.EOF
		}
		line := d.sc.Bytes()
		if len(line) == 0 {
			continue // blank lines are friendly in a debug protocol
		}
		var je jsonEnvelope
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&je); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptFrame, err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return nil, fmt.Errorf("%w: data after the envelope", ErrCorruptFrame)
		}
		kind := kindFromString(je.Kind)
		if kind == 0 {
			return nil, fmt.Errorf("%w: unknown kind %q", ErrCorruptFrame, je.Kind)
		}
		if je.Trace == 0 && je.Span != 0 {
			return nil, fmt.Errorf("%w: span without a trace id", ErrCorruptFrame)
		}
		// Enforce the kind→body invariant the binary framing guarantees by
		// construction, so consumers can dereference the kind's body
		// without nil checks regardless of which encoding carried it.
		switch {
		case kind == KindUnite && je.Unite == nil,
			kind == KindQuery && je.Query == nil,
			kind == KindReply && je.Reply == nil,
			kind == KindEnd && je.End == nil:
			return nil, fmt.Errorf("%w: %q envelope without its body", ErrCorruptFrame, je.Kind)
		}
		return &Envelope{
			Kind:  kind,
			Seq:   je.Seq,
			Trace: je.Trace,
			Span:  je.Span,
			Unite: je.Unite,
			Query: je.Query,
			Reply: je.Reply,
			End:   je.End,
			Error: je.Error,
		}, nil
	}
}
