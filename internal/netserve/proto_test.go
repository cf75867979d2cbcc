package netserve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"hdam/internal/serve"
)

// TestQueryFrameRoundTrip encodes and decodes query frames across the
// protocol's edge shapes: one query, a full batch, empty texts, the largest
// legal text.
func TestQueryFrameRoundTrip(t *testing.T) {
	cases := [][]string{
		{"the quick brown fox"},
		{"", "a", strings.Repeat("x", MaxTextLen)},
		make([]string, MaxBatchPerFrame),
	}
	for ci, texts := range cases {
		for i := range texts {
			if texts[i] == "" && ci == 2 {
				texts[i] = "q"
			}
		}
		raw, err := AppendQueryFrame(nil, uint64(ci)+7, 1500, texts)
		if err != nil {
			t.Fatalf("case %d: encode: %v", ci, err)
		}
		f, _, err := ReadFrame(bytes.NewReader(raw), nil)
		if err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if f.Type != TypeQuery || f.ID != uint64(ci)+7 || f.BudgetUs != 1500 {
			t.Fatalf("case %d: header round trip: %+v", ci, f)
		}
		if len(f.Queries) != len(texts) {
			t.Fatalf("case %d: %d queries, want %d", ci, len(f.Queries), len(texts))
		}
		for i := range texts {
			if f.Queries[i] != texts[i] {
				t.Fatalf("case %d: query %d = %q, want %q", ci, i, f.Queries[i], texts[i])
			}
		}
	}
}

// TestAnswerFrameRoundTrip covers mixed OK and failure answers.
func TestAnswerFrameRoundTrip(t *testing.T) {
	in := []WireAnswer{
		{Status: StatusOK, Index: 3, Distance: 4211, NGrams: 17, Gen: 2, Label: "english"},
		{Status: StatusNoNGrams},
		{Status: StatusOverloaded, Msg: "queue full"},
		{Status: StatusInternal, Msg: "boom"},
	}
	raw, err := AppendAnswerFrame(nil, 99, in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	f, _, err := ReadFrame(bytes.NewReader(raw), nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if f.Type != TypeAnswer || f.ID != 99 {
		t.Fatalf("header round trip: %+v", f)
	}
	if len(f.Answers) != len(in) {
		t.Fatalf("%d answers, want %d", len(f.Answers), len(in))
	}
	for i, a := range f.Answers {
		if a != in[i] {
			t.Fatalf("answer %d = %+v, want %+v", i, a, in[i])
		}
	}
}

// TestPartialFrameRoundTrip covers the remote-fleet scatter/gather frames:
// partial queries at the word-range edges (one word, a ByWords slice, a
// full vector ending in a tail word, a range ending at the tail word), OK
// partials at the row-count edges, and typed-failure partials.
func TestPartialFrameRoundTrip(t *testing.T) {
	queries := []WireQuery{
		{NGrams: 1, Dim: 64, Words: []uint64{^uint64(0)}},
		{NGrams: 148, Dim: 10000, Offset: 39, Words: []uint64{1, 1 << 63, 0, 0xdeadbeef}},
		{NGrams: 7, Dim: 1000, Words: append(make([]uint64, 15), 1<<40-1)},
		{NGrams: 9, Dim: 1000, Offset: 12, Words: []uint64{5, 6, 7, 1 << 39}},
	}
	for ci, in := range queries {
		raw, err := AppendPartialQueryFrame(nil, uint64(ci)+3, 900, in)
		if err != nil {
			t.Fatalf("case %d: encode: %v", ci, err)
		}
		if want := lenSize + headerSize + partialQueryFixed + 8*len(in.Words); len(raw) != want {
			t.Fatalf("case %d: %d-byte frame, want %d", ci, len(raw), want)
		}
		f, _, err := ReadFrame(bytes.NewReader(raw), nil)
		if err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if f.Type != TypePartialQuery || f.ID != uint64(ci)+3 || f.BudgetUs != 900 {
			t.Fatalf("case %d: header round trip: %+v", ci, f)
		}
		q := f.PartialQuery
		if q == nil || q.NGrams != in.NGrams || q.Dim != in.Dim || q.Offset != in.Offset || !slices.Equal(q.Words, in.Words) {
			t.Fatalf("case %d: query round trip: %+v, want %+v", ci, q, in)
		}
	}
	partials := []WirePartial{
		{Status: StatusOK, Gen: 7, NGrams: 42, Distances: []uint32{0}},
		{Status: StatusOK, Gen: 1, NGrams: 3, Distances: []uint32{4200, 17, 1 << 30, 9}},
		{Status: StatusDrained, Msg: "draining"},
		{Status: StatusInternal},
	}
	for ci, in := range partials {
		raw, err := AppendPartialFrame(nil, uint64(ci)+11, in)
		if err != nil {
			t.Fatalf("case %d: encode: %v", ci, err)
		}
		f, _, err := ReadFrame(bytes.NewReader(raw), nil)
		if err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if f.Type != TypePartial || f.ID != uint64(ci)+11 || f.Partial == nil {
			t.Fatalf("case %d: header round trip: %+v", ci, f)
		}
		got := *f.Partial
		if got.Status != in.Status || got.Gen != in.Gen || got.NGrams != in.NGrams || got.Msg != in.Msg {
			t.Fatalf("case %d: partial round trip: %+v, want %+v", ci, got, in)
		}
		if len(got.Distances) != len(in.Distances) {
			t.Fatalf("case %d: %d rows, want %d", ci, len(got.Distances), len(in.Distances))
		}
		for i := range in.Distances {
			if got.Distances[i] != in.Distances[i] {
				t.Fatalf("case %d: row %d = %d, want %d", ci, i, got.Distances[i], in.Distances[i])
			}
		}
	}
}

// TestPartialFrameRejectsMalformed drives the partial decoder through its
// corruption matrix.
func TestPartialFrameRejectsMalformed(t *testing.T) {
	ok, err := AppendPartialFrame(nil, 1, WirePartial{
		Status: StatusOK, Gen: 2, NGrams: 5, Distances: []uint32{10, 20, 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := ok[lenSize:]
	inflate := func(count uint32) []byte {
		c := bytes.Clone(payload)
		binary.LittleEndian.PutUint32(c[headerSize+13:], count)
		return c
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"status-only", payload[:headerSize+1], ErrTruncated},
		{"truncated-rows", payload[:len(payload)-2], ErrTruncated},
		{"zero-rows", inflate(0), ErrBadFrame},
		{"inflated-rows", inflate(4), ErrTruncated},
		{"overdeclared-rows", inflate(MaxPartialRows + 1), ErrBadFrame},
	}
	for _, tc := range cases {
		if _, err := DecodeFrame(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Encoder side: empty and oversized row vectors must be refused, a
	// too-long failure message clips rather than fails.
	if _, err := AppendPartialFrame(nil, 1, WirePartial{Status: StatusOK}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty rows: err = %v", err)
	}
	if _, err := AppendPartialFrame(nil, 1, WirePartial{
		Status: StatusOK, Distances: make([]uint32, MaxPartialRows+1),
	}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized rows: err = %v", err)
	}
	clipped, err := AppendPartialFrame(nil, 1, WirePartial{
		Status: StatusInternal, Msg: strings.Repeat("m", MaxMsgLen+40),
	})
	if err != nil {
		t.Fatalf("clipped msg: %v", err)
	}
	f, err := DecodeFrame(clipped[lenSize:])
	if err != nil {
		t.Fatalf("decode clipped: %v", err)
	}
	if len(f.Partial.Msg) != MaxMsgLen {
		t.Fatalf("clip length: %d", len(f.Partial.Msg))
	}
}

// TestPartialQueryRejects: the word-range decoder refuses every query it
// could not hand a replica intact — a zero word count, a range past the
// vector, a truncated or overlong word block, a zero dimension, bits set
// past the dimension — and the encoder refuses to build them.
func TestPartialQueryRejects(t *testing.T) {
	pq, err := AppendPartialQueryFrame(nil, 2, 0, WireQuery{NGrams: 5, Dim: 1000, Offset: 12, Words: []uint64{1, 2, 3, 1 << 39}})
	if err != nil {
		t.Fatal(err)
	}
	payload := pq[lenSize:]
	field := func(off int, v uint32) []byte { // payload with one fixed field rewritten
		c := bytes.Clone(payload)
		binary.LittleEndian.PutUint32(c[headerSize+off:], v)
		return c
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"fixed-fields-cut", payload[:headerSize+partialQueryFixed-1], ErrTruncated},
		{"truncated-words", payload[:len(payload)-3], ErrTruncated},
		{"inflated-count", field(16, 5), ErrTruncated},
		{"trailing-bytes", field(16, 3), ErrBadFrame},
		{"zero-count", field(16, 0)[:headerSize+partialQueryFixed], ErrBadFrame},
		{"past-vector", field(12, 13), ErrBadFrame},
		{"offset-overflow", field(12, 1<<32-1), ErrBadFrame},
		{"zero-dim", field(8, 0), ErrBadFrame},
		{"tail-bits", field(8, 999), ErrBadFrame}, // bit 39 of a 39-bit tail word
	}
	for _, tc := range cases {
		if _, err := DecodeFrame(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	for _, q := range []WireQuery{
		{Dim: 1000}, // no words
		{Dim: 1000, Offset: 15, Words: []uint64{0, 0}},    // past the vector
		{Words: []uint64{0}},                              // zero dimension
		{Dim: 1000, Offset: 15, Words: []uint64{1 << 40}}, // bit past the dimension
	} {
		if _, err := AppendPartialQueryFrame(nil, 2, 0, q); !errors.Is(err, ErrBadFrame) {
			t.Errorf("encode %+v: err = %v, want ErrBadFrame", q, err)
		}
	}
}

// TestControlFrames round-trips the body-less frame types.
func TestControlFrames(t *testing.T) {
	for _, typ := range []byte{TypePing, TypePong, TypeDrain} {
		raw := AppendControlFrame(nil, typ, 5)
		f, _, err := ReadFrame(bytes.NewReader(raw), nil)
		if err != nil {
			t.Fatalf("type %d: %v", typ, err)
		}
		if f.Type != typ || f.ID != 5 {
			t.Fatalf("type %d: round trip %+v", typ, f)
		}
	}
}

// TestDecodeRejectsMalformed drives the decoder through the corruption
// matrix: every structural invariant violated must surface as its typed
// error, never as a panic or a silent accept.
func TestDecodeRejectsMalformed(t *testing.T) {
	valid, err := AppendQueryFrame(nil, 1, 0, []string{"hello", "world"})
	if err != nil {
		t.Fatal(err)
	}
	payload := valid[lenSize:] // DecodeFrame operates past the length prefix

	mut := func(off int, b byte) []byte {
		c := bytes.Clone(payload)
		c[off] = b
		return c
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short-header", payload[:headerSize-1], ErrTruncated},
		{"bad-magic", mut(0, 'X'), ErrBadMagic},
		{"bad-version", mut(2, 9), ErrVersion},
		{"bad-type", mut(3, 200), ErrBadFrame},
		{"zero-count", mut(headerSize+4, 0), ErrBadFrame},
		{"truncated-text", payload[:len(payload)-3], ErrTruncated},
		{"overdeclared-count", mut(headerSize+5, 0xff), ErrBadFrame},
		{"control-with-body", append(AppendControlFrame(nil, TypePing, 1)[lenSize:], 0xaa), ErrBadFrame},
	}
	// An inflated inner text length must be caught against the remaining
	// body, not trusted.
	inflated := bytes.Clone(payload)
	binary.LittleEndian.PutUint16(inflated[headerSize+6:], MaxTextLen-1)
	cases = append(cases, struct {
		name string
		data []byte
		want error
	}{"inflated-text-len", inflated, ErrTruncated})

	for _, tc := range cases {
		if _, err := DecodeFrame(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestReadFrameBoundsLength verifies the reader refuses a hostile length
// prefix before allocating anything.
func TestReadFrameBoundsLength(t *testing.T) {
	var raw [lenSize]byte
	binary.LittleEndian.PutUint32(raw[:], MaxFrame+1)
	if _, _, err := ReadFrame(bytes.NewReader(raw[:]), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized prefix: err = %v, want ErrFrameTooLarge", err)
	}
	binary.LittleEndian.PutUint32(raw[:], headerSize-1)
	if _, _, err := ReadFrame(bytes.NewReader(raw[:]), nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("undersized prefix: err = %v, want ErrTruncated", err)
	}
	// A declared payload the stream cannot deliver is an unexpected EOF.
	valid, _ := AppendQueryFrame(nil, 1, 0, []string{"hello"})
	if _, _, err := ReadFrame(bytes.NewReader(valid[:len(valid)-2]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short stream: err = %v, want ErrUnexpectedEOF", err)
	}
}

// TestEncodeRejectsOversized verifies the encoder enforces the same limits
// the decoder does.
func TestEncodeRejectsOversized(t *testing.T) {
	if _, err := AppendQueryFrame(nil, 1, 0, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty batch: err = %v", err)
	}
	if _, err := AppendQueryFrame(nil, 1, 0, make([]string, MaxBatchPerFrame+1)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized batch: err = %v", err)
	}
	if _, err := AppendQueryFrame(nil, 1, 0, []string{strings.Repeat("x", MaxTextLen+1)}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized text: err = %v", err)
	}
	if _, err := AppendAnswerFrame(nil, 1, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty answers: err = %v", err)
	}
	// Labels and messages clip rather than fail: an answer must deliver.
	raw, err := AppendAnswerFrame(nil, 1, []WireAnswer{
		{Status: StatusOK, Label: strings.Repeat("l", MaxLabelLen+40)},
		{Status: StatusInternal, Msg: strings.Repeat("m", MaxMsgLen+40)},
	})
	if err != nil {
		t.Fatalf("clipped answers: %v", err)
	}
	f, err := DecodeFrame(raw[lenSize:])
	if err != nil {
		t.Fatalf("decode clipped: %v", err)
	}
	if len(f.Answers[0].Label) != MaxLabelLen || len(f.Answers[1].Msg) != MaxMsgLen {
		t.Fatalf("clip lengths: label %d, msg %d", len(f.Answers[0].Label), len(f.Answers[1].Msg))
	}
}

// TestStatusMapping round-trips every typed backend error through its wire
// status, so a socket client can errors.Is-match exactly like an in-process
// caller.
func TestStatusMapping(t *testing.T) {
	cases := []error{
		serve.ErrNoNGrams,
		serve.ErrOverloaded,
		serve.ErrDrained,
		context.DeadlineExceeded,
		context.Canceled,
		serve.ErrWorkerPanic,
		serve.ErrClosed,
	}
	for _, want := range cases {
		s := StatusOf(want)
		if s == StatusOK || s == StatusInternal {
			t.Fatalf("%v mapped to status %d", want, s)
		}
		if got := StatusError(s, ""); !errors.Is(got, want) {
			t.Errorf("status %d: round trip %v, want %v", s, got, want)
		}
	}
	if StatusOf(nil) != StatusOK || StatusError(StatusOK, "") != nil {
		t.Error("StatusOK must round-trip to nil")
	}
	if got := StatusError(StatusInternal, "boom"); !errors.Is(got, ErrRemote) {
		t.Errorf("internal status: %v, want ErrRemote", got)
	}
}
