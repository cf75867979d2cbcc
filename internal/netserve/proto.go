// Package netserve exposes a trained hyperdimensional associative memory —
// a serve.Engine or a fleet.Fleet — over TCP, so the paper's "millions of
// users" serving scenario is measurable at the socket boundary instead of
// only in-process.
//
// Two protocols share one server:
//
//   - HTTP/JSON (POST /classify, GET /statsz, GET /healthz) for
//     debuggability: curl-able, self-describing, slow.
//   - A length-prefixed compact binary protocol for throughput: versioned
//     frame header, per-frame request id, a deadline budget the server
//     propagates into the engine's context, and batched queries per frame.
//     A connection is a full-duplex stream — many query frames may be in
//     flight at once and answer frames come back in completion order,
//     matched to their query by id — so one socket carries the pipelined
//     load of many closed-loop clients without coordinated waiting.
//
// Admission control, overload shedding, hedging and graceful drain are the
// engine's own (serve.Config.Policy and Engine.Drain); the server only adds
// the socket-level guards around them: connection limits, per-connection
// read/write deadlines, per-connection in-flight caps, and a drain path
// that answers every accepted frame — with the classification when it fits
// the deadline, with a typed drained status when it does not.
//
// This file is the wire codec. Frames are length-prefixed:
//
//	uint32 LE  payload length N (bounds-checked before any allocation)
//	payload    N bytes, laid out as:
//	  [0]  magic 'h'
//	  [1]  magic 'w'
//	  [2]  protocol version (2)
//	  [3]  frame type
//	  [4:12] request id, uint64 LE
//	  [12:]  type-specific body
//
// TypeQuery body:
//
//	uint32 LE  deadline budget in microseconds (0 = none)
//	uint16 LE  query count (1..MaxBatchPerFrame)
//	repeat count times: uint16 LE text length, then the UTF-8 bytes
//
// TypeAnswer body:
//
//	uint16 LE  answer count, one per query, in query order
//	repeat count times:
//	  byte   status (StatusOK or a typed failure)
//	  StatusOK:  uint32 index, uint32 distance, uint32 ngrams,
//	             uint64 gen, byte label length, label bytes
//	  else:      uint16 message length, message bytes
//
// TypePartialQuery body (the remote replica fleet's scatter leg — the
// packed words of one encoded query that one partition scores; the
// coordinator encodes once, replicas never see text):
//
//	uint32 LE  deadline budget in microseconds (0 = none)
//	uint32 LE  n-gram count of the coordinator's encode
//	uint32 LE  query dimension D in bits (≥ 1)
//	uint32 LE  word offset O: index of the first packed query word carried
//	uint32 LE  word count W (≥ 1, O + W ≤ ⌈D/64⌉)
//	W × uint64 LE  packed query words [O, O+W); when the range ends at the
//	           vector's last word, its bits at positions ≥ D must be zero
//
// A ByWords partition gets its own word slice (~D/64/P words), a ByClasses
// partition every word. The replica answers StatusRange when [O, O+W) or D
// is not the range its partition plan scores.
//
// TypePartial body (the gather leg — a gen-stamped partition
// distance-vector answer; ngrams echoes the query's count):
//
//	byte       status (StatusOK or a typed failure)
//	StatusOK:  uint64 gen, uint32 ngrams, uint32 row count
//	           (1..MaxPartialRows), then row count uint32 LE distances
//	else:      uint16 message length, message bytes
//
// TypeLearn body (train-while-serve ingest: a batch of labeled examples for
// one class, fed to the server's online learner):
//
//	uint32 LE  deadline budget in microseconds (0 = none)
//	byte       label length, then the label bytes (1..MaxLabelLen)
//	uint16 LE  example count (1..MaxBatchPerFrame)
//	repeat count times: uint16 LE text length, then the UTF-8 bytes
//
// TypeLearnAck body:
//
//	byte       status (StatusOK or a typed failure)
//	uint32 LE  examples accepted (meaningful for any status: a batch can be
//	           partially admitted before backpressure refuses the rest)
//	non-OK:    uint16 message length, message bytes
//
// TypePing and TypePong carry no body; TypeDrain (server → client, no body)
// announces that the server is draining and no further query frames will be
// accepted. Every declared length is validated against the remaining
// payload before allocation, and a malformed frame yields a typed error,
// never a panic — FuzzDecodeFrame enforces this.
package netserve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hdam/internal/fleet"
	"hdam/internal/learn"
	"hdam/internal/serve"
)

// Protocol limits. MaxFrame bounds the payload a peer may declare (and
// therefore the allocation a frame can force); the rest bound the fields
// inside it.
const (
	Version = 2

	MaxFrame         = 1 << 20   // payload bytes
	MaxBatchPerFrame = 1024      // queries per frame
	MaxTextLen       = 1<<16 - 1 // bytes per query text (length field is uint16)
	MaxLabelLen      = 255       // bytes per answer label
	MaxMsgLen        = 1024      // bytes per error message
	MaxPartialRows   = 1 << 17   // distance rows per partial answer (classes)

	magic0 = 'h'
	magic1 = 'w'

	headerSize = 12 // magic(2) + version(1) + type(1) + id(8)
	lenSize    = 4  // the uint32 length prefix
)

// Frame types.
const (
	TypeQuery        byte = 1 // client → server: a batch of texts to classify
	TypeAnswer       byte = 2 // server → client: per-query answers, same id
	TypePing         byte = 3 // client → server: liveness probe
	TypePong         byte = 4 // server → client: probe reply, same id
	TypeDrain        byte = 5 // server → client: draining, stop submitting
	TypePartialQuery byte = 6 // coordinator → replica: encoded query words to reduce
	TypePartial      byte = 7 // replica → coordinator: gen-stamped partial
	TypeLearn        byte = 8 // client → server: labeled examples to ingest
	TypeLearnAck     byte = 9 // server → client: ingest outcome, same id
)

// Typed decode errors. Match with errors.Is.
var (
	// ErrFrameTooLarge reports a length prefix beyond the frame cap.
	ErrFrameTooLarge = errors.New("netserve: frame exceeds size cap")
	// ErrBadMagic reports a payload that does not start with the protocol
	// magic — the peer is not speaking this protocol.
	ErrBadMagic = errors.New("netserve: bad frame magic")
	// ErrVersion reports a protocol version this build does not speak.
	ErrVersion = errors.New("netserve: unsupported protocol version")
	// ErrTruncated reports a payload shorter than its declared contents.
	ErrTruncated = errors.New("netserve: truncated frame")
	// ErrBadFrame reports a structurally invalid frame: unknown type,
	// zero or oversized counts, out-of-range field lengths.
	ErrBadFrame = errors.New("netserve: malformed frame")
)

// Answer statuses. StatusOK carries a classification; the rest are the
// engine's typed failures, carried across the wire so the client can
// errors.Is-match them exactly as an in-process caller would.
const (
	StatusOK         byte = 0
	StatusNoNGrams   byte = 1  // text too short to form one n-gram
	StatusOverloaded byte = 2  // admission control turned the request away
	StatusDrained    byte = 3  // accepted, then abandoned by graceful drain
	StatusDeadline   byte = 4  // the request's deadline budget ran out
	StatusCanceled   byte = 5  // the request's context was canceled
	StatusPanic      byte = 6  // a recovered worker panic failed the request
	StatusClosed     byte = 7  // the backend was closed before the request ran
	StatusInternal   byte = 8  // any other server-side failure
	StatusInvalid    byte = 9  // a learn example the learner refuses to accept
	StatusRange      byte = 10 // partial-query words outside the replica's partition
)

// ErrRemote is the client-side error wrapping a StatusInternal answer.
var ErrRemote = errors.New("netserve: remote error")

// StatusOf maps a backend error to its wire status. The learner's typed
// failures share the engine's statuses where the semantics match (overload,
// closed), so one client-side error mapping serves both paths.
func StatusOf(err error) byte {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, serve.ErrNoNGrams):
		return StatusNoNGrams
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, learn.ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, serve.ErrDrained):
		return StatusDrained
	case errors.Is(err, context.DeadlineExceeded):
		return StatusDeadline
	case errors.Is(err, context.Canceled):
		return StatusCanceled
	case errors.Is(err, serve.ErrWorkerPanic):
		return StatusPanic
	case errors.Is(err, serve.ErrClosed), errors.Is(err, learn.ErrClosed):
		return StatusClosed
	case errors.Is(err, learn.ErrInvalidExample):
		return StatusInvalid
	case errors.Is(err, fleet.ErrQueryRange):
		return StatusRange
	default:
		return StatusInternal
	}
}

// StatusError maps a wire status back to the typed error an in-process
// caller would have seen (nil for StatusOK).
func StatusError(status byte, msg string) error {
	switch status {
	case StatusOK:
		return nil
	case StatusNoNGrams:
		return serve.ErrNoNGrams
	case StatusOverloaded:
		return serve.ErrOverloaded
	case StatusDrained:
		return serve.ErrDrained
	case StatusDeadline:
		return context.DeadlineExceeded
	case StatusCanceled:
		return context.Canceled
	case StatusPanic:
		return serve.ErrWorkerPanic
	case StatusClosed:
		return serve.ErrClosed
	case StatusInvalid:
		if msg == "" {
			return learn.ErrInvalidExample
		}
		return fmt.Errorf("%w: %s", learn.ErrInvalidExample, msg)
	case StatusRange:
		if msg == "" {
			return fleet.ErrQueryRange
		}
		return fmt.Errorf("%w: %s", fleet.ErrQueryRange, msg)
	default:
		if msg == "" {
			return ErrRemote
		}
		return fmt.Errorf("%w: %s", ErrRemote, msg)
	}
}

// WireAnswer is one query's answer as it crosses the wire.
type WireAnswer struct {
	Status   byte
	Index    uint32
	Distance uint32
	NGrams   uint32
	Gen      uint64
	Label    string
	Msg      string // failure detail for non-OK statuses (may be empty)
}

// WireQuery is one encoded query as it crosses the wire: the remote replica
// fleet's scatter leg. Words holds the packed words [Offset,
// Offset+len(Words)) of a Dim-bit query hypervector that bundled NGrams
// n-grams.
type WireQuery struct {
	NGrams uint32
	Dim    uint32
	Offset uint32
	Words  []uint64
}

// check validates the word range against the dimension: a non-empty range
// inside the vector, with no bits set past Dim in the vector's last word.
func (q WireQuery) check() error {
	if q.Dim == 0 {
		return fmt.Errorf("%w: zero-dimension partial query", ErrBadFrame)
	}
	if len(q.Words) == 0 {
		return fmt.Errorf("%w: partial query carries no words", ErrBadFrame)
	}
	total := (uint64(q.Dim) + 63) / 64
	end := uint64(q.Offset) + uint64(len(q.Words))
	if end > total {
		return fmt.Errorf("%w: partial query words [%d,%d) past the %d words of a %d-bit vector",
			ErrBadFrame, q.Offset, end, total, q.Dim)
	}
	if r := q.Dim % 64; end == total && r != 0 && q.Words[len(q.Words)-1]>>r != 0 {
		return fmt.Errorf("%w: partial query sets bits past dimension %d", ErrBadFrame, q.Dim)
	}
	return nil
}

// WirePartial is one partition's gen-stamped distance-vector answer as it
// crosses the wire: the remote replica fleet's gather leg. Distances[i] is
// the partition's observed Hamming partial for global (or band-local) class
// row i, at model generation Gen.
type WirePartial struct {
	Status    byte
	Gen       uint64
	NGrams    uint32
	Distances []uint32
	Msg       string // failure detail for non-OK statuses (may be empty)
}

// WireLearnAck is the outcome of one learn frame as it crosses the wire.
// Accepted counts examples admitted to the learner before any failure, so a
// client can resume a partially refused batch without re-sending.
type WireLearnAck struct {
	Status   byte
	Accepted uint32
	Msg      string // failure detail for non-OK statuses (may be empty)
}

// Frame is one decoded frame. Type selects which fields are meaningful:
// Queries for TypeQuery (with BudgetUs), Answers for TypeAnswer,
// PartialQuery (with BudgetUs) for TypePartialQuery, Partial for
// TypePartial, Label and Queries (with BudgetUs) for TypeLearn, LearnAck
// for TypeLearnAck, none for the control types.
type Frame struct {
	Version      byte
	Type         byte
	ID           uint64
	BudgetUs     uint32
	Label        string
	Queries      []string
	Answers      []WireAnswer
	PartialQuery *WireQuery
	Partial      *WirePartial
	LearnAck     *WireLearnAck
}

// AppendQueryFrame appends one length-prefixed query frame to dst and
// returns the extended slice. The texts must fit the protocol limits.
func AppendQueryFrame(dst []byte, id uint64, budgetUs uint32, texts []string) ([]byte, error) {
	if len(texts) == 0 || len(texts) > MaxBatchPerFrame {
		return dst, fmt.Errorf("%w: %d queries in one frame (limit %d)", ErrBadFrame, len(texts), MaxBatchPerFrame)
	}
	n := headerSize + 4 + 2
	for _, t := range texts {
		if len(t) > MaxTextLen {
			return dst, fmt.Errorf("%w: %d-byte query text (limit %d)", ErrBadFrame, len(t), MaxTextLen)
		}
		n += 2 + len(t)
	}
	if n > MaxFrame {
		return dst, fmt.Errorf("%w: %d-byte query frame (limit %d)", ErrFrameTooLarge, n, MaxFrame)
	}
	dst = appendHeader(dst, uint32(n), TypeQuery, id)
	dst = binary.LittleEndian.AppendUint32(dst, budgetUs)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(texts)))
	for _, t := range texts {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(t)))
		dst = append(dst, t...)
	}
	return dst, nil
}

// AppendAnswerFrame appends one length-prefixed answer frame to dst and
// returns the extended slice. Oversized labels and messages are clipped to
// the protocol limits rather than failing the frame: an answer must always
// be deliverable.
func AppendAnswerFrame(dst []byte, id uint64, answers []WireAnswer) ([]byte, error) {
	if len(answers) == 0 || len(answers) > MaxBatchPerFrame {
		return dst, fmt.Errorf("%w: %d answers in one frame (limit %d)", ErrBadFrame, len(answers), MaxBatchPerFrame)
	}
	n := headerSize + 2
	for i := range answers {
		a := &answers[i]
		if a.Status == StatusOK {
			n += 1 + 4 + 4 + 4 + 8 + 1 + min(len(a.Label), MaxLabelLen)
		} else {
			n += 1 + 2 + min(len(a.Msg), MaxMsgLen)
		}
	}
	if n > MaxFrame {
		return dst, fmt.Errorf("%w: %d-byte answer frame (limit %d)", ErrFrameTooLarge, n, MaxFrame)
	}
	dst = appendHeader(dst, uint32(n), TypeAnswer, id)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(answers)))
	for i := range answers {
		a := &answers[i]
		dst = append(dst, a.Status)
		if a.Status == StatusOK {
			dst = binary.LittleEndian.AppendUint32(dst, a.Index)
			dst = binary.LittleEndian.AppendUint32(dst, a.Distance)
			dst = binary.LittleEndian.AppendUint32(dst, a.NGrams)
			dst = binary.LittleEndian.AppendUint64(dst, a.Gen)
			label := clip(a.Label, MaxLabelLen)
			dst = append(dst, byte(len(label)))
			dst = append(dst, label...)
		} else {
			msg := clip(a.Msg, MaxMsgLen)
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
			dst = append(dst, msg...)
		}
	}
	return dst, nil
}

// AppendPartialQueryFrame appends one length-prefixed partial-query frame:
// the encoded query words whose partial distance reduction the replica
// must return.
func AppendPartialQueryFrame(dst []byte, id uint64, budgetUs uint32, q WireQuery) ([]byte, error) {
	if err := q.check(); err != nil {
		return dst, err
	}
	n := headerSize + partialQueryFixed + 8*len(q.Words)
	if n > MaxFrame {
		return dst, fmt.Errorf("%w: %d-byte partial-query frame (limit %d)", ErrFrameTooLarge, n, MaxFrame)
	}
	dst = appendHeader(dst, uint32(n), TypePartialQuery, id)
	dst = binary.LittleEndian.AppendUint32(dst, budgetUs)
	dst = binary.LittleEndian.AppendUint32(dst, q.NGrams)
	dst = binary.LittleEndian.AppendUint32(dst, q.Dim)
	dst = binary.LittleEndian.AppendUint32(dst, q.Offset)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(q.Words)))
	for _, w := range q.Words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst, nil
}

// partialQueryFixed is the partial-query body before its word block:
// budget, ngrams, dimension, offset and count.
const partialQueryFixed = 5 * 4

// AppendPartialFrame appends one length-prefixed partial-answer frame: the
// replica's gen-stamped distance vector, or a typed failure. Oversized
// messages are clipped rather than failing the frame: an answer must always
// be deliverable.
func AppendPartialFrame(dst []byte, id uint64, p WirePartial) ([]byte, error) {
	var n int
	if p.Status == StatusOK {
		if len(p.Distances) == 0 || len(p.Distances) > MaxPartialRows {
			return dst, fmt.Errorf("%w: %d distance rows in one partial (limit %d)", ErrBadFrame, len(p.Distances), MaxPartialRows)
		}
		n = headerSize + 1 + 8 + 4 + 4 + 4*len(p.Distances)
	} else {
		n = headerSize + 1 + 2 + min(len(p.Msg), MaxMsgLen)
	}
	if n > MaxFrame {
		return dst, fmt.Errorf("%w: %d-byte partial frame (limit %d)", ErrFrameTooLarge, n, MaxFrame)
	}
	dst = appendHeader(dst, uint32(n), TypePartial, id)
	dst = append(dst, p.Status)
	if p.Status == StatusOK {
		dst = binary.LittleEndian.AppendUint64(dst, p.Gen)
		dst = binary.LittleEndian.AppendUint32(dst, p.NGrams)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.Distances)))
		for _, d := range p.Distances {
			dst = binary.LittleEndian.AppendUint32(dst, d)
		}
	} else {
		msg := clip(p.Msg, MaxMsgLen)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
		dst = append(dst, msg...)
	}
	return dst, nil
}

// AppendLearnFrame appends one length-prefixed learn frame to dst and
// returns the extended slice: one class label and a batch of example texts
// for the server's online learner.
func AppendLearnFrame(dst []byte, id uint64, budgetUs uint32, label string, texts []string) ([]byte, error) {
	if len(label) == 0 || len(label) > MaxLabelLen {
		return dst, fmt.Errorf("%w: %d-byte learn label (limit %d)", ErrBadFrame, len(label), MaxLabelLen)
	}
	if len(texts) == 0 || len(texts) > MaxBatchPerFrame {
		return dst, fmt.Errorf("%w: %d examples in one frame (limit %d)", ErrBadFrame, len(texts), MaxBatchPerFrame)
	}
	n := headerSize + 4 + 1 + len(label) + 2
	for _, t := range texts {
		if len(t) > MaxTextLen {
			return dst, fmt.Errorf("%w: %d-byte example text (limit %d)", ErrBadFrame, len(t), MaxTextLen)
		}
		n += 2 + len(t)
	}
	if n > MaxFrame {
		return dst, fmt.Errorf("%w: %d-byte learn frame (limit %d)", ErrFrameTooLarge, n, MaxFrame)
	}
	dst = appendHeader(dst, uint32(n), TypeLearn, id)
	dst = binary.LittleEndian.AppendUint32(dst, budgetUs)
	dst = append(dst, byte(len(label)))
	dst = append(dst, label...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(texts)))
	for _, t := range texts {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(t)))
		dst = append(dst, t...)
	}
	return dst, nil
}

// AppendLearnAckFrame appends one length-prefixed learn-ack frame. Oversized
// messages are clipped rather than failing the frame: an answer must always
// be deliverable.
func AppendLearnAckFrame(dst []byte, id uint64, ack WireLearnAck) []byte {
	n := headerSize + 1 + 4
	var msg string
	if ack.Status != StatusOK {
		msg = clip(ack.Msg, MaxMsgLen)
		n += 2 + len(msg)
	}
	dst = appendHeader(dst, uint32(n), TypeLearnAck, id)
	dst = append(dst, ack.Status)
	dst = binary.LittleEndian.AppendUint32(dst, ack.Accepted)
	if ack.Status != StatusOK {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
		dst = append(dst, msg...)
	}
	return dst
}

// AppendControlFrame appends one body-less frame (ping, pong, drain).
func AppendControlFrame(dst []byte, typ byte, id uint64) []byte {
	return appendHeader(dst, headerSize, typ, id)
}

// appendHeader appends the length prefix and the fixed frame header.
func appendHeader(dst []byte, payloadLen uint32, typ byte, id uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, payloadLen)
	dst = append(dst, magic0, magic1, Version, typ)
	return binary.LittleEndian.AppendUint64(dst, id)
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// DecodeFrame decodes one frame payload (the bytes after the length
// prefix). Every declared count and length is validated against the
// remaining payload before any allocation; malformed input returns a typed
// error and never panics. This is the fuzz target.
func DecodeFrame(payload []byte) (Frame, error) {
	var f Frame
	if len(payload) < headerSize {
		return f, fmt.Errorf("%w: %d-byte payload, header needs %d", ErrTruncated, len(payload), headerSize)
	}
	if payload[0] != magic0 || payload[1] != magic1 {
		return f, fmt.Errorf("%w: 0x%02x%02x", ErrBadMagic, payload[0], payload[1])
	}
	f.Version = payload[2]
	if f.Version != Version {
		return f, fmt.Errorf("%w: %d (this build speaks %d)", ErrVersion, f.Version, Version)
	}
	f.Type = payload[3]
	f.ID = binary.LittleEndian.Uint64(payload[4:12])
	body := payload[headerSize:]
	switch f.Type {
	case TypeQuery:
		return decodeQuery(f, body)
	case TypeAnswer:
		return decodeAnswer(f, body)
	case TypePartialQuery:
		return decodePartialQuery(f, body)
	case TypePartial:
		return decodePartial(f, body)
	case TypeLearn:
		return decodeLearn(f, body)
	case TypeLearnAck:
		return decodeLearnAck(f, body)
	case TypePing, TypePong, TypeDrain:
		if len(body) != 0 {
			return f, fmt.Errorf("%w: control frame with %d body bytes", ErrBadFrame, len(body))
		}
		return f, nil
	default:
		return f, fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, f.Type)
	}
}

func decodeQuery(f Frame, body []byte) (Frame, error) {
	if len(body) < 6 {
		return f, fmt.Errorf("%w: query body %d bytes, want at least 6", ErrTruncated, len(body))
	}
	f.BudgetUs = binary.LittleEndian.Uint32(body[0:4])
	count := int(binary.LittleEndian.Uint16(body[4:6]))
	if count == 0 || count > MaxBatchPerFrame {
		return f, fmt.Errorf("%w: %d queries in one frame (limit %d)", ErrBadFrame, count, MaxBatchPerFrame)
	}
	body = body[6:]
	// The count is bounded and each entry needs ≥ 2 bytes, so this
	// allocation is capped before any per-entry length is trusted.
	if len(body) < 2*count {
		return f, fmt.Errorf("%w: %d queries declared, %d body bytes left", ErrTruncated, count, len(body))
	}
	f.Queries = make([]string, count)
	for i := 0; i < count; i++ {
		if len(body) < 2 {
			return f, fmt.Errorf("%w: query %d length missing", ErrTruncated, i)
		}
		n := int(binary.LittleEndian.Uint16(body[0:2]))
		body = body[2:]
		if n > len(body) {
			return f, fmt.Errorf("%w: query %d declares %d bytes, %d left", ErrTruncated, i, n, len(body))
		}
		f.Queries[i] = string(body[:n])
		body = body[n:]
	}
	if len(body) != 0 {
		return f, fmt.Errorf("%w: %d trailing bytes after last query", ErrBadFrame, len(body))
	}
	return f, nil
}

func decodeAnswer(f Frame, body []byte) (Frame, error) {
	if len(body) < 2 {
		return f, fmt.Errorf("%w: answer body %d bytes, want at least 2", ErrTruncated, len(body))
	}
	count := int(binary.LittleEndian.Uint16(body[0:2]))
	if count == 0 || count > MaxBatchPerFrame {
		return f, fmt.Errorf("%w: %d answers in one frame (limit %d)", ErrBadFrame, count, MaxBatchPerFrame)
	}
	body = body[2:]
	// Every answer needs ≥ 3 bytes (status + the shorter length field), so
	// the slice allocation is bounded before any declared length is read.
	if len(body) < 3*count {
		return f, fmt.Errorf("%w: %d answers declared, %d body bytes left", ErrTruncated, count, len(body))
	}
	f.Answers = make([]WireAnswer, count)
	for i := 0; i < count; i++ {
		if len(body) < 1 {
			return f, fmt.Errorf("%w: answer %d status missing", ErrTruncated, i)
		}
		a := &f.Answers[i]
		a.Status = body[0]
		body = body[1:]
		if a.Status == StatusOK {
			const fixed = 4 + 4 + 4 + 8 + 1
			if len(body) < fixed {
				return f, fmt.Errorf("%w: answer %d has %d bytes, fixed fields need %d", ErrTruncated, i, len(body), fixed)
			}
			a.Index = binary.LittleEndian.Uint32(body[0:4])
			a.Distance = binary.LittleEndian.Uint32(body[4:8])
			a.NGrams = binary.LittleEndian.Uint32(body[8:12])
			a.Gen = binary.LittleEndian.Uint64(body[12:20])
			n := int(body[20])
			body = body[fixed:]
			if n > len(body) {
				return f, fmt.Errorf("%w: answer %d label declares %d bytes, %d left", ErrTruncated, i, n, len(body))
			}
			a.Label = string(body[:n])
			body = body[n:]
		} else {
			if len(body) < 2 {
				return f, fmt.Errorf("%w: answer %d message length missing", ErrTruncated, i)
			}
			n := int(binary.LittleEndian.Uint16(body[0:2]))
			body = body[2:]
			if n > MaxMsgLen {
				return f, fmt.Errorf("%w: answer %d message declares %d bytes (limit %d)", ErrBadFrame, i, n, MaxMsgLen)
			}
			if n > len(body) {
				return f, fmt.Errorf("%w: answer %d message declares %d bytes, %d left", ErrTruncated, i, n, len(body))
			}
			a.Msg = string(body[:n])
			body = body[n:]
		}
	}
	if len(body) != 0 {
		return f, fmt.Errorf("%w: %d trailing bytes after last answer", ErrBadFrame, len(body))
	}
	return f, nil
}

func decodePartialQuery(f Frame, body []byte) (Frame, error) {
	if len(body) < partialQueryFixed {
		return f, fmt.Errorf("%w: partial-query body %d bytes, want at least %d", ErrTruncated, len(body), partialQueryFixed)
	}
	f.BudgetUs = binary.LittleEndian.Uint32(body[0:4])
	q := &WireQuery{
		NGrams: binary.LittleEndian.Uint32(body[4:8]),
		Dim:    binary.LittleEndian.Uint32(body[8:12]),
		Offset: binary.LittleEndian.Uint32(body[12:16]),
	}
	count := uint64(binary.LittleEndian.Uint32(body[16:20]))
	body = body[partialQueryFixed:]
	// The word bytes must already be present, so this allocation is
	// bounded by the validated frame length before the count is trusted.
	switch {
	case count == 0:
		return f, fmt.Errorf("%w: partial query carries no words", ErrBadFrame)
	case uint64(len(body)) < 8*count:
		return f, fmt.Errorf("%w: partial query declares %d words (%d bytes), %d in frame", ErrTruncated, count, 8*count, len(body))
	case uint64(len(body)) > 8*count:
		return f, fmt.Errorf("%w: %d trailing bytes after the query words", ErrBadFrame, uint64(len(body))-8*count)
	}
	q.Words = make([]uint64, count)
	for i := range q.Words {
		q.Words[i] = binary.LittleEndian.Uint64(body[8*i:])
	}
	if err := q.check(); err != nil {
		return f, err
	}
	f.PartialQuery = q
	return f, nil
}

func decodePartial(f Frame, body []byte) (Frame, error) {
	if len(body) < 1 {
		return f, fmt.Errorf("%w: partial body empty, status missing", ErrTruncated)
	}
	p := &WirePartial{Status: body[0]}
	body = body[1:]
	if p.Status == StatusOK {
		const fixed = 8 + 4 + 4
		if len(body) < fixed {
			return f, fmt.Errorf("%w: partial has %d bytes, fixed fields need %d", ErrTruncated, len(body), fixed)
		}
		p.Gen = binary.LittleEndian.Uint64(body[0:8])
		p.NGrams = binary.LittleEndian.Uint32(body[8:12])
		count := int(binary.LittleEndian.Uint32(body[12:16]))
		body = body[fixed:]
		if count == 0 || count > MaxPartialRows {
			return f, fmt.Errorf("%w: %d distance rows in one partial (limit %d)", ErrBadFrame, count, MaxPartialRows)
		}
		// The row bytes must already be present, so this allocation is
		// bounded by the validated frame length before the count is trusted.
		if len(body) != 4*count {
			return f, fmt.Errorf("%w: partial declares %d rows (%d bytes), %d in frame", ErrTruncated, count, 4*count, len(body))
		}
		p.Distances = make([]uint32, count)
		for i := range p.Distances {
			p.Distances[i] = binary.LittleEndian.Uint32(body[4*i:])
		}
	} else {
		if len(body) < 2 {
			return f, fmt.Errorf("%w: partial message length missing", ErrTruncated)
		}
		n := int(binary.LittleEndian.Uint16(body[0:2]))
		body = body[2:]
		if n > MaxMsgLen {
			return f, fmt.Errorf("%w: partial message declares %d bytes (limit %d)", ErrBadFrame, n, MaxMsgLen)
		}
		if n != len(body) {
			return f, fmt.Errorf("%w: partial message declares %d bytes, %d in frame", ErrTruncated, n, len(body))
		}
		p.Msg = string(body)
	}
	f.Partial = p
	return f, nil
}

func decodeLearn(f Frame, body []byte) (Frame, error) {
	if len(body) < 5 {
		return f, fmt.Errorf("%w: learn body %d bytes, want at least 5", ErrTruncated, len(body))
	}
	f.BudgetUs = binary.LittleEndian.Uint32(body[0:4])
	ll := int(body[4])
	body = body[5:]
	if ll == 0 {
		return f, fmt.Errorf("%w: empty learn label", ErrBadFrame)
	}
	if ll > len(body) {
		return f, fmt.Errorf("%w: learn label declares %d bytes, %d left", ErrTruncated, ll, len(body))
	}
	f.Label = string(body[:ll])
	body = body[ll:]
	if len(body) < 2 {
		return f, fmt.Errorf("%w: learn example count missing", ErrTruncated)
	}
	count := int(binary.LittleEndian.Uint16(body[0:2]))
	if count == 0 || count > MaxBatchPerFrame {
		return f, fmt.Errorf("%w: %d examples in one frame (limit %d)", ErrBadFrame, count, MaxBatchPerFrame)
	}
	body = body[2:]
	// The count is bounded and each entry needs ≥ 2 bytes, so this
	// allocation is capped before any per-entry length is trusted.
	if len(body) < 2*count {
		return f, fmt.Errorf("%w: %d examples declared, %d body bytes left", ErrTruncated, count, len(body))
	}
	f.Queries = make([]string, count)
	for i := 0; i < count; i++ {
		if len(body) < 2 {
			return f, fmt.Errorf("%w: example %d length missing", ErrTruncated, i)
		}
		n := int(binary.LittleEndian.Uint16(body[0:2]))
		body = body[2:]
		if n > len(body) {
			return f, fmt.Errorf("%w: example %d declares %d bytes, %d left", ErrTruncated, i, n, len(body))
		}
		f.Queries[i] = string(body[:n])
		body = body[n:]
	}
	if len(body) != 0 {
		return f, fmt.Errorf("%w: %d trailing bytes after last example", ErrBadFrame, len(body))
	}
	return f, nil
}

func decodeLearnAck(f Frame, body []byte) (Frame, error) {
	if len(body) < 5 {
		return f, fmt.Errorf("%w: learn-ack body %d bytes, want at least 5", ErrTruncated, len(body))
	}
	ack := &WireLearnAck{Status: body[0], Accepted: binary.LittleEndian.Uint32(body[1:5])}
	body = body[5:]
	if ack.Status == StatusOK {
		if len(body) != 0 {
			return f, fmt.Errorf("%w: %d trailing bytes after learn ack", ErrBadFrame, len(body))
		}
	} else {
		if len(body) < 2 {
			return f, fmt.Errorf("%w: learn-ack message length missing", ErrTruncated)
		}
		n := int(binary.LittleEndian.Uint16(body[0:2]))
		body = body[2:]
		if n > MaxMsgLen {
			return f, fmt.Errorf("%w: learn-ack message declares %d bytes (limit %d)", ErrBadFrame, n, MaxMsgLen)
		}
		if n != len(body) {
			return f, fmt.Errorf("%w: learn-ack message declares %d bytes, %d in frame", ErrTruncated, n, len(body))
		}
		ack.Msg = string(body)
	}
	f.LearnAck = ack
	return f, nil
}

// readBufSize is the buffered reader both ends of a connection read
// frames through: one read syscall fetches every frame that has arrived,
// and a frame larger than the buffer is read straight into ReadFrame's buf.
const readBufSize = 4 << 10

// ReadFrame reads one length-prefixed frame from r into buf (grown as
// needed, returned for reuse) and decodes it. The length prefix is
// bounds-checked against MaxFrame before any allocation, so a hostile peer
// cannot force an unbounded read.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	var lenb [lenSize]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return Frame{}, buf, err
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	if n > MaxFrame {
		return Frame{}, buf, fmt.Errorf("%w: peer declared %d-byte payload (limit %d)", ErrFrameTooLarge, n, MaxFrame)
	}
	if n < headerSize {
		return Frame{}, buf, fmt.Errorf("%w: peer declared %d-byte payload, header needs %d", ErrTruncated, n, headerSize)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, err
	}
	f, err := DecodeFrame(buf)
	return f, buf, err
}
