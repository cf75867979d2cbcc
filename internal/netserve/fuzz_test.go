package netserve

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at the wire decoder: no input may
// panic or force an allocation beyond the declared-and-verified payload,
// and anything the decoder accepts must re-encode to a frame it accepts
// again. Running `go test` executes the seed corpus as unit cases (the CI
// smoke mode); `go test -fuzz FuzzDecodeFrame` explores further.
func FuzzDecodeFrame(f *testing.F) {
	query, err := AppendQueryFrame(nil, 42, 2500, []string{"the quick brown fox", "", "päätös"})
	if err != nil {
		f.Fatal(err)
	}
	answer, err := AppendAnswerFrame(nil, 42, []WireAnswer{
		{Status: StatusOK, Index: 3, Distance: 4200, NGrams: 17, Gen: 1, Label: "english"},
		{Status: StatusOverloaded, Msg: "queue full"},
	})
	if err != nil {
		f.Fatal(err)
	}
	// Partial queries: one ByWords partition's word slice of a 1000-bit
	// query, and a ByClasses full vector ending in the 40-bit tail word.
	pquery, err := AppendPartialQueryFrame(nil, 43, 1500, WireQuery{
		NGrams: 148, Dim: 1000, Offset: 8, Words: []uint64{1, 2, 3, 4, 5, 6, 7, 1 << 39},
	})
	if err != nil {
		f.Fatal(err)
	}
	full := make([]uint64, 16)
	for i := range full {
		full[i] = 0x9e3779b97f4a7c15 * uint64(i+1)
	}
	full[15] &= 1<<40 - 1
	pfull, err := AppendPartialQueryFrame(nil, 47, 0, WireQuery{NGrams: 3, Dim: 1000, Words: full})
	if err != nil {
		f.Fatal(err)
	}
	partial, err := AppendPartialFrame(nil, 43, WirePartial{
		Status: StatusOK, Gen: 3, NGrams: 23, Distances: []uint32{120, 440, 87, 310},
	})
	if err != nil {
		f.Fatal(err)
	}
	pfail, err := AppendPartialFrame(nil, 44, WirePartial{Status: StatusDrained, Msg: "draining"})
	if err != nil {
		f.Fatal(err)
	}
	lrn, err := AppendLearnFrame(nil, 45, 3000, "esperanto", []string{"saluton mondo", "kiel vi fartas"})
	if err != nil {
		f.Fatal(err)
	}
	lack := AppendLearnAckFrame(nil, 45, WireLearnAck{Status: StatusOK, Accepted: 2})
	lfail := AppendLearnAckFrame(nil, 46, WireLearnAck{Status: StatusOverloaded, Accepted: 1, Msg: "queue full"})
	f.Add([]byte{})
	f.Add(query[lenSize:])
	f.Add(answer[lenSize:])
	f.Add(pquery[lenSize:])
	f.Add(pfull[lenSize:])
	f.Add(partial[lenSize:])
	f.Add(pfail[lenSize:])
	f.Add(AppendControlFrame(nil, TypePing, 7)[lenSize:])
	f.Add(AppendControlFrame(nil, TypeDrain, 0)[lenSize:])
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte("hw then garbage that is not a frame at all"))
	// Seeded structural corruptions: version, type, counts, inner lengths.
	for _, off := range []int{2, 3, headerSize + 4, headerSize + 6, len(query) - lenSize - 1} {
		c := bytes.Clone(query[lenSize:])
		c[off] ^= 0x81
		f.Add(c)
	}
	// A query frame whose inner length field declares far more than the
	// payload carries.
	inflated := bytes.Clone(query[lenSize:])
	binary.LittleEndian.PutUint16(inflated[headerSize+6:], 0xffff)
	f.Add(inflated)
	// A partial whose row count declares far more rows than the payload
	// carries, and structural corruptions of the partial frames.
	pinflated := bytes.Clone(partial[lenSize:])
	binary.LittleEndian.PutUint32(pinflated[headerSize+13:], MaxPartialRows)
	f.Add(pinflated)
	for _, off := range []int{headerSize, headerSize + 13, len(partial) - lenSize - 1} {
		c := bytes.Clone(partial[lenSize:])
		c[off] ^= 0x81
		f.Add(c)
	}
	// Partial-query rejects: a truncated word block, a zero word count, a
	// range past the vector, bits set past the dimension, and structural
	// corruptions of the fixed fields.
	f.Add(pquery[lenSize : len(pquery)-3])
	zero := bytes.Clone(pquery[lenSize : lenSize+headerSize+partialQueryFixed])
	binary.LittleEndian.PutUint32(zero[headerSize+16:], 0)
	f.Add(zero)
	past := bytes.Clone(pquery[lenSize:])
	binary.LittleEndian.PutUint32(past[headerSize+12:], 12) // words [12,20) of 16
	f.Add(past)
	tail := bytes.Clone(pfull[lenSize:])
	tail[len(tail)-1] |= 0x80 // bit 63 of the 40-bit tail word
	f.Add(tail)
	for _, off := range []int{headerSize + 8, headerSize + 12, headerSize + 16} {
		c := bytes.Clone(pquery[lenSize:])
		c[off] ^= 0x81
		f.Add(c)
	}
	// Learn frames: intact, corrupted label length, corrupted example count,
	// truncated acks.
	f.Add(lrn[lenSize:])
	f.Add(lack[lenSize:])
	f.Add(lfail[lenSize:])
	for _, off := range []int{headerSize + 4, headerSize + 5, len(lrn) - lenSize - 1} {
		c := bytes.Clone(lrn[lenSize:])
		c[off] ^= 0x81
		f.Add(c)
	}
	f.Add(lack[lenSize : len(lack)-lenSize-2])

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > MaxFrame {
			return // ReadFrame's length prefix rejects these before decode
		}
		fr, err := DecodeFrame(data)
		if err != nil {
			return
		}
		// Accepted input must be internally consistent and re-encodable.
		switch fr.Type {
		case TypeQuery:
			if len(fr.Queries) == 0 || len(fr.Queries) > MaxBatchPerFrame {
				t.Fatalf("accepted query frame with %d queries", len(fr.Queries))
			}
			for _, q := range fr.Queries {
				if len(q) > MaxTextLen {
					t.Fatalf("accepted %d-byte query text", len(q))
				}
			}
			raw, err := AppendQueryFrame(nil, fr.ID, fr.BudgetUs, fr.Queries)
			if err != nil {
				t.Fatalf("re-encode accepted query frame: %v", err)
			}
			if !bytes.Equal(raw[lenSize:], data) {
				t.Fatal("query frame round trip is not canonical")
			}
		case TypeAnswer:
			if len(fr.Answers) == 0 || len(fr.Answers) > MaxBatchPerFrame {
				t.Fatalf("accepted answer frame with %d answers", len(fr.Answers))
			}
			for _, a := range fr.Answers {
				if len(a.Label) > MaxLabelLen || len(a.Msg) > MaxMsgLen {
					t.Fatalf("accepted oversized label/msg: %d/%d", len(a.Label), len(a.Msg))
				}
				if a.Status == StatusOK && a.Msg != "" {
					t.Fatal("OK answer decoded a message")
				}
			}
			if _, err := AppendAnswerFrame(nil, fr.ID, fr.Answers); err != nil {
				t.Fatalf("re-encode accepted answer frame: %v", err)
			}
		case TypePartialQuery:
			q := fr.PartialQuery
			if q == nil {
				t.Fatal("accepted partial query frame without a query body")
			}
			if q.Dim == 0 || len(q.Words) == 0 || uint64(q.Offset)+uint64(len(q.Words)) > (uint64(q.Dim)+63)/64 {
				t.Fatalf("accepted words [%d,+%d) of a %d-bit query", q.Offset, len(q.Words), q.Dim)
			}
			raw, err := AppendPartialQueryFrame(nil, fr.ID, fr.BudgetUs, *q)
			if err != nil {
				t.Fatalf("re-encode accepted partial query frame: %v", err)
			}
			if !bytes.Equal(raw[lenSize:], data) {
				t.Fatal("partial query frame round trip is not canonical")
			}
		case TypePartial:
			p := fr.Partial
			if p == nil {
				t.Fatal("accepted partial frame without a partial body")
			}
			if p.Status == StatusOK {
				if len(p.Distances) == 0 || len(p.Distances) > MaxPartialRows {
					t.Fatalf("accepted partial with %d distance rows", len(p.Distances))
				}
				if p.Msg != "" {
					t.Fatal("OK partial decoded a message")
				}
			} else if len(p.Msg) > MaxMsgLen {
				t.Fatalf("accepted %d-byte partial message", len(p.Msg))
			}
			raw, err := AppendPartialFrame(nil, fr.ID, *p)
			if err != nil {
				t.Fatalf("re-encode accepted partial frame: %v", err)
			}
			if !bytes.Equal(raw[lenSize:], data) {
				t.Fatal("partial frame round trip is not canonical")
			}
		case TypeLearn:
			if fr.Label == "" || len(fr.Label) > MaxLabelLen {
				t.Fatalf("accepted learn frame with %d-byte label", len(fr.Label))
			}
			if len(fr.Queries) == 0 || len(fr.Queries) > MaxBatchPerFrame {
				t.Fatalf("accepted learn frame with %d examples", len(fr.Queries))
			}
			raw, err := AppendLearnFrame(nil, fr.ID, fr.BudgetUs, fr.Label, fr.Queries)
			if err != nil {
				t.Fatalf("re-encode accepted learn frame: %v", err)
			}
			if !bytes.Equal(raw[lenSize:], data) {
				t.Fatal("learn frame round trip is not canonical")
			}
		case TypeLearnAck:
			a := fr.LearnAck
			if a == nil {
				t.Fatal("accepted learn-ack frame without an ack body")
			}
			if a.Status == StatusOK && a.Msg != "" {
				t.Fatal("OK learn ack decoded a message")
			}
			if len(a.Msg) > MaxMsgLen {
				t.Fatalf("accepted %d-byte learn-ack message", len(a.Msg))
			}
			if !bytes.Equal(AppendLearnAckFrame(nil, fr.ID, *a)[lenSize:], data) {
				t.Fatal("learn-ack frame round trip is not canonical")
			}
		case TypePing, TypePong, TypeDrain:
			if len(fr.Queries) != 0 || len(fr.Answers) != 0 {
				t.Fatal("control frame decoded a body")
			}
		default:
			t.Fatalf("accepted unknown frame type %d", fr.Type)
		}
	})
}
