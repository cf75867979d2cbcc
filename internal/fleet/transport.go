package fleet

// transport.go: the dispatch seam between the coordinator and its replicas.
//
// The coordinator encodes each text exactly once and asks a
// ReplicaTransport per partition for the partial reduction of the encoded
// query; replicas are pure associative memories with no encoder (the
// paper's encoder/AM split, §II). An in-process engineTransport answers
// inline, on the asking goroutine, into the ask's pooled distance row
// (serve.Engine.AnswerEncodedInto). Any other transport may block, so Ask
// resolves it asynchronously and abandons it at Query.Deadline:
// netserve.RemoteTransport, which ships only the packed query words the
// partition scores to a hamserve -replica process, and chaosTransport,
// whose Config.Chaos injectors can stall. Everything above
// the seam — retries, hedging, EWMA health, breakers, the generation
// filter, the erasure certificate — is transport-agnostic: a dead TCP
// connection and a closed engine degrade the answer the same way.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hdam/internal/fault"
	"hdam/internal/hv"
	"hdam/internal/serve"
)

// Query is one encoded query as the coordinator scatters it. Every dispatch
// of one ask — each partition's first attempt, its retries and its hedges —
// carries the same vector.
type Query struct {
	// Vec is the full D-bit query hypervector. It is shared by every
	// dispatch of the ask and must not be mutated.
	Vec *hv.Vector
	// NGrams is how many n-grams the text encoded to (at least 1).
	NGrams int
	// Lo and Hi bound the packed-word range [Lo,Hi) of Vec the target
	// partition scores: its word slice under ByWords, every word under
	// ByClasses. A transport that ships bits sends only this range.
	Lo, Hi int
	// Seq is the ask's position on the fleet's request clock (fault
	// injectors key their schedules on it).
	Seq uint64
	// Deadline is when the coordinator abandons an asynchronous dispatch
	// (zero inline). A transport that ships the query passes the time left
	// on as the replica's budget and returns by it.
	Deadline time.Time
	// Dst, when non-nil, is a row the transport may answer
	// Partial.Distances into, reusing its backing array: the ask's scratch
	// row for the target partition. The coordinator sets it on inline
	// dispatches only, so no abandoned dispatch ever writes a row the ask
	// has reused.
	Dst []int
}

// Partial is one partition's gen-stamped partial reduction: the distance
// the partition observed for each of its rows, at the model generation
// that produced them.
type Partial struct {
	// Distances is the partition's observed per-row Hamming partials.
	Distances []int
	// Gen is the replica's model generation; the gather's generation
	// filter keeps any answer from mixing generations.
	Gen uint64
}

// ErrTransport marks a transport-level failure — a dead connection, a
// write deadline, a redial in progress — as opposed to the replica's own
// typed errors, which cross transports unchanged. Match with errors.Is;
// the coordinator counts these as RemoteErrors and treats them exactly
// like any replica failure: retry the rotation, then score an erasure.
var ErrTransport = errors.New("fleet: replica transport failure")

// ReplicaTransport is the coordinator's view of one replica: ask it for a
// partition's partial reduction. Implementations must be safe for
// concurrent Asks and must fail fast — never block past ctx or
// q.Deadline — when the replica is unreachable.
type ReplicaTransport interface {
	// Ask submits one encoded query and returns the replica's gen-stamped
	// partial. Typed errors (ctx errors, the replica's own failures) pass
	// through as-is; transport-level failures wrap ErrTransport.
	Ask(ctx context.Context, q Query) (Partial, error)
	// Close releases the transport (engine shutdown, connection teardown).
	Close() error
}

// TransportHealth is the optional introspection a transport may implement
// (one without it is always connected). The coordinator uses Connected to
// route dispatches away from a replica whose connection is mid-redial
// (fail-fast instead of fail-slow), and sums Reconnects into Stats.
type TransportHealth interface {
	// Connected reports whether the transport can carry an Ask right now.
	Connected() bool
	// Reconnects counts connections re-established after a failure.
	Reconnects() uint64
}

// engineTransport adapts an in-process serve.Engine (running with
// ReportDistances) to the transport seam. The engine answers on the
// caller's goroutine and takes the shared query vector as is — its
// partition's searcher reads only the words it scores — and reports the
// partition's row into q.Dst.
type engineTransport struct{ eng *serve.Engine }

func (t engineTransport) Ask(ctx context.Context, q Query) (Partial, error) {
	resp, err := t.eng.AnswerEncodedInto(ctx, q.Vec, q.NGrams, q.Dst)
	if err != nil {
		return Partial{}, err
	}
	return Partial{Distances: resp.Distances, Gen: resp.Gen}, nil
}

func (t engineTransport) Close() error {
	t.eng.Close()
	return nil
}

// chaosTransport decorates an in-process replica's transport with the
// fleet's replica fault injectors (Config.Chaos). BeforeDispatch may stall,
// so a decorated transport is never answered inline.
type chaosTransport struct {
	ReplicaTransport
	id   int
	injs []fault.ReplicaInjector
}

// Ask runs the injectors around the inner ask: BeforeDispatch may fail the
// dispatch or stall it past q.Deadline (which fails it with ErrDeadline),
// and AfterPartial may damage the partial that comes back.
func (t chaosTransport) Ask(ctx context.Context, q Query) (Partial, error) {
	for _, inj := range t.injs {
		if err := inj.BeforeDispatch(t.id, q.Seq); err != nil {
			return Partial{}, err
		}
	}
	if !q.Deadline.IsZero() && !time.Now().Before(q.Deadline) {
		return Partial{}, fmt.Errorf("%w (replica %d stalled)", ErrDeadline, t.id)
	}
	pt, err := t.ReplicaTransport.Ask(ctx, q)
	if err == nil {
		for _, inj := range t.injs {
			inj.AfterPartial(t.id, q.Seq, pt.Distances)
		}
	}
	return pt, err
}

// serveEngine unwraps the in-process engine behind a transport (nil for
// remote transports) — the handle Swap, Drain and the stats view need.
func serveEngine(tr ReplicaTransport) *serve.Engine {
	switch t := tr.(type) {
	case engineTransport:
		return t.eng
	case chaosTransport:
		return serveEngine(t.ReplicaTransport)
	}
	return nil
}
