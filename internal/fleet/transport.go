package fleet

// transport.go: the dispatch seam between the coordinator and its replicas.
//
// The coordinator never talks to a serve.Engine directly; it asks a
// ReplicaTransport for a partition's partial reduction of an encoded query.
// The coordinator encodes each text exactly once; replicas are pure
// associative memories with no encoder (the paper's encoder/AM split, §II).
// Two implementations exist: engineTransport hands the shared query vector
// to an in-process engine, and netserve.RemoteTransport ships only the
// packed query words the partition scores, in TypePartialQuery/TypePartial
// frames, to a hamserve process in -replica mode. Everything
// above the seam — retries, hedging, EWMA health, breakers, the generation
// filter, the erasure certificate — is transport-agnostic: a dead TCP
// connection and a closed engine degrade the answer the same way.

import (
	"context"
	"errors"

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
// partition's partial reduction, bounded by ctx. Implementations must be
// safe for concurrent Asks and must fail fast — never block past ctx —
// when the replica is unreachable.
type ReplicaTransport interface {
	// Ask submits one encoded query and returns the replica's gen-stamped
	// partial. Typed errors (ctx errors, the replica's own failures) pass
	// through as-is; transport-level failures wrap ErrTransport.
	Ask(ctx context.Context, q Query) (Partial, error)
	// Close releases the transport (engine shutdown, connection teardown).
	Close() error
}

// TransportHealth is the optional introspection a transport may implement.
// The coordinator uses Connected to route dispatches away from a replica
// whose connection is mid-redial (fail-fast instead of fail-slow), and
// sums Reconnects into Stats.
type TransportHealth interface {
	// Connected reports whether the transport can carry an Ask right now.
	Connected() bool
	// Reconnects counts connections re-established after a failure.
	Reconnects() uint64
}

// drainableTransport is the optional graceful-shutdown capability; without
// it, Fleet.Drain falls back to Close.
type drainableTransport interface {
	Drain(ctx context.Context) (abandoned uint64, err error)
}

// engineTransport adapts an in-process serve.Engine (running with
// ReportDistances) to the transport seam. The engine takes the shared query
// vector as is: its partition's searcher reads only the words it scores.
type engineTransport struct{ eng *serve.Engine }

// EngineTransport wraps an in-process replica engine. The engine must run
// with serve.Config.ReportDistances so its responses carry the per-row
// partials.
func EngineTransport(eng *serve.Engine) ReplicaTransport { return engineTransport{eng} }

func (t engineTransport) Ask(ctx context.Context, q Query) (Partial, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	done, err := t.eng.GoEncoded(ctx, q.Vec, q.NGrams)
	if err != nil {
		return Partial{}, err
	}
	select {
	case resp := <-done:
		if resp.Err != nil {
			return Partial{}, resp.Err
		}
		return Partial{Distances: resp.Distances, Gen: resp.Gen}, nil
	case <-ctx.Done():
		return Partial{}, ctx.Err()
	}
}

func (t engineTransport) Drain(ctx context.Context) (uint64, error) { return t.eng.Drain(ctx) }

func (t engineTransport) Close() error {
	t.eng.Close()
	return nil
}

// Always connected, never reconnects: an in-process engine has no wire.
func (t engineTransport) Connected() bool    { return true }
func (t engineTransport) Reconnects() uint64 { return 0 }

// serveEngine unwraps the in-process engine behind a transport (nil for
// remote transports) — the handle Swap and the stats view need.
func serveEngine(tr ReplicaTransport) *serve.Engine {
	if et, ok := tr.(engineTransport); ok {
		return et.eng
	}
	return nil
}
