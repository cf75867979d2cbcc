package netserve

import (
	"context"

	"hdam/internal/fleet"
	"hdam/internal/learn"
	"hdam/internal/serve"
)

// Backend is what the server serves: the micro-batching engine or the
// scatter-gather fleet, behind one asynchronous submission contract.
type Backend interface {
	// Go submits one text and returns the buffered channel its response
	// arrives on. A submit-time refusal (admission control, closed backend)
	// is returned as the error; everything accepted is eventually answered
	// on the channel — possibly with a typed per-request failure — which is
	// the property the drain path relies on.
	Go(ctx context.Context, text string) (<-chan serve.Response, error)
	// Drain stops intake and flushes what fits ctx, failing the rest fast
	// with the backend's drained error; it reports how many requests were
	// abandoned that way (see serve.Engine.Drain / fleet.Fleet.Drain).
	Drain(ctx context.Context) (abandoned uint64, err error)
	// Close stops the backend, answering everything already accepted.
	Close()
	// Stats returns the backend's counters for the /statsz endpoint.
	Stats() any
}

// PartialBackend is the optional capability a Backend implements to answer
// TypePartialQuery frames: replica mode, serving gen-stamped per-row
// distance partials of the coordinator's encoded queries. The backend must
// report distances (serve.Config.ReportDistances) or partial queries fail
// typed.
type PartialBackend interface {
	// GoPartial submits one encoded query and returns the channel its
	// response — carrying Distances, Gen and NGrams — arrives on, under the
	// same always-answered contract as Go.
	GoPartial(ctx context.Context, q WireQuery) (<-chan serve.Response, error)
}

// LearnBackend is the optional capability a Backend implements to answer
// TypeLearn frames (and the HTTP /learn endpoint): train-while-serve
// ingestion into an online learner. A backend without it refuses learn
// traffic with a typed answer — notably the fleet backend: replicas hold
// partitions of one model, so examples ingested at the coordinator could
// not produce a consistent cross-replica generation. Learning happens where
// a whole model lives (a single engine); fleets pick up new generations the
// same way they pick up any other snapshot.
type LearnBackend interface {
	// Learn submits one labeled example to the online learner under the
	// learner's admission policy; ctx bounds any backpressure wait.
	Learn(ctx context.Context, label, text string) error
	// LearnStats returns the learner's counters for /statsz.
	LearnStats() learn.Stats
}

// engineBackend adapts a serve.Engine. Engine responses pass through
// untouched, so socket answers are bit-identical to in-process Submit.
type engineBackend struct{ eng *serve.Engine }

// EngineBackend serves a micro-batching engine over the network.
func EngineBackend(eng *serve.Engine) Backend { return engineBackend{eng} }

// learnBackend pairs an engine with an online learner, adding the
// LearnBackend capability to the engine's serving contract.
type learnBackend struct {
	engineBackend
	lr *learn.Learner
}

// LearnEngineBackend serves a micro-batching engine with train-while-serve
// ingestion: queries hit the engine, learn frames hit the learner, and the
// learner's reconciled generations reach the engine through the snapshot
// registry like any other swap.
func LearnEngineBackend(eng *serve.Engine, lr *learn.Learner) Backend {
	return learnBackend{engineBackend{eng}, lr}
}

func (b learnBackend) Learn(ctx context.Context, label, text string) error {
	return b.lr.Ingest(ctx, label, text)
}

func (b learnBackend) LearnStats() learn.Stats { return b.lr.Stats() }

// learnStats pairs the engine counters with the learner's for /statsz.
type learnStats struct {
	Engine  serve.Stats
	Learner learn.Stats
}

func (b learnBackend) Stats() any {
	return learnStats{Engine: b.eng.Stats(), Learner: b.lr.Stats()}
}

func (b engineBackend) Go(ctx context.Context, text string) (<-chan serve.Response, error) {
	return b.eng.Go(ctx, text)
}

func (b engineBackend) Drain(ctx context.Context) (uint64, error) { return b.eng.Drain(ctx) }
func (b engineBackend) Close()                                    { b.eng.Close() }
func (b engineBackend) Stats() any                                { return b.eng.Stats() }

// replicaBackend adapts a fleet.ReplicaEngine: replica mode. Partial
// queries carry the coordinator's encoded query words; text queries reach
// the encoder-less engine and fail typed (serve.ErrNoEncoder).
type replicaBackend struct {
	engineBackend
	rep *fleet.ReplicaEngine
}

// ReplicaBackend serves one partition replica over the network: the remote
// end of a coordinator's netserve.RemoteTransport.
func ReplicaBackend(r *fleet.ReplicaEngine) Backend {
	return replicaBackend{engineBackend{r.Engine}, r}
}

// GoPartial implements PartialBackend; a word range other than the
// replica's partition is refused with fleet.ErrQueryRange (StatusRange).
func (b replicaBackend) GoPartial(ctx context.Context, q WireQuery) (<-chan serve.Response, error) {
	return b.rep.GoWords(ctx, int(q.Dim), int(q.Offset), q.Words, int(q.NGrams))
}

// fleetBackend adapts a fleet.Fleet: one gather goroutine per request
// (the fleet's Ask is synchronous), answers carrying the fleet's reduced
// result. Degraded-mode metadata stays on /statsz; the wire answer carries
// the winner exactly as Ask reported it.
type fleetBackend struct{ fl *fleet.Fleet }

// FleetBackend serves a scatter-gather replica fleet over the network.
func FleetBackend(fl *fleet.Fleet) Backend { return fleetBackend{fl} }

func (b fleetBackend) Go(ctx context.Context, text string) (<-chan serve.Response, error) {
	ch := make(chan serve.Response, 1)
	go func() {
		ans, err := b.fl.Ask(ctx, text)
		ch <- serve.Response{
			Result: ans.Result,
			Label:  ans.Label,
			NGrams: ans.NGrams,
			Gen:    ans.Gen,
			Err:    err,
		}
	}()
	return ch, nil
}

func (b fleetBackend) Drain(ctx context.Context) (uint64, error) { return b.fl.Drain(ctx) }
func (b fleetBackend) Close()                                    { b.fl.Close() }

// fleetStats pairs the coordinator counters with the per-replica health
// view for /statsz.
type fleetStats struct {
	Fleet    fleet.Stats
	Replicas []fleet.ReplicaStats
}

func (b fleetBackend) Stats() any {
	return fleetStats{Fleet: b.fl.Stats(), Replicas: b.fl.ReplicaStats()}
}

// partialOf converts a backend response to its wire partial form. A
// backend that is not reporting distances yields a typed failure, never an
// empty partial the decoder would reject.
func partialOf(r serve.Response) WirePartial {
	if r.Err != nil {
		p := WirePartial{Status: StatusOf(r.Err)}
		if p.Status == StatusInternal {
			p.Msg = r.Err.Error()
		}
		return p
	}
	if len(r.Distances) == 0 || len(r.Distances) > MaxPartialRows {
		return WirePartial{Status: StatusInternal, Msg: "replica backend is not reporting distances"}
	}
	ds := make([]uint32, len(r.Distances))
	for i, d := range r.Distances {
		ds[i] = uint32(d)
	}
	return WirePartial{Status: StatusOK, Gen: r.Gen, NGrams: uint32(r.NGrams), Distances: ds}
}

// answerOf converts an engine response to its wire form.
func answerOf(r serve.Response) WireAnswer {
	if r.Err != nil {
		a := WireAnswer{Status: StatusOf(r.Err)}
		if a.Status == StatusInternal {
			a.Msg = r.Err.Error()
		}
		return a
	}
	return WireAnswer{
		Status:   StatusOK,
		Index:    uint32(r.Result.Index),
		Distance: uint32(r.Result.Distance),
		NGrams:   uint32(r.NGrams),
		Gen:      r.Gen,
		Label:    r.Label,
	}
}
