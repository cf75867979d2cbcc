package netserve

import (
	"context"
	"sync"
	"sync/atomic"

	"hdam/internal/fleet"
	"hdam/internal/learn"
	"hdam/internal/serve"
)

// Backend is what the server serves: the micro-batching engine or the
// scatter-gather fleet, behind one asynchronous submission contract. The
// binary protocol takes its answers through FuncBackend when the backend
// implements it.
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

// FuncBackend is the optional capability through which the server takes
// answers: the backend calls done with the response instead of sending it
// on a channel, so the goroutine that finishes a request (an engine worker,
// a fleet asker) writes its frame's answer straight into the connection.
// done runs on that goroutine and must not block. A backend with Go only is
// served through one goroutine per text that waits on its channel.
type FuncBackend interface {
	// GoFunc submits one text under Go's contract and calls done with its
	// response exactly once, unless it returns an error. done may run
	// before GoFunc returns.
	GoFunc(ctx context.Context, text string, done func(serve.Response)) error
}

// PartialBackend is the optional capability a Backend implements to answer
// TypePartialQuery frames: replica mode, serving gen-stamped per-row
// distance partials of the coordinator's encoded queries. The backend must
// report distances (serve.Config.ReportDistances) or partial queries fail
// typed.
type PartialBackend interface {
	// GoPartial submits one encoded query and calls done with its
	// response — carrying Distances, Gen and NGrams — under the same
	// always-answered contract as FuncBackend.GoFunc.
	GoPartial(ctx context.Context, q WireQuery, done func(serve.Response)) error
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

// GoFunc implements FuncBackend: done runs on the engine worker that
// answered the text.
func (b engineBackend) GoFunc(ctx context.Context, text string, done func(serve.Response)) error {
	return b.eng.GoFunc(ctx, text, done)
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
func (b replicaBackend) GoPartial(ctx context.Context, q WireQuery, done func(serve.Response)) error {
	return b.rep.GoWords(ctx, int(q.Dim), int(q.Offset), q.Words, int(q.NGrams), done)
}

// maxParkedAskers bounds the idle askers a fleet backend keeps: enough for
// the concurrent asks of a loaded server, few enough that a burst's askers
// exit once it passes.
const maxParkedAskers = 8

// fleetBackend adapts a fleet.Fleet, whose Ask is synchronous, by running
// each ask on an asker goroutine that then delivers the response through
// the completion func. Askers are reused: one parks after each ask and
// takes the next, a new one starts only when none is parked, and one exits
// instead of parking once maxParkedAskers already are — so a steady load
// starts no goroutine per text, and every asker's stack stays grown for
// the encode and gather it runs. Close and Drain return once every asker
// has exited. Answers carry the fleet's reduced result; degraded-mode
// metadata stays on /statsz, and the wire answer carries the winner
// exactly as Ask reported it.
type fleetBackend struct {
	fl      *fleet.Fleet
	asks    chan fleetAsk // unbuffered: a send succeeds only into a parked asker
	parked  atomic.Int32
	started atomic.Uint64 // asker goroutines started

	mu     sync.Mutex // orders starting askers against Close/Drain
	closed bool
	quit   chan struct{} // closed with closed: parked askers exit
	askers sync.WaitGroup
}

// fleetAsk is one text handed to an asker.
type fleetAsk struct {
	ctx  context.Context
	text string
	done func(serve.Response)
}

// FleetBackend serves a scatter-gather replica fleet over the network.
func FleetBackend(fl *fleet.Fleet) Backend {
	return &fleetBackend{fl: fl, asks: make(chan fleetAsk), quit: make(chan struct{})}
}

func (b *fleetBackend) Go(ctx context.Context, text string) (<-chan serve.Response, error) {
	ch := make(chan serve.Response, 1)
	if err := b.GoFunc(ctx, text, func(r serve.Response) { ch <- r }); err != nil {
		return nil, err
	}
	return ch, nil
}

// GoFunc implements FuncBackend: done runs on the asker that ran the ask.
// After Close or Drain the text is refused with fleet.ErrClosed.
func (b *fleetBackend) GoFunc(ctx context.Context, text string, done func(serve.Response)) error {
	a := fleetAsk{ctx: ctx, text: text, done: done}
	select {
	case b.asks <- a:
		return nil
	default:
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fleet.ErrClosed
	}
	b.started.Add(1)
	b.askers.Add(1)
	go b.asker(a)
	return nil
}

// asker runs asks until it is surplus or the backend stops.
func (b *fleetBackend) asker(a fleetAsk) {
	defer b.askers.Done()
	for {
		ans, err := b.fl.Ask(a.ctx, a.text)
		a.done(serve.Response{Result: ans.Result, Label: ans.Label, NGrams: ans.NGrams, Gen: ans.Gen, Err: err})
		if b.parked.Add(1) > maxParkedAskers {
			b.parked.Add(-1)
			return
		}
		select {
		case a = <-b.asks:
			b.parked.Add(-1)
		case <-b.quit:
			b.parked.Add(-1)
			return
		}
	}
}

// stop refuses further asks and releases the parked askers.
func (b *fleetBackend) stop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.closed = true
		close(b.quit)
	}
}

func (b *fleetBackend) Drain(ctx context.Context) (uint64, error) {
	b.stop()
	n, err := b.fl.Drain(ctx)
	b.askers.Wait()
	return n, err
}

func (b *fleetBackend) Close() {
	b.stop()
	b.fl.Close()
	b.askers.Wait()
}

// fleetStats pairs the coordinator counters with the per-replica health
// view for /statsz.
type fleetStats struct {
	Fleet    fleet.Stats
	Replicas []fleet.ReplicaStats
}

func (b *fleetBackend) Stats() any {
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
