package netserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hdam/internal/serve"
)

// Config tunes the network front-end. Either address may be empty to
// disable that listener (but not both).
type Config struct {
	// BinaryAddr is the TCP address of the binary-protocol listener
	// (e.g. "127.0.0.1:7401", ":0" for an ephemeral port).
	BinaryAddr string
	// HTTPAddr is the TCP address of the HTTP/JSON listener.
	HTTPAddr string
	// MaxConns caps simultaneous binary-protocol connections; a connection
	// beyond it is counted and closed immediately (default 256).
	MaxConns int
	// MaxInflight caps query frames in flight per binary connection; a
	// frame beyond it is answered StatusOverloaded without touching the
	// backend — the socket-level face of the engine's admission control
	// (default 256).
	MaxInflight int
	// MaxHTTPInflight caps concurrent /classify requests across the whole
	// HTTP listener; a request beyond it is refused 503 immediately instead
	// of queueing in the transport, so HTTP overload sheds rather than
	// collapsing into unbounded latency (default 256).
	MaxHTTPInflight int
	// IdleTimeout is the per-connection read deadline between frames; a
	// connection silent past it is closed (default 2m).
	IdleTimeout time.Duration
	// WriteTimeout is the per-write deadline on answer frames and HTTP
	// responses; a peer that stops reading is disconnected, not waited on
	// (default 10s).
	WriteTimeout time.Duration
	// MaxBudget caps the deadline budget a query frame may request
	// (default 10s); 0 budgets mean no per-request deadline.
	MaxBudget time.Duration
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.MaxHTTPInflight <= 0 {
		c.MaxHTTPInflight = 256
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 10 * time.Second
	}
	return c
}

// Stats is a snapshot of the server's socket-level counters; backend
// counters live on the backend's own Stats.
type Stats struct {
	Accepted      uint64 // binary connections accepted
	RejectedConns uint64 // connections refused at the MaxConns limit
	Active        int64  // binary connections open now
	Frames        uint64 // query frames decoded
	Queries       uint64 // queries submitted to the backend
	LearnFrames   uint64 // learn frames decoded (plus /learn requests)
	LearnAccepted uint64 // learn examples admitted to the learner
	Answered      uint64 // answers written back (classifications and typed failures)
	InflightShed  uint64 // frames answered overloaded at the per-connection cap
	ProtoErrors   uint64 // connections dropped on malformed frames
	HTTPRequests  uint64 // HTTP requests served
	HTTPShed      uint64 // /classify requests refused 503 at the in-flight cap
	Draining      bool   // drain has begun
}

// Server is the network front-end. Construct with New (the listeners are
// live when it returns); stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	backend Backend

	binLn   net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	mu    sync.Mutex
	conns map[*srvConn]struct{}

	draining atomic.Bool
	closed   atomic.Bool
	drainCh  chan struct{} // closed when drain/close begins: readers stop taking frames

	wg sync.WaitGroup // accept loop + per-connection handlers

	accepted, rejectedConns     atomic.Uint64
	frames, queries             atomic.Uint64
	learnFrames, learnAccepted  atomic.Uint64
	answered, inflightShed      atomic.Uint64
	protoErrors, httpReqs       atomic.Uint64
	httpShed                    atomic.Uint64
	httpInflight                atomic.Int64
	active                      atomic.Int64
	shutdownOnce, backendClosed sync.Once
}

// New builds the server over a backend and starts listening. At least one
// of the two listeners must be configured.
func New(b Backend, cfg Config) (*Server, error) {
	if b == nil {
		return nil, errors.New("netserve: nil backend")
	}
	cfg = cfg.withDefaults()
	if cfg.BinaryAddr == "" && cfg.HTTPAddr == "" {
		return nil, errors.New("netserve: no listener configured")
	}
	s := &Server{
		cfg:     cfg,
		backend: b,
		conns:   make(map[*srvConn]struct{}),
		drainCh: make(chan struct{}),
	}
	if cfg.BinaryAddr != "" {
		ln, err := net.Listen("tcp", cfg.BinaryAddr)
		if err != nil {
			return nil, fmt.Errorf("netserve: binary listener: %w", err)
		}
		s.binLn = ln
		s.wg.Add(1)
		go s.acceptLoop()
	}
	if cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", cfg.HTTPAddr)
		if err != nil {
			if s.binLn != nil {
				s.binLn.Close()
			}
			return nil, fmt.Errorf("netserve: http listener: %w", err)
		}
		s.httpLn = ln
		mux := http.NewServeMux()
		mux.HandleFunc("/classify", s.handleClassify)
		mux.HandleFunc("/learn", s.handleLearnHTTP)
		mux.HandleFunc("/statsz", s.handleStatsz)
		mux.HandleFunc("/healthz", s.handleHealthz)
		s.httpSrv = &http.Server{
			Handler:      mux,
			ReadTimeout:  cfg.IdleTimeout,
			WriteTimeout: cfg.WriteTimeout,
			IdleTimeout:  cfg.IdleTimeout,
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.httpSrv.Serve(ln) // returns ErrServerClosed on Shutdown
		}()
	}
	return s, nil
}

// BinaryAddr returns the binary listener's address (nil when disabled) —
// the resolved port when the config asked for :0.
func (s *Server) BinaryAddr() net.Addr {
	if s.binLn == nil {
		return nil
	}
	return s.binLn.Addr()
}

// HTTPAddr returns the HTTP listener's address (nil when disabled).
func (s *Server) HTTPAddr() net.Addr {
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

// Stats returns a snapshot of the socket-level counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:      s.accepted.Load(),
		RejectedConns: s.rejectedConns.Load(),
		Active:        s.active.Load(),
		Frames:        s.frames.Load(),
		Queries:       s.queries.Load(),
		LearnFrames:   s.learnFrames.Load(),
		LearnAccepted: s.learnAccepted.Load(),
		Answered:      s.answered.Load(),
		InflightShed:  s.inflightShed.Load(),
		ProtoErrors:   s.protoErrors.Load(),
		HTTPRequests:  s.httpReqs.Load(),
		HTTPShed:      s.httpShed.Load(),
		Draining:      s.draining.Load(),
	}
}

// Drain gracefully shuts the server down: listeners close, every binary
// connection is told to stop submitting (TypeDrain), frames already
// accepted are answered — classified while ctx lasts, failed fast with the
// drained status after — and the backend is drained through its own Drain
// path. Drain returns once every connection has flushed and closed, or
// with ctx's error if the deadline forced a hard close. It is idempotent
// and safe to combine with Close.
func (s *Server) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.draining.Store(true)
	s.shutdown()

	// Announce drain on every open connection; readers stop taking new
	// frames once drainCh is closed (shutdown did that).
	s.mu.Lock()
	for c := range s.conns {
		c.enqueue(AppendControlFrame(nil, TypeDrain, 0))
	}
	s.mu.Unlock()

	// Drain the backend under the caller's deadline: everything accepted is
	// answered (classified or failed fast with the drained error), which
	// unblocks every gather goroutine and lets the writers flush.
	var derr error
	s.backendClosed.Do(func() { _, derr = s.backend.Drain(ctx) })

	// The HTTP side finishes its in-flight handlers the same way.
	var herr error
	if s.httpSrv != nil {
		herr = s.httpSrv.Shutdown(ctx)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.forceClose() // deadline passed: hard-close the stragglers
		<-done
		return errors.Join(ctx.Err(), derr, herr)
	}
	return errors.Join(derr, herr)
}

// Close stops the server immediately: listeners and connections close,
// the backend is closed (still answering everything it accepted), and
// Close returns when every handler has exited. Idempotent.
func (s *Server) Close() {
	s.closed.Store(true)
	s.shutdown()
	s.backendClosed.Do(func() { s.backend.Close() })
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	s.forceClose()
	s.wg.Wait()
}

// shutdown stops intake exactly once: listeners close, readers are
// signaled to stop taking frames, and blocked reads are woken by an
// expired deadline. Readers set their deadline before checking drainCh,
// so either ordering of the two writes lands on a past deadline.
func (s *Server) shutdown() {
	s.shutdownOnce.Do(func() {
		if s.binLn != nil {
			s.binLn.Close()
		}
		close(s.drainCh)
		s.mu.Lock()
		for c := range s.conns {
			c.nc.SetReadDeadline(time.Now())
		}
		s.mu.Unlock()
	})
}

// forceClose hard-closes every remaining binary connection.
func (s *Server) forceClose() {
	s.mu.Lock()
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
}

// acceptLoop admits binary connections up to the MaxConns limit.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.binLn.Accept()
		if err != nil {
			return // listener closed by Drain/Close
		}
		if s.draining.Load() || s.active.Load() >= int64(s.cfg.MaxConns) {
			s.rejectedConns.Add(1)
			nc.Close()
			continue
		}
		s.accepted.Add(1)
		s.active.Add(1)
		c := newSrvConn(s, nc)
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go c.run()
	}
}

// srvConn is one binary-protocol connection: a frame reader, a writer
// goroutine serializing answer frames (with write combining), and one
// gather goroutine per in-flight query frame.
type srvConn struct {
	s  *Server
	nc net.Conn

	ctx    context.Context // canceled when the connection is unusable
	cancel context.CancelFunc

	out       chan []byte // encoded frames to write
	outMu     sync.Mutex  // guards out against enqueue-after-close
	outClosed bool
	inflight  atomic.Int64
	gathers   sync.WaitGroup
}

func newSrvConn(s *Server, nc net.Conn) *srvConn {
	ctx, cancel := context.WithCancel(context.Background())
	return &srvConn{s: s, nc: nc, ctx: ctx, cancel: cancel, out: make(chan []byte, 64)}
}

// enqueue hands one encoded frame to the writer, dropping it if the
// connection is already dead or flushed (the peer cannot receive it
// anyway). The mutex makes enqueue safe against closeOut: Drain can
// broadcast on a connection that is concurrently tearing down.
func (c *srvConn) enqueue(raw []byte) {
	c.outMu.Lock()
	defer c.outMu.Unlock()
	if c.outClosed {
		return
	}
	select {
	case c.out <- raw:
	case <-c.ctx.Done():
	}
}

// closeOut releases the writer once no more frames can arrive.
func (c *srvConn) closeOut() {
	c.outMu.Lock()
	defer c.outMu.Unlock()
	c.outClosed = true
	close(c.out)
}

// run owns the connection's lifecycle: read frames until EOF/drain/error,
// wait for every in-flight gather to answer, flush the writer, close.
func (c *srvConn) run() {
	defer c.s.wg.Done()
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		c.writeLoop()
	}()

	c.readLoop()

	// All accepted frames answer before the writer is released: the drain
	// guarantee "every accepted request answered" is enforced here.
	c.gathers.Wait()
	c.closeOut()
	writerWG.Wait()
	c.cancel()
	c.nc.Close()

	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
	c.s.active.Add(-1)
}

// readLoop decodes query frames until the peer hangs up, the server
// drains, the idle deadline passes, or the stream turns malformed.
func (c *srvConn) readLoop() {
	var buf []byte
	for {
		// Deadline before the drain check: shutdown closes drainCh and then
		// stamps a past deadline, so either interleaving stops this loop.
		c.nc.SetReadDeadline(time.Now().Add(c.s.cfg.IdleTimeout))
		select {
		case <-c.s.drainCh:
			return
		default:
		}
		f, nbuf, err := ReadFrame(c.nc, buf)
		buf = nbuf
		if err != nil {
			if errors.Is(err, io.EOF) {
				return // clean hangup between frames
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return // idle past the deadline, or woken by drain
			}
			if errors.Is(err, ErrBadMagic) || errors.Is(err, ErrVersion) || errors.Is(err, ErrBadFrame) ||
				errors.Is(err, ErrTruncated) || errors.Is(err, ErrFrameTooLarge) {
				c.s.protoErrors.Add(1)
			}
			return // framing is unrecoverable mid-stream: drop the connection
		}
		switch f.Type {
		case TypePing:
			c.enqueue(AppendControlFrame(nil, TypePong, f.ID))
		case TypeQuery:
			c.s.frames.Add(1)
			c.handleQuery(f)
		case TypePartialQuery:
			c.s.frames.Add(1)
			c.handlePartial(f)
		case TypeLearn:
			c.s.learnFrames.Add(1)
			c.handleLearn(f)
		default:
			// Client-bound or unknown-but-valid frames are ignored.
		}
	}
}

// handleQuery submits one query frame's batch to the backend and spawns
// the gather that answers it. Over the per-connection in-flight cap the
// frame is refused as overloaded without touching the backend.
func (c *srvConn) handleQuery(f Frame) {
	if c.inflight.Load() >= int64(c.s.cfg.MaxInflight) {
		c.s.inflightShed.Add(1)
		c.respondAll(f, StatusOverloaded, "connection in-flight cap")
		return
	}
	qctx, qcancel := context.Background(), context.CancelFunc(func() {})
	if f.BudgetUs > 0 {
		budget := time.Duration(f.BudgetUs) * time.Microsecond
		if budget > c.s.cfg.MaxBudget {
			budget = c.s.cfg.MaxBudget
		}
		qctx, qcancel = context.WithTimeout(context.Background(), budget)
	}
	answers := make([]WireAnswer, len(f.Queries))
	chans := make([]<-chan serve.Response, len(f.Queries))
	for i, text := range f.Queries {
		ch, err := c.s.backend.Go(qctx, text)
		if err != nil {
			a := WireAnswer{Status: StatusOf(err)}
			if a.Status == StatusInternal {
				a.Msg = err.Error()
			}
			answers[i] = a
			continue
		}
		c.s.queries.Add(1)
		chans[i] = ch
	}
	c.inflight.Add(1)
	c.gathers.Add(1)
	go func(id uint64) {
		defer c.gathers.Done()
		defer c.inflight.Add(-1)
		defer qcancel()
		for i, ch := range chans {
			if ch == nil {
				continue // refused at submit; answer already filled
			}
			answers[i] = answerOf(<-ch)
		}
		raw, err := AppendAnswerFrame(nil, id, answers)
		if err != nil {
			return // unreachable: answer counts mirror the decoded queries
		}
		c.s.answered.Add(uint64(len(answers)))
		c.enqueue(raw)
	}(f.ID)
}

// handlePartial answers one partial-query frame: the replica-mode path,
// submitting the encoded query words to the backend and returning its
// gen-stamped per-row
// distance partial. It shares the query path's in-flight cap, budget
// clamping, and always-answered drain guarantee.
func (c *srvConn) handlePartial(f Frame) {
	pb, ok := c.s.backend.(PartialBackend)
	if !ok {
		c.respondPartial(f.ID, WirePartial{Status: StatusInternal, Msg: "backend does not serve partials"})
		return
	}
	if c.inflight.Load() >= int64(c.s.cfg.MaxInflight) {
		c.s.inflightShed.Add(1)
		c.respondPartial(f.ID, WirePartial{Status: StatusOverloaded, Msg: "connection in-flight cap"})
		return
	}
	qctx, qcancel := context.Background(), context.CancelFunc(func() {})
	if f.BudgetUs > 0 {
		budget := time.Duration(f.BudgetUs) * time.Microsecond
		if budget > c.s.cfg.MaxBudget {
			budget = c.s.cfg.MaxBudget
		}
		qctx, qcancel = context.WithTimeout(context.Background(), budget)
	}
	ch, err := pb.GoPartial(qctx, *f.PartialQuery)
	if err != nil {
		qcancel()
		p := WirePartial{Status: StatusOf(err)}
		if p.Status == StatusInternal {
			p.Msg = err.Error()
		}
		c.respondPartial(f.ID, p)
		return
	}
	c.s.queries.Add(1)
	c.inflight.Add(1)
	c.gathers.Add(1)
	go func(id uint64) {
		defer c.gathers.Done()
		defer c.inflight.Add(-1)
		defer qcancel()
		c.respondPartial(id, partialOf(<-ch))
	}(f.ID)
}

// handleLearn feeds one learn frame's examples to the backend's online
// learner and acks with how many were admitted. It shares the query path's
// in-flight cap, budget clamping, and always-answered drain guarantee; a
// backend without the learn capability (notably the fleet coordinator —
// see LearnBackend) refuses with a typed answer.
func (c *srvConn) handleLearn(f Frame) {
	lb, ok := c.s.backend.(LearnBackend)
	if !ok {
		c.respondLearn(f.ID, WireLearnAck{Status: StatusInternal, Msg: "backend does not learn"})
		return
	}
	if c.inflight.Load() >= int64(c.s.cfg.MaxInflight) {
		c.s.inflightShed.Add(1)
		c.respondLearn(f.ID, WireLearnAck{Status: StatusOverloaded, Msg: "connection in-flight cap"})
		return
	}
	qctx, qcancel := context.Background(), context.CancelFunc(func() {})
	if f.BudgetUs > 0 {
		budget := time.Duration(f.BudgetUs) * time.Microsecond
		if budget > c.s.cfg.MaxBudget {
			budget = c.s.cfg.MaxBudget
		}
		qctx, qcancel = context.WithTimeout(context.Background(), budget)
	}
	c.inflight.Add(1)
	c.gathers.Add(1)
	go func(id uint64, label string, texts []string) {
		defer c.gathers.Done()
		defer c.inflight.Add(-1)
		defer qcancel()
		ack := WireLearnAck{Status: StatusOK}
		for _, text := range texts {
			if err := lb.Learn(qctx, label, text); err != nil {
				ack.Status = StatusOf(err)
				if ack.Status == StatusInternal {
					ack.Msg = err.Error()
				}
				break
			}
			ack.Accepted++
		}
		c.s.learnAccepted.Add(uint64(ack.Accepted))
		c.respondLearn(id, ack)
	}(f.ID, f.Label, f.Queries)
}

// respondLearn encodes and enqueues one learn ack.
func (c *srvConn) respondLearn(id uint64, ack WireLearnAck) {
	c.s.answered.Add(1)
	c.enqueue(AppendLearnAckFrame(nil, id, ack))
}

// respondPartial encodes and enqueues one partial answer.
func (c *srvConn) respondPartial(id uint64, p WirePartial) {
	raw, err := AppendPartialFrame(nil, id, p)
	if err != nil {
		return // unreachable: partialOf bounds the row count
	}
	c.s.answered.Add(1)
	c.enqueue(raw)
}

// respondAll answers every query of a frame with one status, bypassing the
// backend.
func (c *srvConn) respondAll(f Frame, status byte, msg string) {
	answers := make([]WireAnswer, len(f.Queries))
	for i := range answers {
		answers[i] = WireAnswer{Status: status, Msg: msg}
	}
	raw, err := AppendAnswerFrame(nil, f.ID, answers)
	if err != nil {
		return
	}
	c.s.answered.Add(uint64(len(answers)))
	c.enqueue(raw)
}

// writeLoop serializes answer frames onto the socket, coalescing whatever
// is queued into one write so a loaded connection costs one syscall per
// flush, not per frame.
func (c *srvConn) writeLoop() {
	var buf []byte
	for raw := range c.out {
		buf = append(buf[:0], raw...)
		open := true
		for open && len(buf) < 256<<10 {
			select {
			case more, ok := <-c.out:
				if !ok {
					open = false
					break
				}
				buf = append(buf, more...)
			default:
				open = false
			}
		}
		c.nc.SetWriteDeadline(time.Now().Add(c.s.cfg.WriteTimeout))
		if _, err := c.nc.Write(buf); err != nil {
			c.cancel() // peer gone: gathers drop their frames instead of blocking
			for range c.out {
			} // discard until run() closes the channel
			return
		}
	}
}

// ---- HTTP/JSON ----

// classifyRequest is the POST /classify body: one text or a batch, with an
// optional deadline budget (microseconds).
type classifyRequest struct {
	Text     string   `json:"text,omitempty"`
	Texts    []string `json:"texts,omitempty"`
	BudgetUs uint32   `json:"budget_us,omitempty"`
}

// classifyAnswer is one answer in the POST /classify response.
type classifyAnswer struct {
	Label    string `json:"label,omitempty"`
	Index    int    `json:"index"`
	Distance int    `json:"distance"`
	NGrams   int    `json:"ngrams"`
	Gen      uint64 `json:"gen"`
	Err      string `json:"err,omitempty"`
}

// classifyResponse is the POST /classify response body.
type classifyResponse struct {
	Answers []classifyAnswer `json:"answers"`
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	s.httpReqs.Add(1)
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Admission first: past the in-flight cap the request is refused
	// immediately, before any body is read. net/http queues overload in
	// goroutines and socket buffers where no admission policy can see it;
	// this cap turns that latency collapse into an explicit 503 shed.
	if s.httpInflight.Add(1) > int64(s.cfg.MaxHTTPInflight) {
		s.httpInflight.Add(-1)
		s.httpShed.Add(1)
		http.Error(w, "overloaded: http in-flight cap", http.StatusServiceUnavailable)
		return
	}
	defer s.httpInflight.Add(-1)
	var req classifyRequest
	body := http.MaxBytesReader(w, r.Body, MaxFrame)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	texts := req.Texts
	if req.Text != "" {
		texts = append([]string{req.Text}, texts...)
	}
	if len(texts) == 0 || len(texts) > MaxBatchPerFrame {
		http.Error(w, fmt.Sprintf("need 1..%d texts", MaxBatchPerFrame), http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	if req.BudgetUs > 0 {
		budget := time.Duration(req.BudgetUs) * time.Microsecond
		if budget > s.cfg.MaxBudget {
			budget = s.cfg.MaxBudget
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	resp := classifyResponse{Answers: make([]classifyAnswer, len(texts))}
	chans := make([]<-chan serve.Response, len(texts))
	for i, text := range texts {
		ch, err := s.backend.Go(ctx, text)
		if err != nil {
			resp.Answers[i] = classifyAnswer{Err: err.Error(), Index: -1}
			continue
		}
		s.queries.Add(1)
		chans[i] = ch
	}
	for i, ch := range chans {
		if ch == nil {
			continue
		}
		a := <-ch
		if a.Err != nil {
			resp.Answers[i] = classifyAnswer{Err: a.Err.Error(), Index: -1, Gen: a.Gen}
			continue
		}
		resp.Answers[i] = classifyAnswer{
			Label:    a.Label,
			Index:    a.Result.Index,
			Distance: a.Result.Distance,
			NGrams:   a.NGrams,
			Gen:      a.Gen,
		}
	}
	s.answered.Add(uint64(len(texts)))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// learnRequest is the POST /learn body: one class label and one text or a
// batch, with an optional backpressure budget (microseconds).
type learnRequest struct {
	Label    string   `json:"label"`
	Text     string   `json:"text,omitempty"`
	Texts    []string `json:"texts,omitempty"`
	BudgetUs uint32   `json:"budget_us,omitempty"`
}

// learnResponse is the POST /learn response body.
type learnResponse struct {
	Accepted int    `json:"accepted"`
	Err      string `json:"err,omitempty"`
}

func (s *Server) handleLearnHTTP(w http.ResponseWriter, r *http.Request) {
	s.httpReqs.Add(1)
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	lb, ok := s.backend.(LearnBackend)
	if !ok {
		http.Error(w, "backend does not learn", http.StatusNotImplemented)
		return
	}
	// Same explicit shed as /classify: learn traffic must not collapse the
	// listener either.
	if s.httpInflight.Add(1) > int64(s.cfg.MaxHTTPInflight) {
		s.httpInflight.Add(-1)
		s.httpShed.Add(1)
		http.Error(w, "overloaded: http in-flight cap", http.StatusServiceUnavailable)
		return
	}
	defer s.httpInflight.Add(-1)
	var req learnRequest
	body := http.MaxBytesReader(w, r.Body, MaxFrame)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	texts := req.Texts
	if req.Text != "" {
		texts = append([]string{req.Text}, texts...)
	}
	if len(texts) == 0 || len(texts) > MaxBatchPerFrame {
		http.Error(w, fmt.Sprintf("need 1..%d texts", MaxBatchPerFrame), http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	if req.BudgetUs > 0 {
		budget := time.Duration(req.BudgetUs) * time.Microsecond
		if budget > s.cfg.MaxBudget {
			budget = s.cfg.MaxBudget
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	s.learnFrames.Add(1)
	resp := learnResponse{}
	for _, text := range texts {
		if err := lb.Learn(ctx, req.Label, text); err != nil {
			resp.Err = err.Error()
			break
		}
		resp.Accepted++
	}
	s.learnAccepted.Add(uint64(resp.Accepted))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// statszPayload is the GET /statsz response: socket counters plus the
// backend's own counters (engine stats, or fleet + per-replica stats).
type statszPayload struct {
	Server  Stats `json:"server"`
	Backend any   `json:"backend"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.httpReqs.Add(1)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(statszPayload{Server: s.Stats(), Backend: s.backend.Stats()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.httpReqs.Add(1)
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
