package netserve

import (
	"bufio"
	"context"
	"encoding/binary"
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
	fb      FuncBackend // backend's completion-func path; nil for a Go-only backend

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
	s.fb, _ = b.(FuncBackend)
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
	// frames once drainCh is closed (shutdown did that). The announcement
	// only appends to each connection's pending buffer, so a peer that
	// stopped reading cannot hold this loop.
	s.mu.Lock()
	for c := range s.conns {
		c.send(func(b []byte) []byte { return AppendControlFrame(b, TypeDrain, 0) })
	}
	s.mu.Unlock()

	// Drain the backend under the caller's deadline: everything accepted is
	// answered (classified or failed fast with the drained error), which
	// completes every in-flight frame and lets the writers flush.
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

// goFunc submits one text to the backend with its completion func: straight
// to a FuncBackend, else through Go and one goroutine that waits on the
// channel and calls done.
func (s *Server) goFunc(ctx context.Context, text string, done func(serve.Response)) error {
	if s.fb != nil {
		return s.fb.GoFunc(ctx, text, done)
	}
	ch, err := s.backend.Go(ctx, text)
	if err != nil {
		return err
	}
	go func() { done(<-ch) }()
	return nil
}

// maxPending is how far the writer may fall behind before the reader stops
// taking frames: a peer that stops reading stops being read, so what a
// connection holds for it is bounded by this plus its in-flight frames.
const maxPending = 64 << 10

// srvConn is one binary-protocol connection: a frame reader and a writer
// goroutine. Query and partial frames have no goroutine of their own.
// Each counts down its unanswered texts, and the goroutine that delivers a
// frame's last answer — an engine worker, a fleet asker, or the goroutine
// waiting on a Go-only backend's channel — encodes the answer frame into
// the connection's pending buffer itself. That completion func runs on the
// backend's goroutine and never blocks: it appends under a mutex and wakes
// the writer through a one-slot channel; the writer takes the whole buffer
// and writes it with one syscall. Learn frames keep a goroutine each,
// because ingest may block on the learner's backpressure.
type srvConn struct {
	s  *Server
	nc net.Conn
	br *bufio.Reader // one read syscall fetches every frame that has arrived

	inflight atomic.Int64   // query, partial and learn frames not yet answered
	frames   sync.WaitGroup // the same frames; run waits for them

	wmu     sync.Mutex
	pending []byte        // encoded frames the writer has not taken yet
	closed  bool          // flushed, or the peer is gone: frames are dropped
	room    sync.Cond     // on wmu: the writer took the pending bytes
	wake    chan struct{} // one slot: the writer has something to do
}

func newSrvConn(s *Server, nc net.Conn) *srvConn {
	c := &srvConn{s: s, nc: nc, br: bufio.NewReaderSize(nc, readBufSize), wake: make(chan struct{}, 1)}
	c.room.L = &c.wmu
	return c
}

// send appends one encoded frame to the pending buffer and wakes the
// writer. It never blocks on the socket, so any goroutine may call it; a
// frame for a connection that has flushed or lost its peer is dropped (the
// peer cannot receive it anyway).
func (c *srvConn) send(appendFrame func([]byte) []byte) {
	c.wmu.Lock()
	if !c.closed {
		c.pending = appendFrame(c.pending)
	}
	c.wmu.Unlock()
	c.signal()
}

func (c *srvConn) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// closeOut tells the writer to flush what is pending and exit.
func (c *srvConn) closeOut() {
	c.wmu.Lock()
	c.closed = true
	c.wmu.Unlock()
	c.signal()
}

// waitRoom holds the reader while more than maxPending bytes wait for the
// writer.
func (c *srvConn) waitRoom() {
	c.wmu.Lock()
	for len(c.pending) > maxPending && !c.closed {
		c.room.Wait()
	}
	c.wmu.Unlock()
}

// begin and end bracket one frame the backend may still answer.
func (c *srvConn) begin() {
	c.inflight.Add(1)
	c.frames.Add(1)
}

func (c *srvConn) end() {
	c.inflight.Add(-1)
	c.frames.Done()
}

// run owns the connection's lifecycle: read frames until EOF/drain/error,
// wait for every in-flight frame to answer, flush the writer, close.
func (c *srvConn) run() {
	defer c.s.wg.Done()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		c.writeLoop()
	}()

	c.readLoop()

	// All accepted frames answer before the writer is released: the drain
	// guarantee "every accepted request answered" is enforced here.
	c.frames.Wait()
	c.closeOut()
	<-wrote
	c.nc.Close()

	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
	c.s.active.Add(-1)
}

// frameBuffered reports whether br already holds one whole frame, so
// reading it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < lenSize {
		return false
	}
	p, _ := br.Peek(lenSize)
	return uint64(n-lenSize) >= uint64(binary.LittleEndian.Uint32(p))
}

// readLoop decodes query frames until the peer hangs up, the server
// drains, the idle deadline passes, or the stream turns malformed.
func (c *srvConn) readLoop() {
	var buf []byte
	for {
		c.waitRoom()
		// Only a read that may block refreshes the idle deadline, and it
		// does so before the drain check: shutdown closes drainCh and then
		// stamps a past deadline, so either interleaving stops this loop. A
		// frame already whole in the buffer is read without a syscall, and
		// the drain check still runs before it.
		if !frameBuffered(c.br) {
			c.nc.SetReadDeadline(time.Now().Add(c.s.cfg.IdleTimeout))
		}
		select {
		case <-c.s.drainCh:
			return
		default:
		}
		f, nbuf, err := ReadFrame(c.br, buf)
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
			c.send(func(b []byte) []byte { return AppendControlFrame(b, TypePong, f.ID) })
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

// budget derives a frame's request context from its deadline budget,
// clamped to MaxBudget; a zero budget sets no deadline.
func (c *srvConn) budget(us uint32) (context.Context, context.CancelFunc) {
	if us == 0 {
		return context.Background(), func() {}
	}
	budget := time.Duration(us) * time.Microsecond
	if budget > c.s.cfg.MaxBudget {
		budget = c.s.cfg.MaxBudget
	}
	return context.WithTimeout(context.Background(), budget)
}

// overCap reports (and counts) a frame over the per-connection in-flight
// cap, which is refused as overloaded without touching the backend.
func (c *srvConn) overCap() bool {
	if c.inflight.Load() < int64(c.s.cfg.MaxInflight) {
		return false
	}
	c.s.inflightShed.Add(1)
	return true
}

// queryFrame is one query frame in flight. Its answers fill in as the
// backend delivers them; the delivery that brings left to zero encodes the
// answer frame into the connection's pending buffer.
type queryFrame struct {
	c       *srvConn
	id      uint64
	cancel  context.CancelFunc
	answers []WireAnswer
	left    atomic.Int32
	one     [1]WireAnswer // answers' backing for a one-text frame
}

// deliver records text i's response; the last one answers the frame.
func (q *queryFrame) deliver(i int, r serve.Response) {
	q.answers[i] = answerOf(r)
	if q.left.Add(-1) != 0 {
		return
	}
	q.cancel()
	c := q.c
	c.s.answered.Add(uint64(len(q.answers)))
	c.send(func(b []byte) []byte {
		b, _ = AppendAnswerFrame(b, q.id, q.answers) // counts mirror the decoded queries
		return b
	})
	c.end()
}

// handleQuery submits one query frame's batch to the backend; each text's
// completion func is the frame's countdown. A text refused at submit is
// answered with its typed refusal at once.
func (c *srvConn) handleQuery(f Frame) {
	if c.overCap() {
		c.respondAll(f, StatusOverloaded, "connection in-flight cap")
		return
	}
	ctx, cancel := c.budget(f.BudgetUs)
	q := &queryFrame{c: c, id: f.ID, cancel: cancel}
	q.answers = q.one[:]
	if len(f.Queries) > 1 {
		q.answers = make([]WireAnswer, len(f.Queries))
	}
	q.left.Store(int32(len(f.Queries)))
	c.begin()
	for i, text := range f.Queries {
		if err := c.s.goFunc(ctx, text, func(r serve.Response) { q.deliver(i, r) }); err != nil {
			q.deliver(i, serve.Response{Err: err})
			continue
		}
		c.s.queries.Add(1)
	}
}

// handlePartial answers one partial-query frame: the replica-mode path,
// submitting the encoded query words to the backend and returning its
// gen-stamped per-row distance partial. It shares the query path's
// in-flight cap, budget clamping, and always-answered drain guarantee.
func (c *srvConn) handlePartial(f Frame) {
	pb, ok := c.s.backend.(PartialBackend)
	if !ok {
		c.respondPartial(f.ID, WirePartial{Status: StatusInternal, Msg: "backend does not serve partials"})
		return
	}
	if c.overCap() {
		c.respondPartial(f.ID, WirePartial{Status: StatusOverloaded, Msg: "connection in-flight cap"})
		return
	}
	ctx, cancel := c.budget(f.BudgetUs)
	id := f.ID
	answer := func(r serve.Response) {
		cancel()
		c.respondPartial(id, partialOf(r))
		c.end()
	}
	c.begin()
	if err := pb.GoPartial(ctx, *f.PartialQuery, answer); err != nil {
		answer(serve.Response{Err: err})
		return
	}
	c.s.queries.Add(1)
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
	if c.overCap() {
		c.respondLearn(f.ID, WireLearnAck{Status: StatusOverloaded, Msg: "connection in-flight cap"})
		return
	}
	ctx, cancel := c.budget(f.BudgetUs)
	c.begin()
	go func(id uint64, label string, texts []string) {
		defer c.end()
		defer cancel()
		ack := WireLearnAck{Status: StatusOK}
		for _, text := range texts {
			if err := lb.Learn(ctx, label, text); err != nil {
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

// respondLearn encodes one learn ack into the pending buffer.
func (c *srvConn) respondLearn(id uint64, ack WireLearnAck) {
	c.s.answered.Add(1)
	c.send(func(b []byte) []byte { return AppendLearnAckFrame(b, id, ack) })
}

// respondPartial encodes one partial answer into the pending buffer.
func (c *srvConn) respondPartial(id uint64, p WirePartial) {
	c.s.answered.Add(1)
	c.send(func(b []byte) []byte {
		b, _ = AppendPartialFrame(b, id, p) // partialOf bounds the row count
		return b
	})
}

// respondAll answers every query of a frame with one status, bypassing the
// backend.
func (c *srvConn) respondAll(f Frame, status byte, msg string) {
	answers := make([]WireAnswer, len(f.Queries))
	for i := range answers {
		answers[i] = WireAnswer{Status: status, Msg: msg}
	}
	c.s.answered.Add(uint64(len(answers)))
	c.send(func(b []byte) []byte {
		b, _ = AppendAnswerFrame(b, f.ID, answers)
		return b
	})
}

// writeLoop takes the whole pending buffer at each wake-up and writes it
// with one syscall, handing its previous buffer back for the next frames.
// It returns once closeOut has been called and the last bytes are written,
// or when a write fails: the peer is gone, and later frames are dropped.
func (c *srvConn) writeLoop() {
	var buf []byte
	for {
		<-c.wake
		c.wmu.Lock()
		buf, c.pending = c.pending, buf[:0]
		last := c.closed
		c.room.Broadcast()
		c.wmu.Unlock()
		if len(buf) > 0 {
			c.nc.SetWriteDeadline(time.Now().Add(c.s.cfg.WriteTimeout))
			if _, err := c.nc.Write(buf); err != nil {
				c.wmu.Lock()
				c.closed, c.pending = true, nil
				c.room.Broadcast()
				c.wmu.Unlock()
				return
			}
		}
		if last {
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
