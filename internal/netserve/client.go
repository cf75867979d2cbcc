package netserve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClientClosed is returned by client calls after Close, or after the
// connection died; pending batches are failed with the underlying cause.
var ErrClientClosed = errors.New("netserve: client closed")

// DefaultWriteTimeout bounds one frame write when the caller does not
// choose a tighter bound. A blackholed peer whose receive window fills
// stalls Write forever without it; the deadline turns that stall into a
// connection failure the redial machinery can act on.
const DefaultWriteTimeout = 5 * time.Second

// Batch is the client-side result of one frame: for query frames the
// answers in query order, for partial-query frames the gen-stamped
// partial, for learn frames the ingest ack, or the connection-level error
// that killed the frame.
type Batch struct {
	Answers  []WireAnswer
	Partial  *WirePartial
	LearnAck *WireLearnAck
	Err      error
}

// Client is one binary-protocol connection. It is safe for concurrent
// use: many frames may be in flight at once, and responses are matched to
// callers by frame id regardless of arrival order.
type Client struct {
	nc           net.Conn
	writeTimeout time.Duration

	wmu  sync.Mutex // serializes frame writes
	wbuf []byte

	mu      sync.Mutex // pending map + close state
	pending map[uint64]chan Batch
	dead    error // non-nil once the connection is unusable
	failed  bool  // fail already ran: nc closed, done closed, waiters drained

	nextID   atomic.Uint64
	draining atomic.Bool
	done     chan struct{} // closed when the connection dies
	rbuf     []byte
	readerWG sync.WaitGroup
}

// Dial connects to a binary-protocol server. timeout bounds the dial and
// becomes the per-frame write deadline (0 means DefaultWriteTimeout).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := NewClient(nc, timeout)
	return c, nil
}

// NewClient wraps an established connection — dialed elsewhere, or wrapped
// by a fault injector — in the frame-matching client machinery.
// writeTimeout bounds each frame write (0 means DefaultWriteTimeout).
func NewClient(nc net.Conn, writeTimeout time.Duration) *Client {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency benchmark traffic: don't Nagle small frames
	}
	if writeTimeout <= 0 {
		writeTimeout = DefaultWriteTimeout
	}
	c := &Client{
		nc:           nc,
		writeTimeout: writeTimeout,
		pending:      make(map[uint64]chan Batch),
		done:         make(chan struct{}),
	}
	c.readerWG.Add(1)
	go c.readLoop()
	return c
}

// Draining reports whether the server announced a drain; new submissions
// should go elsewhere, in-flight ones will still be answered.
func (c *Client) Draining() bool { return c.draining.Load() }

// Done is closed when the connection dies (peer close, frame error, Close);
// Err then reports why.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err reports why the connection died, or nil while it is still usable.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// Go submits one frame of queries and returns the channel its Batch
// arrives on (buffered; the reader never blocks on it). budget caps the
// server-side time per query; 0 means no deadline.
func (c *Client) Go(texts []string, budget time.Duration) (<-chan Batch, error) {
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	if err := c.writeFrame(func(dst []byte) ([]byte, error) {
		return AppendQueryFrame(dst, id, budgetUs(budget), texts)
	}); err != nil {
		c.unregister(id)
		return nil, err
	}
	return ch, nil
}

// Ask is the synchronous form of Go.
func (c *Client) Ask(texts []string, budget time.Duration) ([]WireAnswer, error) {
	ch, err := c.Go(texts, budget)
	if err != nil {
		return nil, err
	}
	b := <-ch
	return b.Answers, b.Err
}

// GoPartial submits one partial-query frame — the remote replica fleet's
// scatter leg, carrying encoded query words — and returns the channel its
// Batch (carrying the Partial) arrives on.
func (c *Client) GoPartial(q WireQuery, budget time.Duration) (<-chan Batch, error) {
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	if err := c.writeFrame(func(dst []byte) ([]byte, error) {
		return AppendPartialQueryFrame(dst, id, budgetUs(budget), q)
	}); err != nil {
		c.unregister(id)
		return nil, err
	}
	return ch, nil
}

// GoLearn submits one learn frame — a class label and a batch of example
// texts for the server's online learner — and returns the channel its Batch
// (carrying the LearnAck) arrives on. budget bounds the server-side
// backpressure wait; 0 means fail-fast admission only.
func (c *Client) GoLearn(label string, texts []string, budget time.Duration) (<-chan Batch, error) {
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	if err := c.writeFrame(func(dst []byte) ([]byte, error) {
		return AppendLearnFrame(dst, id, budgetUs(budget), label, texts)
	}); err != nil {
		c.unregister(id)
		return nil, err
	}
	return ch, nil
}

// Learn is the synchronous form of GoLearn: it reports how many examples
// the learner admitted and the typed error that stopped the batch, if any.
func (c *Client) Learn(label string, texts []string, budget time.Duration) (accepted int, err error) {
	ch, err := c.GoLearn(label, texts, budget)
	if err != nil {
		return 0, err
	}
	b := <-ch
	if b.Err != nil {
		return 0, b.Err
	}
	if b.LearnAck == nil {
		return 0, fmt.Errorf("%w: answer frame for a learn request", ErrBadFrame)
	}
	return int(b.LearnAck.Accepted), StatusError(b.LearnAck.Status, b.LearnAck.Msg)
}

// Ping round-trips a control frame, bounding the wait by timeout.
func (c *Client) Ping(timeout time.Duration) error {
	id, ch, err := c.register()
	if err != nil {
		return err
	}
	if err := c.writeFrame(func(dst []byte) ([]byte, error) {
		return AppendControlFrame(dst, TypePing, id), nil
	}); err != nil {
		return err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case b := <-ch:
		return b.Err
	case <-t.C:
		c.unregister(id)
		return fmt.Errorf("netserve: ping: %w", ErrTimeout)
	}
}

// ErrTimeout marks a client-side wait that expired.
var ErrTimeout = errors.New("timed out")

// Close tears the connection down; every in-flight batch fails with
// ErrClientClosed.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	c.readerWG.Wait()
	return nil
}

// register allocates a frame id and parks its result channel in the
// pending map — before the write, because the answer may race back.
func (c *Client) register() (uint64, chan Batch, error) {
	id := c.nextID.Add(1)
	ch := make(chan Batch, 1)
	c.mu.Lock()
	if c.dead != nil {
		err := c.dead
		c.mu.Unlock()
		return 0, nil, err
	}
	c.pending[id] = ch
	c.mu.Unlock()
	return id, ch, nil
}

func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// writeFrame encodes one frame into the client's reusable buffer and
// writes it under the write lock with a write deadline, so a blackholed
// socket fails the connection instead of wedging the caller. An encode
// error only fails the call; a write error kills the whole connection,
// because a partial frame on the stream would desynchronize every later
// frame.
func (c *Client) writeFrame(encode func(dst []byte) ([]byte, error)) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	raw, err := encode(c.wbuf[:0])
	if err != nil {
		return err
	}
	c.wbuf = raw
	c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	if _, err := c.nc.Write(raw); err != nil {
		werr := fmt.Errorf("netserve: write: %w", err)
		c.fail(werr)
		return werr
	}
	return nil
}

func budgetUs(budget time.Duration) uint32 {
	us := uint64(budget / time.Microsecond)
	if us > 1<<32-1 {
		us = 1<<32 - 1
	}
	return uint32(us)
}

// readLoop matches incoming frames to pending callers by id until the
// connection dies; then it fails everything still waiting.
func (c *Client) readLoop() {
	defer c.readerWG.Done()
	br := bufio.NewReaderSize(c.nc, readBufSize)
	for {
		f, nbuf, err := ReadFrame(br, c.rbuf)
		c.rbuf = nbuf
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				err = ErrClientClosed
			}
			c.fail(err)
			return
		}
		switch f.Type {
		case TypeAnswer, TypePong, TypePartial, TypeLearnAck:
			c.mu.Lock()
			ch := c.pending[f.ID]
			delete(c.pending, f.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- Batch{Answers: f.Answers, Partial: f.Partial, LearnAck: f.LearnAck}
			}
		case TypeDrain:
			c.draining.Store(true)
		default:
			// Server-bound frame types on the client stream are ignored.
		}
	}
}

// fail marks the client dead exactly once: it closes the connection (which
// unblocks the read loop and any deadline-stalled writer), closes Done,
// and delivers err to every pending batch. Later calls are no-ops, so a
// write failure racing the read loop's EOF cannot double-deliver.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.failed {
		c.mu.Unlock()
		return
	}
	c.failed = true
	c.dead = err
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	c.nc.Close()
	close(c.done)
	for _, ch := range pending {
		ch <- Batch{Err: err}
	}
}

// AnswerError converts one wire answer's status back into the typed error
// an in-process serve.Engine caller would have seen (nil for StatusOK), so
// socket clients errors.Is-match exactly like local ones.
func AnswerError(a WireAnswer) error {
	return StatusError(a.Status, a.Msg)
}
