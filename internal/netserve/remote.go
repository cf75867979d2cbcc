package netserve

// remote.go: the fleet's remote replica transport — fleet.ReplicaTransport
// over the binary partial protocol, with a self-healing connection.
//
// One RemoteTransport owns one connection to a hamserve -replica process
// and runs a three-state reconnect machine in a manager goroutine:
//
//	Dialing ──success──▶ Connected ──conn death──▶ Backoff ──▶ Dialing …
//	   ▲                    │
//	   └────failure─────────┘ (via Backoff)
//
// While Connected, a ping loop probes the replica every PingInterval; a
// probe that misses PingTimeout kills the connection, which — like any
// other connection death — fails every pending Ask exactly once (the
// client's idempotent fail), flips Connected off so the coordinator routes
// to mirrors immediately, and sends the manager through a jittered
// exponential backoff to redial. The jitter stream is a per-link PCG
// keyed by (Seed, Link), the internal/fault determinism idiom: the same
// seed replays the same redial schedule.
//
// Asks never block on a dead or mid-redial connection: disconnected
// transports fail fast with fleet.ErrTransport, write deadlines bound the
// connected path, and the coordinator's retry rotation turns each failure
// into a mirror dispatch (the in-flight failover the fleet counts).

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hdam/internal/fleet"
)

// redialSalt decorrelates the redial jitter stream from every other
// consumer of a chaos seed (the internal/fault salt idiom).
const redialSalt uint64 = 0x7264_6c31 // "rdl1"

// RemoteConfig tunes one self-healing replica connection.
type RemoteConfig struct {
	// Addr is the replica's binary-protocol address.
	Addr string
	// DialTimeout bounds one dial attempt (default 2s).
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write (default DefaultWriteTimeout).
	WriteTimeout time.Duration
	// PingInterval spaces liveness probes on an idle connection (default
	// 500ms; negative disables probing).
	PingInterval time.Duration
	// PingTimeout is how long a probe may take before the connection is
	// declared dead (default 1s).
	PingTimeout time.Duration
	// BackoffMin is the base redial wait, doubling per consecutive failed
	// dial up to BackoffMax, each jittered to 50–150% (defaults 10ms, 2s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Seed and Link key the jitter stream: same (Seed, Link) → same redial
	// schedule, the determinism contract chaos tests rely on.
	Seed uint64
	Link uint64
	// Dial overrides the dialer — the seam network fault injectors wrap
	// (default net.DialTimeout over tcp).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
}

func (c RemoteConfig) withDefaults() RemoteConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.PingInterval == 0 {
		c.PingInterval = 500 * time.Millisecond
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = time.Second
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.Dial == nil {
		c.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return c
}

// RemoteTransport is fleet.ReplicaTransport over one self-healing binary
// connection to a replica process. Construct with NewRemoteTransport; the
// manager dials in the background, so construction never blocks on an
// unreachable replica.
type RemoteTransport struct {
	cfg RemoteConfig

	cl        atomic.Pointer[Client] // nil while Dialing/Backoff
	connected atomic.Bool
	reconns   atomic.Uint64 // connections re-established after the first
	dials     atomic.Uint64 // dial attempts (success or failure)

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// NewRemoteTransport starts the reconnect manager for one replica address.
func NewRemoteTransport(cfg RemoteConfig) *RemoteTransport {
	t := &RemoteTransport{cfg: cfg.withDefaults(), stop: make(chan struct{})}
	t.wg.Add(1)
	go t.manage()
	return t
}

// Addr returns the replica address the transport heals toward.
func (t *RemoteTransport) Addr() string { return t.cfg.Addr }

// Connected implements fleet.TransportHealth.
func (t *RemoteTransport) Connected() bool { return t.connected.Load() }

// Reconnects implements fleet.TransportHealth: connections re-established
// after the first (one per healed fault).
func (t *RemoteTransport) Reconnects() uint64 { return t.reconns.Load() }

// Dials counts dial attempts, successful or not.
func (t *RemoteTransport) Dials() uint64 { return t.dials.Load() }

// Ask implements fleet.ReplicaTransport: one partial query over the live
// connection, shipping only the query words [q.Lo, q.Hi) the replica's
// partition scores. Disconnected transports fail fast; connection-level
// failures wrap fleet.ErrTransport; the replica's own typed errors
// (overload, drain, a mismatched word range) pass through unwrapped,
// exactly as an in-process engine would surface them.
func (t *RemoteTransport) Ask(ctx context.Context, q fleet.Query) (fleet.Partial, error) {
	cl := t.cl.Load()
	if cl == nil || !t.connected.Load() {
		return fleet.Partial{}, fmt.Errorf("%w: %s not connected", fleet.ErrTransport, t.cfg.Addr)
	}
	var budget time.Duration
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
		if budget <= 0 {
			return fleet.Partial{}, context.DeadlineExceeded
		}
	}
	wq := WireQuery{
		NGrams: uint32(q.NGrams),
		Dim:    uint32(q.Vec.Dim()),
		Offset: uint32(q.Lo),
		Words:  q.Vec.Words()[q.Lo:q.Hi],
	}
	ch, err := cl.GoPartial(wq, budget)
	if err != nil {
		return fleet.Partial{}, fmt.Errorf("%w: %s: %v", fleet.ErrTransport, t.cfg.Addr, err)
	}
	select {
	case b := <-ch:
		if b.Err != nil {
			// The connection died with the ask in flight. The pending waiter
			// was failed exactly once (client.fail), the manager is already
			// redialing, and the coordinator re-dispatches to a mirror.
			return fleet.Partial{}, fmt.Errorf("%w: %s: %v", fleet.ErrTransport, t.cfg.Addr, b.Err)
		}
		p := b.Partial
		if p == nil {
			return fleet.Partial{}, fmt.Errorf("%w: %s: answer frame for a partial query", fleet.ErrTransport, t.cfg.Addr)
		}
		if err := StatusError(p.Status, p.Msg); err != nil {
			return fleet.Partial{}, err
		}
		ds := make([]int, len(p.Distances))
		for i, d := range p.Distances {
			ds[i] = int(d)
		}
		return fleet.Partial{Distances: ds, Gen: p.Gen}, nil
	case <-ctx.Done():
		return fleet.Partial{}, ctx.Err()
	}
}

// Close implements fleet.ReplicaTransport: stops the manager and tears the
// connection down, failing anything still pending with ErrClientClosed.
func (t *RemoteTransport) Close() error {
	t.once.Do(func() { close(t.stop) })
	if cl := t.cl.Load(); cl != nil {
		cl.Close()
	}
	t.wg.Wait()
	return nil
}

// manage runs the reconnect state machine until Close.
func (t *RemoteTransport) manage() {
	defer t.wg.Done()
	rng := rand.New(rand.NewPCG(t.cfg.Seed^redialSalt, t.cfg.Link))
	attempt := 0
	everConnected := false
	for {
		select {
		case <-t.stop:
			return
		default:
		}
		// Dialing.
		t.dials.Add(1)
		nc, err := t.cfg.Dial(t.cfg.Addr, t.cfg.DialTimeout)
		if err != nil {
			// Backoff: jittered exponential, capped.
			if !t.sleep(t.backoff(rng, attempt)) {
				return
			}
			attempt++
			continue
		}
		attempt = 0
		cl := NewClient(nc, t.cfg.WriteTimeout)
		t.cl.Store(cl)
		t.connected.Store(true)
		if everConnected {
			t.reconns.Add(1)
		}
		everConnected = true

		// Connected: probe until the connection dies or Close.
		t.probe(cl)
		t.connected.Store(false)

		select {
		case <-t.stop:
			return
		default:
		}
		// Redial after a short jittered wait: a replica mid-restart refuses
		// dials anyway, and the wait keeps a flapping link from spinning.
		if !t.sleep(t.backoff(rng, 0)) {
			return
		}
	}
}

// probe pings the live connection every PingInterval and kills it when a
// probe misses PingTimeout. Returns when the connection is dead or the
// transport is closing.
func (t *RemoteTransport) probe(cl *Client) {
	if t.cfg.PingInterval < 0 {
		select {
		case <-cl.Done():
		case <-t.stop:
			cl.Close()
		}
		return
	}
	tick := time.NewTicker(t.cfg.PingInterval)
	defer tick.Stop()
	for {
		select {
		case <-cl.Done():
			return
		case <-t.stop:
			cl.Close()
			return
		case <-tick.C:
			if err := cl.Ping(t.cfg.PingTimeout); err != nil {
				// A timed-out probe leaves the connection formally open but
				// unresponsive (blackholed); close it so pending asks fail
				// over and the redial loop takes charge.
				cl.Close()
				return
			}
		}
	}
}

// backoff is the jittered exponential redial wait for one failed attempt.
func (t *RemoteTransport) backoff(rng *rand.Rand, attempt int) time.Duration {
	d := t.cfg.BackoffMin
	for i := 0; i < attempt && d < t.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > t.cfg.BackoffMax {
		d = t.cfg.BackoffMax
	}
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}

// sleep waits d or until Close; false means the transport is closing.
func (t *RemoteTransport) sleep(d time.Duration) bool {
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-t.stop:
		return false
	}
}

// Compile-time capability checks.
var (
	_ fleet.ReplicaTransport = (*RemoteTransport)(nil)
	_ fleet.TransportHealth  = (*RemoteTransport)(nil)
)
