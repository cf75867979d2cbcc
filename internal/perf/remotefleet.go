package perf

// remotefleet.go: the chaos soak for the remote replica fleet — the
// scatter-gather coordinator speaking the binary partial protocol to
// replica servers over real TCP, under process kills and network
// blackholes. Replicas are in-process netserve servers on loopback by
// default, or real hamserve -replica subprocesses when RemoteFleetPoint
// carries a binary path — the faults are the same either way: one replica
// dies at a third of the run (SIGKILL or listener teardown), another's
// link goes black, both heal at two thirds.
//
// What the soak asserts (Violations): every request answered, healthy
// answers bit-identical to the serial exact scan, degraded answers
// carrying the widened-margin certificate, circuit breakers firing only on
// faulted replicas, reconnect counters covering the injected faults, and
// goroutines AND file descriptors back at baseline after drain.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hdam/internal/core"
	"hdam/internal/fault"
	"hdam/internal/fleet"
	"hdam/internal/netserve"
	"hdam/internal/serve"
	"hdam/internal/store"
)

// RemoteFleetPoint configures one remote-fleet soak: a replica/partition
// shape, a closed-loop client load and a fault schedule over thirds of the
// run (faults strike after the first third, heal after the second).
type RemoteFleetPoint struct {
	Name       string
	Replicas   int
	Partitions int
	Scheme     fleet.Scheme
	Clients    int
	Requests   int
	Deadline   time.Duration // per-dispatch deadline (0 = 100ms)

	// KillReplica is the replica whose server process dies at 1/3 of the
	// run and restarts at 2/3 (-1 = none).
	KillReplica int
	// BlackholeReplica is the replica whose link swallows all bytes for
	// the middle third (-1 = none).
	BlackholeReplica int

	// Binary, when set, is a hamserve binary path: replicas run as real
	// -replica subprocesses serving a shared snapshot, and KillReplica is
	// a real SIGKILL. Empty runs in-process servers over real TCP.
	Binary string
}

// DefaultRemoteFleetPoints is the sweep hambench -remotefleet records:
// the healthy remote fleet first (wire answers must stay bit-identical to
// the single-engine scan), then the acceptance topology — 4 replicas over
// 2 partitions with replica 0 killed and replica 2 blackholed, erasing
// partition 0 for the middle third of the run.
func DefaultRemoteFleetPoints(requests int, binary string) []RemoteFleetPoint {
	return []RemoteFleetPoint{
		{
			Name:     "remotefleet/healthy-r4",
			Replicas: 4, Partitions: 2, Clients: 8, Requests: requests,
			KillReplica: -1, BlackholeReplica: -1, Binary: binary,
		},
		{
			Name:     "remotefleet/kill+blackhole-r4",
			Replicas: 4, Partitions: 2, Clients: 8, Requests: requests,
			KillReplica: 0, BlackholeReplica: 2, Binary: binary,
		},
	}
}

// RemoteFleetResult is one remote-fleet soak measurement.
type RemoteFleetResult struct {
	Name         string  `json:"name"`
	Replicas     int     `json:"replicas"`
	Partitions   int     `json:"partitions"`
	Clients      int     `json:"clients"`
	Requests     int     `json:"requests"`
	Answered     int     `json:"answered"`
	Degraded     int     `json:"degraded"`
	DegradedRate float64 `json:"degraded_rate"`
	Mismatches   int     `json:"mismatches"`  // healthy answers differing from the exact scan
	Uncertified  int     `json:"uncertified"` // degraded answers without a coherent widened-margin certificate
	Erasures     uint64  `json:"erasures"`
	Retried      uint64  `json:"retried"`
	Failovers    uint64  `json:"failovers"`     // asks rescued by a mirror after a transport failure
	RemoteErrors uint64  `json:"remote_errors"` // dispatches failed at the transport layer
	Reconnects   uint64  `json:"reconnects"`    // connections re-established across all links
	Kills        int     `json:"kills"`
	Restarts     int     `json:"restarts"`
	// BadBreakerOpens counts breaker opens on replicas no fault targeted.
	BadBreakerOpens uint64  `json:"bad_breaker_opens"`
	QPS             float64 `json:"qps"`
	P50Us           float64 `json:"p50_us"`
	P95Us           float64 `json:"p95_us"`
	P99Us           float64 `json:"p99_us"`
	Leaked          int     `json:"leaked_goroutines"`
	LeakedFDs       int     `json:"leaked_fds"`
	Subprocess      bool    `json:"subprocess"` // replicas were real hamserve processes
}

// Violations checks the soak's acceptance criteria, one line per breach.
func (r RemoteFleetResult) Violations(p RemoteFleetPoint) []string {
	var v []string
	if r.Answered != r.Requests {
		v = append(v, fmt.Sprintf("answered %d of %d requests", r.Answered, r.Requests))
	}
	if r.Mismatches != 0 {
		v = append(v, fmt.Sprintf("%d healthy answers differ from the exact scan", r.Mismatches))
	}
	if r.Uncertified != 0 {
		v = append(v, fmt.Sprintf("%d degraded answers lack the widened-margin certificate", r.Uncertified))
	}
	faulted := p.KillReplica >= 0 || p.BlackholeReplica >= 0
	if faulted && r.Degraded == 0 {
		v = append(v, "faults injected but no answer degraded (soak too small?)")
	}
	if !faulted && r.Degraded != 0 {
		v = append(v, fmt.Sprintf("%d answers degraded with no fault injected", r.Degraded))
	}
	var wantReconnects uint64
	if p.KillReplica >= 0 {
		wantReconnects++
	}
	if p.BlackholeReplica >= 0 {
		wantReconnects++
	}
	if r.Reconnects < wantReconnects {
		v = append(v, fmt.Sprintf("%d reconnects for %d injected link faults", r.Reconnects, wantReconnects))
	}
	if r.BadBreakerOpens != 0 {
		v = append(v, fmt.Sprintf("%d breaker opens on unfaulted replicas", r.BadBreakerOpens))
	}
	if r.Leaked > 0 {
		v = append(v, fmt.Sprintf("%d goroutines leaked", r.Leaked))
	}
	if r.LeakedFDs > 0 {
		v = append(v, fmt.Sprintf("%d file descriptors leaked", r.LeakedFDs))
	}
	return v
}

// replicaHost is one replica server the soak can kill and restart in
// place: its address survives the restart, so the transport's redial loop
// is what heals the fleet.
type replicaHost interface {
	start() error
	kill() error
	close() error
}

// freeAddr reserves a loopback address replicas can re-bind after a kill.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// inprocHost serves one partition from an in-process netserve server over
// real TCP. kill tears the listener and engine down; start rebuilds both
// on the pinned address.
type inprocHost struct {
	bind string
	mem  *core.Memory
	sc   fleet.Scheme
	p, n int
	ddl  time.Duration
	mu   sync.Mutex
	srv  *netserve.Server
}

func (h *inprocHost) start() error {
	rep, err := fleet.NewReplicaEngine(h.mem, h.sc, h.p, h.n, serve.Config{Workers: 1})
	if err != nil {
		return err
	}
	// The pinned port may linger briefly after a kill; retry the bind.
	var srv *netserve.Server
	for attempt := 0; ; attempt++ {
		srv, err = netserve.New(netserve.ReplicaBackend(rep), netserve.Config{BinaryAddr: h.bind})
		if err == nil {
			break
		}
		if attempt >= 50 {
			rep.Close()
			return fmt.Errorf("perf: rebinding %s: %w", h.bind, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	h.mu.Lock()
	h.srv = srv
	h.mu.Unlock()
	return nil
}

func (h *inprocHost) kill() error {
	h.mu.Lock()
	srv := h.srv
	h.srv = nil
	h.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	return nil
}

func (h *inprocHost) close() error { return h.kill() }

// procHost serves one partition from a real hamserve -replica subprocess
// loading a shared snapshot. kill is a SIGKILL; start re-execs on the
// pinned address.
type procHost struct {
	binary string
	args   []string
	sub    *fault.Subprocess
}

func (h *procHost) start() error {
	if h.sub == nil {
		sub, err := fault.StartSubprocess(h.binary, h.args...)
		if err != nil {
			return err
		}
		h.sub = sub
	} else if err := h.sub.Start(); err != nil {
		return err
	}
	// Snapshot load is fast, but give slow CI machines room.
	_, err := h.sub.WaitLine("listening binary=", 30*time.Second)
	return err
}

func (h *procHost) kill() error  { return h.sub.Kill() }
func (h *procHost) close() error { return h.kill() }

// openFDs counts this process's open file descriptors (-1 where
// /proc/self/fd is unavailable, disabling the FD-leak check).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// RunRemoteFleet runs the remote-fleet chaos soak at every point.
func RunRemoteFleet(points []RemoteFleetPoint) ([]RemoteFleetResult, error) {
	w, err := newSoakWorkload()
	if err != nil {
		return nil, err
	}
	var out []RemoteFleetResult
	for _, p := range points {
		r, err := runRemoteFleetPoint(w, p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func runRemoteFleetPoint(w *soakWorkload, p RemoteFleetPoint) (RemoteFleetResult, error) {
	f := w.f
	deadline := p.Deadline
	if deadline == 0 {
		deadline = 100 * time.Millisecond
	}
	baseGoroutines := runtime.NumGoroutine()
	baseFDs := openFDs()

	// One server per replica, each pinned to an address that survives kills.
	hosts := make([]replicaHost, p.Replicas)
	addrs := make([]string, p.Replicas)
	var snapDir string
	if p.Binary != "" {
		// Real subprocesses need the fixture model on disk: every replica
		// loads the same snapshot and slices its own partition from it.
		snap, err := store.Capture(f.mem,
			store.Config{Dim: benchDim, NGram: 3, Seed: benchSeed},
			store.Provenance{Trainer: "perf remotefleet", CorpusSeed: benchSeed})
		if err != nil {
			return RemoteFleetResult{}, err
		}
		snapDir, err = os.MkdirTemp("", "remotefleet-*")
		if err != nil {
			return RemoteFleetResult{}, err
		}
		defer os.RemoveAll(snapDir)
		if err := store.Save(filepath.Join(snapDir, "model.ham"), snap); err != nil {
			return RemoteFleetResult{}, err
		}
	}
	for i := range hosts {
		addr, err := freeAddr()
		if err != nil {
			return RemoteFleetResult{}, err
		}
		addrs[i] = addr
		if p.Binary != "" {
			hosts[i] = &procHost{binary: p.Binary, args: []string{
				"-replica", "-partition", fmt.Sprint(i % p.Partitions),
				"-partitions", fmt.Sprint(p.Partitions),
				"-scheme", p.Scheme.String(),
				"-load", filepath.Join(snapDir, "model.ham"),
				"-listen", addr, "-http", "",
			}}
		} else {
			hosts[i] = &inprocHost{bind: addr, mem: f.mem, sc: p.Scheme, p: i % p.Partitions, n: p.Partitions}
		}
	}
	closeHosts := func() {
		for _, h := range hosts {
			h.close()
		}
	}
	for _, h := range hosts {
		if err := h.start(); err != nil {
			closeHosts()
			return RemoteFleetResult{}, err
		}
	}

	// One self-healing transport per replica; the blackholed link's dialer
	// wraps every connection (including redials) with the injector.
	bh := &fault.Blackhole{Link: uint64(p.BlackholeReplica)}
	transports := make([]fleet.ReplicaTransport, p.Replicas)
	remotes := make([]*netserve.RemoteTransport, p.Replicas)
	for i := range transports {
		cfg := netserve.RemoteConfig{
			Addr:         addrs[i],
			DialTimeout:  time.Second,
			WriteTimeout: 250 * time.Millisecond,
			PingInterval: 25 * time.Millisecond,
			PingTimeout:  250 * time.Millisecond,
			BackoffMin:   5 * time.Millisecond,
			BackoffMax:   100 * time.Millisecond,
			Seed:         benchSeed,
			Link:         uint64(i),
		}
		if i == p.BlackholeReplica {
			cfg.Dial = fault.WrapDialer(nil, uint64(i), bh)
		}
		rt := netserve.NewRemoteTransport(cfg)
		transports[i], remotes[i] = rt, rt
	}
	allConnected := func() bool {
		for _, rt := range remotes {
			if !rt.Connected() {
				return false
			}
		}
		return true
	}
	closeTransports := func() {
		for _, rt := range remotes {
			rt.Close()
		}
	}
	if !waitUntil(allConnected, 30*time.Second) {
		closeTransports()
		closeHosts()
		return RemoteFleetResult{}, errors.New("perf: remote replicas never all connected")
	}

	fl, err := fleet.NewRemote(f.mem, benchEncoderFactory(), transports, fleet.Config{
		Partitions: p.Partitions,
		Scheme:     p.Scheme,
		Seed:       benchSeed,
		Deadline:   deadline,
		Backoff:    time.Millisecond,
		Cooldown:   16,
	})
	if err != nil {
		closeTransports()
		closeHosts()
		return RemoteFleetResult{}, err
	}

	per := perClient(p.Requests, p.Clients)
	total := int64(p.Clients * per)

	// The fault controller strikes at thirds of overall progress: kill and
	// blackhole after the first, heal both after the second.
	var progress atomic.Int64
	res := RemoteFleetResult{Subprocess: p.Binary != ""}
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		if p.KillReplica < 0 && p.BlackholeReplica < 0 {
			return
		}
		waitUntil(func() bool { return progress.Load() >= total/3 }, time.Minute)
		if p.KillReplica >= 0 {
			hosts[p.KillReplica].kill()
			res.Kills++
		}
		if p.BlackholeReplica >= 0 {
			bh.Arm()
		}
		waitUntil(func() bool { return progress.Load() >= 2*total/3 }, time.Minute)
		if p.BlackholeReplica >= 0 {
			bh.Disarm()
		}
		if p.KillReplica >= 0 {
			if err := hosts[p.KillReplica].start(); err == nil {
				res.Restarts++
			}
		}
	}()

	outs, elapsed := closedLoop(w, p.Clients, per, &progress, func(text string) (fleet.Answer, error) {
		return fl.Ask(context.Background(), text)
	})
	<-ctlDone

	// Let healed links finish reconnecting so the counters are complete.
	if res.Restarts > 0 || p.BlackholeReplica >= 0 {
		waitUntil(allConnected, 10*time.Second)
	}
	st := fl.Stats()
	for _, rs := range fl.ReplicaStats() {
		if rs.ID != p.KillReplica && rs.ID != p.BlackholeReplica {
			res.BadBreakerOpens += rs.Opens
		}
	}

	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_, derr := fl.Drain(dctx)
	cancel()
	closeTransports()
	closeHosts()
	if derr != nil {
		return RemoteFleetResult{}, fmt.Errorf("perf: remote fleet drain: %w", derr)
	}

	// Leak census: goroutines and file descriptors must return to the
	// pre-fleet baseline once everything is torn down.
	res.Leaked = excess(runtime.NumGoroutine, baseGoroutines, 5*time.Second)
	if baseFDs >= 0 {
		res.LeakedFDs = excess(openFDs, baseFDs, 5*time.Second)
	}

	name := p.Name
	if name == "" {
		name = fmt.Sprintf("remotefleet/r%d-p%d-c%d", p.Replicas, p.Partitions, p.Clients)
	}
	res.Name = name
	res.Replicas, res.Partitions = p.Replicas, p.Partitions
	res.Clients, res.Requests = p.Clients, int(total)
	res.Erasures, res.Retried = st.Erasures, st.Retried
	res.Failovers, res.RemoteErrors, res.Reconnects = st.Failovers, st.RemoteErrors, st.Reconnects

	for _, o := range outs {
		if o.err != nil && !errors.Is(o.err, serve.ErrNoNGrams) {
			continue
		}
		res.Answered++
		if o.err != nil {
			continue
		}
		if !o.ans.Degraded {
			if o.ans.Result.Index != w.refIdx[o.text] {
				res.Mismatches++
			}
			continue
		}
		res.Degraded++
		// A degraded ByWords answer must carry a coherent d-sampling
		// certificate: partial coverage, a widened margin no larger
		// than the observed one, confidence consistent with it.
		certified := o.ans.CoveredBits > 0 && o.ans.CoveredBits < benchDim &&
			o.ans.WidenedMargin <= o.ans.Margin &&
			o.ans.Confident == (o.ans.WidenedMargin > 0)
		if p.Scheme == fleet.ByClasses {
			certified = o.ans.CoveredClasses > 0 && o.ans.CoveredClasses < benchClasses && !o.ans.Confident
		}
		if !certified {
			res.Uncertified++
		}
	}
	if res.Answered > 0 {
		res.DegradedRate = float64(res.Degraded) / float64(res.Answered)
	}
	lat := summarize(outs, elapsed)
	res.QPS, res.P50Us, res.P95Us, res.P99Us = lat.QPS, lat.P50Us, lat.P95Us, lat.P99Us
	return res, nil
}
