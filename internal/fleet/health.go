package fleet

// health.go: the coordinator's per-replica health view — an EWMA failure
// estimate with circuit breaking and cooldown probes. This is the
// assoc.Resilient idiom promoted from searcher granularity to replica
// granularity: every dispatch outcome is folded into an exponentially
// weighted failure estimate; when the estimate crosses the bound the
// replica's breaker opens and dispatches route to mirrors (or become
// erasures) until a cooldown — measured on the fleet's request clock —
// admits a probe. A successful probe decays the estimate toward closing
// the breaker; a failed one restarts the cooldown.

import "sync"

// replica is one replica transport plus the coordinator's health view of
// it. The health machinery is transport-agnostic: an in-process engine and
// a remote hamserve process score, break and probe identically.
type replica struct {
	id     int
	part   int  // partition index served (id mod Partitions)
	remote bool // true for transports the fleet cannot rebuild itself

	mu         sync.Mutex
	tr         ReplicaTransport // nil while administratively stopped
	errEWMA    float64          // EWMA failure estimate in [0,1]
	open       bool             // breaker open: dispatches rejected except probes
	openedAt   uint64           // fleet request clock when the breaker (re)opened
	opens      uint64           // breaker open transitions
	probes     uint64           // dispatches admitted through an open breaker
	dispatches uint64           // dispatch outcomes scored
	failures   uint64           // of which failures
}

// transport snapshots the replica's transport (nil while stopped).
func (r *replica) transport() ReplicaTransport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tr
}

// score folds one dispatch outcome into the failure estimate and runs the
// breaker transitions. miss is 1 for a replica failure, 0 for a success;
// now is the fleet request clock at scoring time.
func (r *replica) score(miss, alpha, bound float64, now uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dispatches++
	if miss > 0 {
		r.failures++
	}
	r.errEWMA = (1-alpha)*r.errEWMA + alpha*miss
	switch {
	case !r.open && r.errEWMA > bound:
		r.open = true
		r.openedAt = now
		r.opens++
	case r.open && miss > 0:
		r.openedAt = now // a failed probe restarts the cooldown
	case r.open && r.errEWMA <= bound:
		r.open = false // enough successful probes: close the breaker
	}
}

// live reports whether tr can carry a dispatch now: the replica is running
// and, for a transport with a wire, connected.
func live(tr ReplicaTransport) bool {
	h, ok := tr.(TransportHealth)
	return tr != nil && (!ok || h.Connected())
}

// healthy reports whether the replica is live and has a closed breaker. A
// transport mid-redial reports !Connected, so dispatches route to a mirror
// immediately instead of queueing behind the backoff.
func (r *replica) healthy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.open && live(r.tr)
}

// probeDue reports whether an open breaker's cooldown has elapsed at fleet
// clock now, admitting one dispatch as a probe (counted when admitted). A
// disconnected transport is never probed — the redial loop, not a doomed
// dispatch, is what brings it back.
func (r *replica) probeDue(now, cooldown uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.open || now-r.openedAt < cooldown || !live(r.tr) {
		return false
	}
	r.probes++
	return true
}

// reset clears the health view; StartReplica installs tr as the replica's
// fresh transport with a clean slate.
func (r *replica) reset(tr ReplicaTransport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tr = tr
	r.errEWMA = 0
	r.open = false
	r.openedAt = 0
}
