package sim

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Envelope is a point-to-point protocol message. Inst identifies the
// protocol instance (hierarchical path, e.g. "vss/3/wps/5/bc/ok"), Type
// is the instance-local message type, and Body is the marshaled payload.
type Envelope struct {
	From int
	To   int
	Inst string
	Type uint8
	Body []byte
}

// WireSize returns the accounted size of the envelope in bytes:
// body + instance path + wire.FrameOverhead bytes of framing (from, to,
// type, length). Both transport backends account this same figure, so
// metrics compare across backends; the physical frame codec
// (wire.FrameWriter) spends slightly more on checksums and prefixes,
// which the proc transport tracks separately as wire-byte counters.
func (e Envelope) WireSize() int { return len(e.Body) + len(e.Inst) + wire.FrameOverhead }

// Policy decides per-message delivery delay. Implementations must return
// a strictly positive, finite delay: the asynchronous model guarantees
// eventual delivery.
type Policy interface {
	// Delay returns the delivery latency for a message from -> to sent at
	// time now.
	Delay(rng *rand.Rand, from, to int, now Time) Time
}

// SyncPolicy models the synchronous network: every message sent at time
// τ is delivered strictly before τ + Δ (uniform jitter in [1, Δ-1]), so
// an event scheduled at a round boundary τ + Δ observes every message
// sent at or after τ. Delta must be at least 2.
type SyncPolicy struct {
	Delta Time
}

// Delay implements Policy.
func (p SyncPolicy) Delay(rng *rand.Rand, from, to int, _ Time) Time {
	if from == to {
		return 1 // local loopback
	}
	if p.Delta <= 2 {
		return 1
	}
	return 1 + Time(rng.Int64N(int64(p.Delta-1)))
}

// AsyncPolicy models the asynchronous network: delays are finite but
// unbounded relative to Δ, with a heavy tail. With probability Tail a
// message is delayed uniformly in [4Δ, 40Δ]; otherwise in [1, 4Δ].
type AsyncPolicy struct {
	Delta Time
	Tail  float64 // default 0.15 when zero
}

// Delay implements Policy.
func (p AsyncPolicy) Delay(rng *rand.Rand, from, to int, _ Time) Time {
	if from == to {
		return 1
	}
	tail := p.Tail
	if tail == 0 {
		tail = 0.15
	}
	if rng.Float64() < tail {
		return 4*p.Delta + Time(rng.Int64N(int64(36*p.Delta)))
	}
	return 1 + Time(rng.Int64N(int64(4*p.Delta)))
}

// StarvePolicy wraps a base policy and additionally withholds messages on
// selected links until a fixed horizon, modelling an adversarial
// scheduler that starves specific honest links for as long as it likes
// (but must eventually deliver).
type StarvePolicy struct {
	Base  Policy
	Until Time
	// Starve reports whether the link from -> to is starved.
	Starve func(from, to int) bool
}

// Delay implements Policy.
func (p StarvePolicy) Delay(rng *rand.Rand, from, to int, now Time) Time {
	d := p.Base.Delay(rng, from, to, now)
	if p.Starve != nil && p.Starve(from, to) && now+d < p.Until {
		return p.Until - now + 1 + Time(rng.Int64N(8))
	}
	return d
}

// BurstPolicy wraps a base policy with periodic network outages: time
// is divided into windows of Period ticks, and any message whose base
// delivery would land in the first Down ticks of a window is pushed
// past the outage (plus a tick of jitter so releases do not all collide
// on one instant). Eventual delivery is preserved — the adversarial
// scheduler may batch deliveries into bursts but never withhold
// forever — which makes this an asynchronous-model policy: during an
// outage the Δ bound is exceeded by construction.
type BurstPolicy struct {
	Base   Policy
	Period Time // window length (> 0)
	Down   Time // outage prefix of each window (0 <= Down < Period)
}

// Delay implements Policy.
func (p BurstPolicy) Delay(rng *rand.Rand, from, to int, now Time) Time {
	d := p.Base.Delay(rng, from, to, now)
	if p.Period <= 0 || p.Down <= 0 {
		return d
	}
	if phase := (now + d) % p.Period; phase < p.Down {
		// Jitter stays below Period - Down so the release cannot wrap
		// into the next window's outage prefix.
		jitter := p.Period - p.Down
		if jitter > 4 {
			jitter = 4
		}
		d += p.Down - phase + Time(rng.Int64N(int64(jitter)))
	}
	return d
}

// Delivery is an adversarially controlled message delivery decision.
type Delivery struct {
	Env        Envelope
	Drop       bool
	DelayExtra Time // additional delay on top of the policy's
}

// Interceptor lets a Byzantine adversary rewrite, duplicate, drop or
// further delay the traffic of corrupt senders. It is only consulted for
// messages originating from corrupt parties: honest parties' messages
// are delivered faithfully (the network schedule is controlled
// separately, via Policy).
type Interceptor interface {
	// Intercept returns the deliveries to perform in place of env.
	Intercept(now Time, env Envelope) []Delivery
}

// Dispatcher receives delivered envelopes; implemented by the party
// runtime.
type Dispatcher interface {
	Dispatch(env Envelope)
}

// Network connects n parties through a delivery policy, applying the
// adversary's interceptor to corrupt senders' traffic and recording
// metrics.
type Network struct {
	n           int
	sched       *Scheduler
	policy      Policy
	rng         *rand.Rand
	parties     []Dispatcher // 1-based
	corrupt     map[int]bool
	interceptor Interceptor
	metrics     *Metrics
	// tracer receives send events; nil (the default) means tracing is
	// off and the emission site reduces to one branch.
	tracer obs.Tracer
}

// NewNetwork creates a network over n parties. Dispatchers are attached
// later via Attach (parties need the network to exist first).
func NewNetwork(n int, sched *Scheduler, policy Policy, rng *rand.Rand) *Network {
	return &Network{
		n:       n,
		sched:   sched,
		policy:  policy,
		rng:     rng,
		parties: make([]Dispatcher, n+1),
		corrupt: make(map[int]bool),
		metrics: NewMetrics(n),
	}
}

// Attach registers the dispatcher for party i.
func (nw *Network) Attach(i int, d Dispatcher) {
	if i < 1 || i > nw.n {
		panic(fmt.Sprintf("sim: attach party %d out of range", i))
	}
	nw.parties[i] = d
}

// SetCorrupt marks the given parties as corrupt and installs the
// adversary's interceptor for their traffic.
func (nw *Network) SetCorrupt(parties []int, ic Interceptor) {
	for _, p := range parties {
		if p < 1 || p > nw.n {
			panic(fmt.Sprintf("sim: corrupt party %d out of range", p))
		}
		nw.corrupt[p] = true
	}
	nw.interceptor = ic
}

// IsCorrupt reports whether party i is corrupt.
func (nw *Network) IsCorrupt(i int) bool { return nw.corrupt[i] }

// CorruptSet returns the sorted list of corrupt parties.
func (nw *Network) CorruptSet() []int {
	var out []int
	for i := 1; i <= nw.n; i++ {
		if nw.corrupt[i] {
			out = append(out, i)
		}
	}
	return out
}

// Metrics returns the network's communication metrics.
func (nw *Network) Metrics() *Metrics { return nw.metrics }

// SetTracer installs tr as the network's trace sink (nil disables
// tracing).
func (nw *Network) SetTracer(tr obs.Tracer) { nw.tracer = tr }

// N returns the number of parties.
func (nw *Network) N() int { return nw.n }

// Send transmits env according to the delivery policy. Messages from
// corrupt senders pass through the adversary's interceptor first.
func (nw *Network) Send(env Envelope) {
	if env.To < 1 || env.To > nw.n {
		panic(fmt.Sprintf("sim: send to party %d out of range", env.To))
	}
	if nw.corrupt[env.From] && nw.interceptor != nil {
		for _, d := range nw.interceptor.Intercept(nw.sched.Now(), env) {
			if d.Drop {
				continue
			}
			nw.deliver(d.Env, d.DelayExtra)
		}
		return
	}
	nw.deliver(env, 0)
}

func (nw *Network) deliver(env Envelope, extra Time) {
	now := nw.sched.Now()
	nw.metrics.Record(env, nw.corrupt[env.From], now)
	delay := nw.policy.Delay(nw.rng, env.From, env.To, now) + extra
	if delay < 1 {
		delay = 1
	}
	if nw.tracer != nil {
		nw.tracer.Emit(obs.Event{
			Kind: obs.KSend, Tick: int64(now),
			Party: env.From, Peer: env.To,
			Inst: env.Inst, Type: env.Type,
			Bytes: int64(env.WireSize()),
			A:     int64(delay),
		})
	}
	// Typed delivery event: no per-message closure, the scheduler
	// dispatches the envelope directly.
	nw.sched.AfterDeliver(delay, nw, 0, env)
}

// DispatchDelivered implements DeliverSink: the scheduler hands every
// typed delivery event back at its scheduled tick, and the in-memory
// network dispatches it straight to the addressee's runtime.
func (nw *Network) DispatchDelivered(env Envelope, _ uint64) {
	if d := nw.parties[env.To]; d != nil {
		d.Dispatch(env)
	}
}

// Err reports the first transport fault. The in-memory network cannot
// fail: it always returns nil. It exists so harnesses can check any
// transport backend uniformly.
func (nw *Network) Err() error { return nil }

// Close releases transport resources; a no-op for the in-memory
// network.
func (nw *Network) Close() error { return nil }

// TopLabel extracts the first path component of an instance ID, used to
// aggregate metrics by protocol family.
func TopLabel(inst string) string {
	if i := strings.IndexByte(inst, '/'); i >= 0 {
		return inst[:i]
	}
	return inst
}
