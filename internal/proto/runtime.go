// Package proto provides the per-party protocol runtime: hierarchical
// protocol-instance routing, out-of-order message buffering, local
// timers, and the World harness that assembles n parties, a simulated
// network, and an adversary into a runnable system.
//
// Protocol instances are state machines identified by slash-separated
// instance paths (e.g. "vss/3/wps/5/bc/ok"). Messages arriving before
// the local instance exists are buffered and replayed on registration,
// which is how the paper's "the parties participate in instance Π..."
// steps — including deliberately delayed participation — are realised.
package proto

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/poly"
)

// Handler is a protocol instance: it consumes messages addressed to its
// instance path. Handlers run inside scheduler callbacks; no locking is
// needed.
type Handler interface {
	Deliver(from int, msgType uint8, body []byte)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from int, msgType uint8, body []byte)

// Deliver implements Handler.
func (f HandlerFunc) Deliver(from int, msgType uint8, body []byte) { f(from, msgType, body) }

// bufferCap bounds per-instance buffering of early messages, protecting
// against Byzantine floods to never-registered instances.
const bufferCap = 1 << 14

type bufMsg struct {
	from    int
	msgType uint8
	body    []byte
}

type prefixEntry struct {
	prefix  string
	factory func(inst string) Handler
}

// Runtime is one party's execution environment.
type Runtime struct {
	id    int
	n     int
	sched *sim.Scheduler
	net   transport.Transport
	rng   *rand.Rand
	// kernels is the run-wide interpolation-kernel cache, shared by all
	// parties of a world (the simulation is single-threaded, and the
	// evaluation grid is public, so sharing leaks nothing).
	kernels *poly.KernelCache

	exact    map[string]Handler
	prefixes []prefixEntry
	buffer   map[string][]bufMsg

	// tomb is the retired-namespace tombstone (see DropPrefix).
	tomb tombstone

	// tracer receives instance lifecycle events; nil (the default) means
	// tracing is off.
	tracer obs.Tracer
}

// NewRuntime creates the runtime for party id (1-based) and attaches it
// to the transport (the in-memory network or a real socket backend —
// the runtime is agnostic; its clock hooks go through the shared
// scheduler either way).
func NewRuntime(id, n int, sched *sim.Scheduler, net transport.Transport, rng *rand.Rand) *Runtime {
	rt := &Runtime{
		id:      id,
		n:       n,
		sched:   sched,
		net:     net,
		rng:     rng,
		kernels: poly.NewKernelCache(),
		exact:   make(map[string]Handler),
		buffer:  make(map[string][]bufMsg),
	}
	net.Attach(id, rt)
	return rt
}

// SetKernelCache replaces this runtime's interpolation-kernel cache;
// the World harness points every party at one shared per-run cache.
func (rt *Runtime) SetKernelCache(c *poly.KernelCache) { rt.kernels = c }

// Kernels returns the run's interpolation-kernel cache.
func (rt *Runtime) Kernels() *poly.KernelCache { return rt.kernels }

// SetTracer installs tr as this party's trace sink (nil disables
// tracing).
func (rt *Runtime) SetTracer(tr obs.Tracer) { rt.tracer = tr }

// Tracer returns the installed trace sink (nil when tracing is off).
// Protocol layers built on the runtime (triple pool, engine) emit
// their own events through it.
func (rt *Runtime) Tracer() obs.Tracer { return rt.tracer }

// traceInstance records a handler installation for inst.
func (rt *Runtime) traceInstance(inst string) {
	if rt.tracer != nil {
		rt.tracer.Emit(obs.Event{
			Kind: obs.KInstance, Tick: int64(rt.sched.Now()), Party: rt.id, Inst: inst,
		})
	}
}

// ID returns this party's 1-based index.
func (rt *Runtime) ID() int { return rt.id }

// N returns the total number of parties.
func (rt *Runtime) N() int { return rt.n }

// Now returns the current (local = global virtual) time.
func (rt *Runtime) Now() sim.Time { return rt.sched.Now() }

// Rand returns this party's deterministic random stream.
func (rt *Runtime) Rand() *rand.Rand { return rt.rng }

// After schedules fn on this party's local clock after d ticks.
func (rt *Runtime) After(d sim.Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("proto: negative delay %d", d))
	}
	rt.sched.AtPrio(rt.sched.Now()+d, sim.PrioDeliver, fn)
}

// At schedules fn at absolute local time t; if t is already past, fn
// runs immediately via a zero-delay event.
func (rt *Runtime) At(t sim.Time, fn func()) {
	if t < rt.sched.Now() {
		t = rt.sched.Now()
	}
	rt.sched.AtPrio(t, sim.PrioDeliver, fn)
}

// AtProcessing schedules fn at absolute local time t in the
// post-processing class: it runs after every message delivery and
// ordinary timer of the same tick, realising protocol steps of the form
// "at time T, based on everything received by time T, do ...".
func (rt *Runtime) AtProcessing(t sim.Time, fn func()) {
	if t < rt.sched.Now() {
		t = rt.sched.Now()
	}
	rt.sched.AtPrio(t, sim.PrioProcess, fn)
}

// Register installs h as the handler for the exact instance path inst
// and replays any buffered messages for it. Registering a duplicate
// instance panics: it indicates a protocol-composition bug.
func (rt *Runtime) Register(inst string, h Handler) {
	if _, dup := rt.exact[inst]; dup {
		panic(fmt.Sprintf("proto: party %d: duplicate instance %q", rt.id, inst))
	}
	rt.traceInstance(inst)
	rt.exact[inst] = h
	if msgs, ok := rt.buffer[inst]; ok {
		delete(rt.buffer, inst)
		for _, m := range msgs {
			h.Deliver(m.from, m.msgType, m.body)
		}
	}
}

// Registered reports whether an exact handler exists for inst.
func (rt *Runtime) Registered(inst string) bool {
	_, ok := rt.exact[inst]
	return ok
}

// RegisterPrefix installs a factory creating handlers on demand for any
// instance path beginning with prefix (which should end in "/"). The
// factory is invoked at most once per distinct instance path. It may
// either return the handler, or construct a protocol object that calls
// Register itself and return nil (self-registration). Buffered messages
// for matching paths are replayed immediately.
func (rt *Runtime) RegisterPrefix(prefix string, factory func(inst string) Handler) {
	rt.prefixes = append(rt.prefixes, prefixEntry{prefix: prefix, factory: factory})
	// Replay buffered traffic now matched by the new prefix.
	var matched []string
	for inst := range rt.buffer {
		if strings.HasPrefix(inst, prefix) {
			matched = append(matched, inst)
		}
	}
	slices.Sort(matched) // deterministic order
	for _, inst := range matched {
		h := factory(inst)
		if h == nil {
			// Self-registering factory: Register already replayed the
			// buffer for this path; nothing to do if it registered.
			continue
		}
		msgs := rt.buffer[inst]
		delete(rt.buffer, inst)
		rt.traceInstance(inst)
		rt.exact[inst] = h
		for _, m := range msgs {
			h.Deliver(m.from, m.msgType, m.body)
		}
	}
}

// Dispatch implements sim.Dispatcher.
func (rt *Runtime) Dispatch(env sim.Envelope) {
	if h, ok := rt.exact[env.Inst]; ok {
		h.Deliver(env.From, env.Type, env.Body)
		return
	}
	if rt.tomb.covers(env.Inst) {
		return // a straggler for a retired namespace
	}
	for _, pe := range rt.prefixes {
		if strings.HasPrefix(env.Inst, pe.prefix) {
			h := pe.factory(env.Inst)
			if h == nil {
				// The factory may have self-registered the instance (e.g.
				// by constructing a protocol whose constructor calls
				// Register); if so, deliver to it.
				if h2, ok := rt.exact[env.Inst]; ok {
					h2.Deliver(env.From, env.Type, env.Body)
					return
				}
				break
			}
			rt.traceInstance(env.Inst)
			rt.exact[env.Inst] = h
			h.Deliver(env.From, env.Type, env.Body)
			return
		}
	}
	buf := rt.buffer[env.Inst]
	if len(buf) >= bufferCap {
		return // flood protection: drop
	}
	rt.buffer[env.Inst] = append(buf, bufMsg{from: env.From, msgType: env.Type, body: env.Body})
}

// Send transmits a message to party `to` for instance inst.
func (rt *Runtime) Send(inst string, to int, msgType uint8, body []byte) {
	rt.net.Send(sim.Envelope{From: rt.id, To: to, Inst: inst, Type: msgType, Body: body})
}

// SendAll transmits the message to every party, including the sender
// itself (self-delivery goes through the loopback with minimal delay,
// keeping protocol logic uniform).
func (rt *Runtime) SendAll(inst string, msgType uint8, body []byte) {
	for to := 1; to <= rt.n; to++ {
		rt.Send(inst, to, msgType, body)
	}
}

// Join builds an instance path from components.
func Join(parts ...string) string { return strings.Join(parts, "/") }
