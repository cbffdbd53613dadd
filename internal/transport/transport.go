// Package transport defines the message-plane seam between the
// protocol layers and the medium that carries their envelopes. The
// per-party Runtime and the World harness are assembled over the
// Transport interface; two backends implement it:
//
//   - sim.Network — the deterministic in-memory reference: envelopes
//     never leave the process, delivery is a typed scheduler event.
//   - transport/proc — parties as goroutines speaking CRC-framed,
//     length-prefixed messages (wire.FrameWriter) over unix-domain or
//     TCP-loopback sockets, with the shared virtual-time scheduler as
//     the order authority, so a fixed seed replays the simulator's
//     schedule bit-identically while the bytes physically cross
//     sockets.
//
// The clock/timer hooks the protocol layers use (Now/At/After/
// AfterDeliver) stay on sim.Scheduler: both backends share one
// scheduler, which is what makes real-transport runs differentially
// comparable against the simulator (docs/deployment.md).
package transport

import (
	"math/rand/v2"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Transport is the message plane an n-party protocol world sends
// through. The method set is exactly what the protocol-assembly layers
// (proto.Runtime, proto.World, the mpc engine) use; sim.Network
// implements it natively.
type Transport interface {
	// Send transmits env according to the backend's delivery policy.
	// Messages from corrupt senders pass through the adversary's
	// interceptor first.
	Send(env sim.Envelope)
	// Attach registers the dispatcher for party i (1-based).
	Attach(i int, d sim.Dispatcher)
	// N returns the number of parties.
	N() int
	// SetCorrupt marks parties as corrupt and installs the adversary's
	// interceptor for their traffic.
	SetCorrupt(parties []int, ic sim.Interceptor)
	// IsCorrupt reports whether party i is corrupt.
	IsCorrupt(i int) bool
	// CorruptSet returns the sorted corrupt parties.
	CorruptSet() []int
	// Metrics returns the backend's communication metrics — virtual
	// accounting (Envelope.WireSize), identical across backends.
	Metrics() *sim.Metrics
	// SetTracer installs tr as the trace sink (nil disables tracing).
	SetTracer(tr obs.Tracer)
	// Err reports the first transport fault (nil for the in-memory
	// network, which cannot fail). Harnesses check it after running to
	// quiescence: a faulted real transport stops delivering, so the run
	// drains without the fault masquerading as a protocol outcome.
	Err() error
	// Close releases OS resources (sockets, goroutines); a no-op for
	// the in-memory network. Close is idempotent.
	Close() error
}

// Factory builds a transport over n parties for a world being
// assembled: the world hands it the shared scheduler, the delivery
// policy and the network-delay RNG so every backend consumes delays in
// the same order (the determinism contract). A nil Factory in
// proto.WorldOpts means the in-memory simulator.
type Factory func(n int, sched *sim.Scheduler, policy sim.Policy, rng *rand.Rand) (Transport, error)

// Sim is the default factory: the deterministic in-memory network.
func Sim(n int, sched *sim.Scheduler, policy sim.Policy, rng *rand.Rand) (Transport, error) {
	return sim.NewNetwork(n, sched, policy, rng), nil
}

// WireStats is the physical-byte accounting of a real transport
// backend: actual frame bytes (length prefixes and CRC trailers
// included) that crossed sockets. The in-memory network reports zeros.
// These figures are deliberately kept out of sim.Metrics so virtual
// accounting stays bit-identical across backends.
type WireStats struct {
	// FramesOut/BytesOut count frames handed to the peer socket
	// writers; FramesIn/BytesIn count frames read and verified. At
	// quiescence every sent frame has been read, so the pairs agree.
	FramesOut uint64 `json:"framesOut"`
	BytesOut  uint64 `json:"bytesOut"`
	FramesIn  uint64 `json:"framesIn"`
	BytesIn   uint64 `json:"bytesIn"`
}

// WireMeter is implemented by backends that move physical bytes; the
// engine surfaces it for benchmarks and deployment reports.
type WireMeter interface {
	WireStats() WireStats
}

// Meter returns t's physical-byte accounting, or zeros when the
// backend moves no physical bytes (the in-memory network).
func Meter(t Transport) WireStats {
	if m, ok := t.(WireMeter); ok {
		return m.WireStats()
	}
	return WireStats{}
}
