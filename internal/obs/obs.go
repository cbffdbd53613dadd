// Package obs is the structured trace/telemetry subsystem of the
// simulator stack: a typed event model covering the full protocol
// lifecycle (instance registration, message send/deliver, timer fires,
// scheduler ticks, session epochs, triple-pool accounting, engine
// phases), an in-memory Collector, stream aggregators reducing an
// event sequence to per-family latency histograms and gauge series,
// and exporters for raw JSONL and Chrome trace-event JSON (loadable in
// Perfetto).
//
// The paper's claims are time- and traffic-shaped — termination bounds
// on the Δ-grid, honest-communication complexity per protocol family —
// so the trace layer records *virtual* time: one tick maps to one
// microsecond in the Chrome export, parties map to threads, and
// protocol families to track names. Because the simulation is a
// single-threaded deterministic event loop, the emitted event sequence
// is a pure function of the run's seed: identical seeds produce
// byte-identical JSONL traces, which the differential tests pin.
//
// Tracing is strictly opt-in and zero-cost when off: every emission
// site guards on a nil Tracer, events are flat value structs (no
// allocation on emit), and the nil-tracer hot path is covered by an
// AllocsPerRun guard on the scheduler deliver path.
package obs

import (
	"fmt"
)

// Kind enumerates the typed trace events.
type Kind uint8

// Event kinds. The Event field comments on each kind document how the
// generic A/B payload slots are used.
const (
	// KSend: the network accepted an envelope from its sender.
	// Party=sender, Peer=addressee, Inst/Type/Bytes describe the
	// message, A=scheduled delivery delay in ticks.
	KSend Kind = iota
	// KDeliver: an envelope reached its addressee's runtime.
	// Party=addressee, Peer=sender, Inst/Type/Bytes describe the
	// message, A=observed delivery latency in ticks.
	KDeliver
	// KTimer: a scheduler timer callback ran. A=priority class.
	KTimer
	// KTick: the scheduler advanced to a new tick. A=queue depth (events
	// pending at tick entry, including the one about to run).
	KTick
	// KInstance: a party registered a protocol-instance handler.
	// Party=party, Inst=instance path.
	KInstance
	// KInstanceDrop: a party retired an instance namespace
	// (Runtime.DropPrefix). Party=party, Inst=prefix, A=handlers
	// dropped.
	KInstanceDrop
	// KEpochBegin: the world allocated a session epoch. A=epoch seq.
	KEpochBegin
	// KEpochRetire: the engine retired an epoch's namespace after an
	// evaluation. Inst=epoch namespace, A=epoch seq.
	KEpochRetire
	// KPhaseBegin: an engine lifecycle phase started. Inst=phase name
	// ("preprocess", "evaluate", or "run" for a one-shot mpc.RunOpts),
	// A=phase sequence (batch or epoch).
	KPhaseBegin
	// KPhaseEnd: an engine lifecycle phase completed. Inst=phase name,
	// A=duration in ticks, B=honest messages the phase cost.
	KPhaseEnd
	// KPoolFill: a triple-pool fill batch was requested. Party=party,
	// Inst=batch namespace, A=batch size (triples), B=available before.
	KPoolFill
	// KPoolFillDone: a fill batch completed. Party=party, Inst=batch
	// namespace, A=triples produced, B=available after.
	KPoolFillDone
	// KPoolReserve: an evaluation reserved pool triples. Party=party,
	// A=triples reserved, B=available after.
	KPoolReserve
	// KPoolRelease: an unconsumed reservation returned to the pool.
	// Party=party, A=triples released, B=available after.
	KPoolRelease
	// KPoolExhaust: a reservation failed on an empty pool. Party=party,
	// A=triples needed, B=triples available.
	KPoolExhaust
	// KPipelineDepth: the engine's in-flight evaluation count changed
	// (an epoch was submitted or completed). A=in-flight evaluations
	// after the change, B=epoch seq that caused it. Plotted as a gauge,
	// this is the pipeline-occupancy series.
	KPipelineDepth

	kindCount // number of kinds; keep last
)

// kindNames maps kinds to their stable wire names (JSONL "k" field).
var kindNames = [kindCount]string{
	KSend:          "send",
	KDeliver:       "deliver",
	KTimer:         "timer",
	KTick:          "tick",
	KInstance:      "instance",
	KInstanceDrop:  "instance-drop",
	KEpochBegin:    "epoch-begin",
	KEpochRetire:   "epoch-retire",
	KPhaseBegin:    "phase-begin",
	KPhaseEnd:      "phase-end",
	KPoolFill:      "pool-fill",
	KPoolFillDone:  "pool-fill-done",
	KPoolReserve:   "pool-reserve",
	KPoolRelease:   "pool-release",
	KPoolExhaust:   "pool-exhaust",
	KPipelineDepth: "pipeline-depth",
}

// String returns the kind's stable wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindByName resolves a wire name back to its Kind; ok is false for an
// unknown name.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one trace record: a flat value struct so emitting an event
// never allocates. The A and B slots carry kind-specific payloads (see
// the Kind constants); unused fields are zero.
type Event struct {
	Kind Kind
	// Tick is the virtual time of the event.
	Tick int64
	// Party is the acting party (1-based; 0 = world-level event).
	Party int
	// Peer is the counterpart party where one exists (message sender on
	// KDeliver, addressee on KSend).
	Peer int
	// Inst is the instance path, namespace prefix or phase name.
	Inst string
	// Type is the instance-local message type (KSend/KDeliver).
	Type uint8
	// Bytes is the accounted wire size (KSend/KDeliver).
	Bytes int64
	// A and B are the kind-specific payload slots.
	A, B int64
}

// Family returns the top-level protocol family of the event's instance
// path (the first slash-separated component).
func (e Event) Family() string {
	for i := 0; i < len(e.Inst); i++ {
		if e.Inst[i] == '/' {
			return e.Inst[:i]
		}
	}
	return e.Inst
}

// Tracer receives trace events. Implementations must not retain
// pointers into the event (it is a value) and must be cheap: every
// emission happens inside the single-threaded simulation loop, so no
// locking is needed, but Emit runs on protocol hot paths.
//
// A nil Tracer means tracing is off; emission sites guard on nil, so a
// traced-off run pays one predicted branch per site and zero
// allocations.
type Tracer interface {
	Emit(ev Event)
}

// Collector is the standard in-memory Tracer: it appends every event
// to a slice in emission order. Because the simulation is
// deterministic, the collected sequence is a pure function of the
// run's configuration and seed.
type Collector struct {
	evs []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit implements Tracer.
func (c *Collector) Emit(ev Event) { c.evs = append(c.evs, ev) }

// Events returns the collected events in emission order. The slice is
// owned by the collector; callers must not append to it.
func (c *Collector) Events() []Event { return c.evs }

// Len returns the number of collected events.
func (c *Collector) Len() int { return len(c.evs) }

// Reset discards the collected events, keeping the storage for reuse.
func (c *Collector) Reset() { c.evs = c.evs[:0] }
