package proto

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/poly"
)

// WorldOpts configures a simulated n-party system.
type WorldOpts struct {
	Cfg     Config
	Network NetKind
	// Policy overrides the delivery policy derived from Network when
	// non-nil (e.g. a StarvePolicy for targeted scheduling attacks).
	Policy sim.Policy
	// Seed makes the entire run deterministic.
	Seed uint64
	// Corrupt lists the adversary's (static) corruptions, 1-based.
	Corrupt []int
	// Interceptor rewrites corrupt parties' traffic; nil means corrupt
	// parties follow the protocol (harness may still give them bad
	// inputs).
	Interceptor sim.Interceptor
	// EventLimit optionally caps scheduler events (runaway guard).
	EventLimit uint64
	// Tracer receives trace events from the scheduler, network and every
	// party runtime. nil (the default) disables tracing; a traced run is
	// bit-identical to an untraced one.
	Tracer obs.Tracer
	// Transport selects the message-plane backend; nil means the
	// deterministic in-memory simulator (transport.Sim). The factory
	// receives the world's scheduler, delivery policy and network-delay
	// RNG, so every backend consumes policy delays in the same order and
	// a fixed seed replays the same virtual schedule on any backend.
	Transport transport.Factory
}

// World is an assembled n-party system: the shared virtual-time
// scheduler, a message-plane transport (the in-memory simulator by
// default), and one protocol runtime per party.
type World struct {
	Cfg     Config
	Network NetKind
	Sched   *sim.Scheduler
	Net     transport.Transport
	// Runtimes is 1-based: Runtimes[i] is party i; index 0 is nil.
	Runtimes []*Runtime

	corrupt map[int]bool
	epochs  int
	tracer  obs.Tracer

	// netPCG and prngs retain the raw PCG sources behind the network's
	// and the parties' rand.Rand wrappers: rand.Rand is not serializable
	// but *rand.PCG is, and checkpoint/restore needs the generators'
	// exact positions for a restored run to replay bit-identically.
	netPCG *rand.PCG
	prngs  []*rand.PCG // 1-based, like Runtimes
}

// Epoch is one session slot on a long-lived World. A World originally
// hosted exactly one protocol run, so instance paths ("mpc/lay/1"),
// timers and metrics were implicitly namespaced by the World itself;
// an engine that serves many sequential evaluations over one World
// needs an explicit per-evaluation dimension so the k-th online phase
// cannot collide with the (k-1)-th (Runtime.Register panics on
// duplicate instance paths — by design). BeginEpoch hands out that
// dimension: a monotone sequence number that Namespace folds into the
// instance path *below* the top-level family label, so per-family
// traffic metrics (sim.TopLabel) still aggregate across epochs.
type Epoch struct{ seq int }

// Seq returns the epoch's sequence number (0-based).
func (e Epoch) Seq() int { return e.seq }

// Namespace returns the instance namespace of family for this epoch,
// e.g. Namespace("mpc") of epoch 3 is "mpc/e3". The epoch component
// sits below the family label so metrics family breakdowns are stable
// across epochs.
func (e Epoch) Namespace(family string) string {
	return fmt.Sprintf("%s/e%d", family, e.seq)
}

// BeginEpoch allocates the next session epoch on this world. Every
// party of the world shares the returned epoch: the caller drives all
// runtimes through the same deterministic epoch sequence.
func (w *World) BeginEpoch() Epoch {
	e := Epoch{seq: w.epochs}
	w.epochs++
	if w.tracer != nil {
		w.tracer.Emit(obs.Event{
			Kind: obs.KEpochBegin, Tick: int64(w.Sched.Now()), A: int64(e.seq),
		})
	}
	return e
}

// Epochs returns the number of epochs begun so far.
func (w *World) Epochs() int { return w.epochs }

// NewWorld builds a world. It panics on invalid configuration or a
// failed transport bring-up: worlds are constructed by tests and
// harnesses where either is a programming error. Harnesses assembling
// over a real transport backend (whose bring-up can legitimately fail)
// use NewWorldE instead.
func NewWorld(opts WorldOpts) *World {
	w, err := NewWorldE(opts)
	if err != nil {
		panic(err)
	}
	return w
}

// NewWorldE builds a world, returning an error instead of panicking
// when the transport backend fails to come up (sockets can fail to
// bind or connect; the in-memory simulator cannot fail). Invalid
// configuration still panics — that is a programming error regardless
// of backend.
func NewWorldE(opts WorldOpts) (*World, error) {
	cfg := opts.Cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sched := sim.NewScheduler()
	sched.Limit = opts.EventLimit
	policy := opts.Policy
	if policy == nil {
		switch opts.Network {
		case Sync:
			policy = sim.SyncPolicy{Delta: cfg.Delta}
		case Async:
			policy = sim.AsyncPolicy{Delta: cfg.Delta}
		default:
			panic(fmt.Sprintf("proto: invalid network kind %v", opts.Network))
		}
	}
	factory := opts.Transport
	if factory == nil {
		factory = transport.Sim
	}
	netPCG := rand.NewPCG(opts.Seed, 0x6e657477_6f726b00) // "network"
	net, err := factory(cfg.N, sched, policy, rand.New(netPCG))
	if err != nil {
		return nil, fmt.Errorf("proto: transport bring-up: %w", err)
	}

	w := &World{
		Cfg:      cfg,
		Network:  opts.Network,
		Sched:    sched,
		Net:      net,
		Runtimes: make([]*Runtime, cfg.N+1),
		corrupt:  make(map[int]bool),
		tracer:   opts.Tracer,
		netPCG:   netPCG,
		prngs:    make([]*rand.PCG, cfg.N+1),
	}
	if opts.Tracer != nil {
		sched.SetTracer(opts.Tracer)
		net.SetTracer(opts.Tracer)
	}
	// One kernel registry per world — the O(m²) barycentric builds are
	// paid once per distinct point set for the world's whole lifetime
	// (all epochs, refills and parties) — with per-party clone caches, each
	// holding its own interpolation scratch.
	kernels := poly.NewKernelRegistry()
	for i := 1; i <= cfg.N; i++ {
		pcg := rand.NewPCG(opts.Seed^uint64(i)*0x9e3779b97f4a7c15, uint64(i))
		w.prngs[i] = pcg
		w.Runtimes[i] = NewRuntime(i, cfg.N, sched, net, rand.New(pcg))
		w.Runtimes[i].SetKernelCache(kernels.NewCache())
		w.Runtimes[i].SetTracer(opts.Tracer)
	}
	for _, c := range opts.Corrupt {
		if c < 1 || c > cfg.N {
			panic(fmt.Sprintf("proto: corrupt party %d out of range", c))
		}
		w.corrupt[c] = true
	}
	if len(opts.Corrupt) > 0 {
		net.SetCorrupt(opts.Corrupt, opts.Interceptor)
	}
	return w, nil
}

// IsCorrupt reports whether party i is corrupt.
func (w *World) IsCorrupt(i int) bool { return w.corrupt[i] }

// Honest returns the sorted honest party indices.
func (w *World) Honest() []int {
	var out []int
	for i := 1; i <= w.Cfg.N; i++ {
		if !w.corrupt[i] {
			out = append(out, i)
		}
	}
	return out
}

// CorruptCount returns the number of corrupt parties.
func (w *World) CorruptCount() int { return len(w.corrupt) }

// RunUntil advances the simulation to the horizon.
func (w *World) RunUntil(horizon sim.Time) { w.Sched.RunUntil(horizon) }

// RunToQuiescence processes all pending events.
func (w *World) RunToQuiescence() { w.Sched.RunToQuiescence() }

// Step executes the next scheduler event if one exists and the event
// limit is not exhausted, reporting whether an event ran. It is the
// single-step driver the pipelined engine uses: all in-flight epochs
// advance interleaved, one event at a time, until the one being waited
// on completes.
func (w *World) Step() bool {
	if w.Sched.Limit > 0 && w.Sched.Processed() >= w.Sched.Limit {
		return false
	}
	return w.Sched.Step()
}

// StepTick executes every event of the next pending tick (if any, and
// if the event limit is not exhausted), reporting whether any ran. It
// is the tick-granular driver the pipelined engine polls with: engine
// state is only inspected at tick boundaries, so the submission point
// (and with it every later sequence number and RNG draw) never depends
// on where inside a tick a completion landed.
func (w *World) StepTick() bool {
	if w.Sched.Limit > 0 && w.Sched.Processed() >= w.Sched.Limit {
		return false
	}
	return w.Sched.StepTick()
}

// Metrics returns the network's communication metrics.
func (w *World) Metrics() *sim.Metrics { return w.Net.Metrics() }

// TransportErr reports the first transport fault (always nil for the
// in-memory simulator). Harnesses check it after running to
// quiescence: a faulted real transport stops delivering, so the run
// drains instead of hanging, and the fault must not masquerade as a
// protocol outcome.
func (w *World) TransportErr() error { return w.Net.Err() }

// Close releases the transport's OS resources (sockets, goroutines);
// a no-op for the in-memory simulator. Idempotent.
func (w *World) Close() error { return w.Net.Close() }

// Tracer returns the world's trace sink (nil when tracing is off).
func (w *World) Tracer() obs.Tracer { return w.tracer }

// WorldState is a World's serializable lifecycle state: everything a
// fresh NewWorld with the same options does NOT already reconstruct.
// The protocol handler tables and in-flight messages are deliberately
// absent — a world may only checkpoint at quiescence, where no events
// are pending and the engine has retired every finished namespace (the
// epoch counter guarantees restored sessions open fresh, non-colliding
// namespaces, so the tombstones need not be carried over either).
type WorldState struct {
	// Epochs is the BeginEpoch counter.
	Epochs int `json:"epochs"`
	// Sched is the virtual clock and event-sequence state.
	Sched sim.SchedulerState `json:"sched"`
	// Metrics is the communication counter state.
	Metrics sim.MetricsSnapshot `json:"metrics"`
	// NetRand is the network-delay PCG's marshaled position; PartyRand
	// the per-party protocol PCGs' (index 0 = party 1).
	NetRand   []byte   `json:"netRand"`
	PartyRand [][]byte `json:"partyRand"`
}

// Checkpoint captures the world's lifecycle state. It fails if the
// scheduler still holds pending events: closures cannot be serialized,
// so checkpoints exist only at quiescence.
func (w *World) Checkpoint() (*WorldState, error) {
	sched, err := w.Sched.Checkpoint()
	if err != nil {
		return nil, err
	}
	netRand, err := w.netPCG.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("proto: marshal network rng: %w", err)
	}
	st := &WorldState{
		Epochs:    w.epochs,
		Sched:     sched,
		Metrics:   w.Metrics().Snapshot(),
		NetRand:   netRand,
		PartyRand: make([][]byte, w.Cfg.N),
	}
	for i := 1; i <= w.Cfg.N; i++ {
		b, err := w.prngs[i].MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("proto: marshal party %d rng: %w", i, err)
		}
		st.PartyRand[i-1] = b
	}
	return st, nil
}

// Restore loads a checkpointed lifecycle state into a freshly built
// world (same options as the checkpointed one — the caller enforces
// that; this method validates only shape). On error the world is
// possibly half-restored and must be discarded.
func (w *World) Restore(st *WorldState) error {
	if st == nil {
		return fmt.Errorf("proto: restore from nil world state")
	}
	if st.Epochs < 0 {
		return fmt.Errorf("proto: restore with negative epoch counter %d", st.Epochs)
	}
	if len(st.PartyRand) != w.Cfg.N {
		return fmt.Errorf("proto: restore with %d party rng states for %d parties", len(st.PartyRand), w.Cfg.N)
	}
	if err := w.Sched.Restore(st.Sched); err != nil {
		return err
	}
	if err := w.Metrics().Restore(st.Metrics); err != nil {
		return err
	}
	if err := w.netPCG.UnmarshalBinary(st.NetRand); err != nil {
		return fmt.Errorf("proto: restore network rng: %w", err)
	}
	for i := 1; i <= w.Cfg.N; i++ {
		if err := w.prngs[i].UnmarshalBinary(st.PartyRand[i-1]); err != nil {
			return fmt.Errorf("proto: restore party %d rng: %w", i, err)
		}
	}
	w.epochs = st.Epochs
	return nil
}
