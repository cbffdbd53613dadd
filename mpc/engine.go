package mpc

import (
	"errors"
	"fmt"

	"repro/circuit"
	"repro/field"
	"repro/internal/aba"
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/triples"
)

// Engine lifecycle errors. ErrTriplesExhausted is recoverable: the
// engine and its World are fully usable after a refill Preprocess; the
// other two are caller mistakes in the Preprocess → Evaluate lifecycle.
var (
	// ErrNotPreprocessed is returned by Evaluate before the first
	// Preprocess: the engine has no triple pool to reserve from.
	ErrNotPreprocessed = errors.New("mpc: Evaluate before Preprocess: the engine has no triple pool yet (call Preprocess first)")
	// ErrDoublePreprocess is returned by a Preprocess that follows
	// another Preprocess with no evaluation in between: budget the
	// first call higher instead of stacking pool fills back to back.
	ErrDoublePreprocess = errors.New("mpc: double Preprocess: no evaluation has run since the last Preprocess (budget the first call higher instead)")
	// ErrTriplesExhausted is wrapped by an Evaluate whose circuit needs
	// more triples than the pool holds. Nothing is consumed and the
	// World is untouched: Preprocess a refill batch and retry.
	ErrTriplesExhausted = errors.New("mpc: triple pool exhausted")
	// ErrEvalsInFlight is returned by Evaluate and Preprocess while
	// pipelined evaluations or a background refill are in flight: both
	// calls drive the shared scheduler to quiescence and account their
	// phase there, which is only meaningful with exclusive use of the
	// scheduler. Flush the pipeline first.
	ErrEvalsInFlight = errors.New("mpc: pipelined evaluations in flight (call Flush first)")
)

// Engine is a long-lived n-party MPC session: one simulated World whose
// preprocessing is amortized over many circuit evaluations.
//
// The paper's offline/online split makes ΠPreProcessing a producer of
// circuit-independent Beaver triples that the online phase merely
// consumes — yet the one-shot RunOpts tears its World down after a single
// evaluation, re-paying VSS/ACS-heavy preprocessing per request. An
// Engine keeps the World: Preprocess runs one budgeted ΠPreProcessing
// batch filling a per-party triple Pool, and each Evaluate reserves
// just the cM triples its circuit needs, runs an input ΠACS plus the
// batched online phase in a fresh epoch namespace ("mpc/e<k>"), and
// retires that namespace on completion. Honest traffic per evaluation
// drops from the full TCirEval cost to the input-sharing + online cost,
// which is what request-serving scale needs.
//
// An Engine is not safe for concurrent use: like the World it wraps,
// it is a single-threaded deterministic simulation. Config.EventLimit
// is a lifetime budget across all epochs (default 200M events).
type Engine struct {
	cfg Config
	// adv is the session's static adversary, retained verbatim so a
	// Snapshot records the engine's full identity (a checkpoint only
	// restores under the same config AND adversary).
	adv    *Adversary
	pcfg   proto.Config
	world  *proto.World
	coin   aba.CoinSource
	silent map[int]bool
	// pools is 1-based: pools[i] is party i's share store; slot k of
	// every pool holds one party's share of the same ts-shared triple.
	pools []*triples.Pool

	// cleanup releases resources the transport resolution created (an
	// auto-assigned socket directory); nil for the simulator backend.
	cleanup func() error

	preprocessed  bool
	evalSinceFill bool
	// oneShot marks an engine consumed by OneShot: the one-shot phase
	// and the session lifecycle are mutually exclusive.
	oneShot bool
	evals   int
	ppCalls int
	// busy names the lifecycle phase currently executing ("" when
	// idle): Snapshot refuses while a phase is live, because the
	// scheduler then holds protocol events that cannot be serialized.
	busy string

	ppMsgs, ppBytes     uint64
	evalMsgs, evalBytes uint64
	evalSummaries       []EvalSummary

	// inflight holds the pipelined evaluations submitted through
	// EvaluateAsync and not yet completed, in submission order.
	inflight []*PendingEval
	// refill is the in-flight watermark-triggered background fill (nil
	// when none).
	refill *fillState

	// tracer receives engine lifecycle events (phases, epoch
	// retirement); nil means tracing is off. The same tracer is wired
	// through the world into the scheduler, network, runtimes and pools.
	tracer obs.Tracer
}

// EvalSummary is the per-evaluation latency/traffic record kept by the
// engine: one row per completed evaluation (Evaluate or EvaluateAsync),
// in completion order.
type EvalSummary struct {
	// Epoch is the evaluation's session epoch sequence number.
	Epoch int `json:"epoch"`
	// Triples is the pool reservation the circuit consumed.
	Triples int `json:"triples"`
	// StartTick/EndTick bound the evaluation on the virtual clock:
	// StartTick is the grid-anchored phase start, EndTick the last
	// honest termination. Ticks = EndTick - StartTick.
	StartTick int64 `json:"startTick"`
	EndTick   int64 `json:"endTick"`
	Ticks     int64 `json:"ticks"`
	// Messages/Bytes is the evaluation's honest-traffic delta.
	Messages uint64 `json:"messages"`
	Bytes    uint64 `json:"bytes"`
}

// EngineStats is the engine's cumulative amortization accounting.
type EngineStats struct {
	// Evaluations counts completed evaluations from both entry points
	// (Evaluate and EvaluateAsync); Batches counts pool fills, explicit
	// and background.
	Evaluations int `json:"evaluations"`
	Batches     int `json:"batches"`
	// TriplesGenerated / TriplesConsumed / TriplesAvailable account the
	// pool: Generated = Consumed + Available.
	TriplesGenerated int `json:"triplesGenerated"`
	TriplesConsumed  int `json:"triplesConsumed"`
	TriplesAvailable int `json:"triplesAvailable"`
	// Pool is the first honest party's full pool accounting (all honest
	// pools agree), including the in-flight-fill gauge — the depth
	// figure `scenario workload -json` and the checkpoint inspect verb
	// report without reaching into internals.
	Pool triples.PoolStats `json:"pool"`
	// PreprocessMessages/Bytes is the honest traffic of every pool
	// fill; EvalMessages/Bytes the honest traffic of every evaluation.
	// Their ratio against Evaluations is the amortization headline (see
	// the scenario `workload` verb). A sequential phase is accounted at
	// quiescence; a pipelined epoch or background fill is accounted, and
	// its namespace retired, the moment it completes, so late deliveries
	// to it are discarded and draw no replies. Either way the two figures
	// sum to every honest message the world recorded, as
	// TestEngineAttributesEveryHonestMessage checks.
	PreprocessMessages uint64 `json:"preprocessMessages"`
	PreprocessBytes    uint64 `json:"preprocessBytes"`
	EvalMessages       uint64 `json:"evalMessages"`
	EvalBytes          uint64 `json:"evalBytes"`
	// Retained is each party's retained runtime state (index 0 = party
	// 1): handlers, prefix factories, buffered paths and tombstone
	// entries. Retirement keeps it to the live phases' state; at
	// quiescence it is empty.
	Retained []proto.Retained `json:"retained"`
	// Events is the lifetime count of simulation events the engine's
	// world has executed, across preprocessing and every evaluation.
	Events uint64 `json:"events"`
	// Evals holds one latency/traffic summary per completed
	// evaluation, in completion order.
	Evals []EvalSummary `json:"evals,omitempty"`
}

// EngineOptions bundles everything orthogonal to the protocol Config
// that an engine can be assembled with. The zero value is an
// all-honest, untraced engine on the in-memory simulator.
type EngineOptions struct {
	// Adversary is the session's static adversary (nil = all honest).
	Adversary *Adversary
	// Tracer receives the full typed event stream (scheduler ticks,
	// sends/delivers, instance lifecycle, pool accounting, engine
	// phases); nil disables tracing. Tracing does not perturb the
	// simulation, and the stream is identical across backends for the
	// same seed.
	Tracer obs.Tracer
	// Transport selects the message-plane backend; nil means the
	// in-memory simulator.
	Transport *TransportSpec
}

// NewEngineOpts assembles a session engine. The engine world is
// deterministic in cfg.Seed across the whole session: the same sequence
// of Preprocess and Evaluate calls replays bit-for-bit. Engines over a
// real transport hold sockets and goroutines: callers must Close them
// (Close is a no-op for the simulator backend).
func NewEngineOpts(cfg Config, opts EngineOptions) (*Engine, error) {
	f, cleanup, err := opts.Transport.factory(cfg.N)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(cfg, opts.Adversary, opts.Tracer, f)
	if err != nil {
		if cleanup != nil {
			cleanup()
		}
		return nil, err
	}
	e.cleanup = cleanup
	return e, nil
}

// newEngine validates cfg and assembles the world shared by the session
// API and the one-shot RunOpts wrapper. factory selects the transport
// backend (nil = the in-memory simulator).
func newEngine(cfg Config, adv *Adversary, tr obs.Tracer, factory transport.Factory) (*Engine, error) {
	if cfg.Workers != 0 {
		return nil, fmt.Errorf("mpc: Config.Workers = %d is not supported: the simulator runs one serial event loop (leave it 0)", cfg.Workers)
	}
	pcfg := proto.Config{
		N: cfg.N, Ts: cfg.Ts, Ta: cfg.Ta,
		Delta:      sim.Time(cfg.Delta),
		CoinRounds: cfg.CoinRounds,
		SyncOnly:   cfg.SyncOnly,
	}
	if pcfg.Delta == 0 {
		pcfg.Delta = 10
	}
	if pcfg.CoinRounds == 0 {
		pcfg.CoinRounds = 8
	}
	if err := pcfg.Validate(); err != nil {
		return nil, err
	}
	var kind proto.NetKind
	switch cfg.Network {
	case Sync:
		kind = proto.Sync
	case Async:
		kind = proto.Async
	default:
		return nil, fmt.Errorf("mpc: unknown network %q", cfg.Network)
	}

	corrupt := adv.corrupt()
	if len(corrupt) > max(cfg.Ts, cfg.Ta) {
		return nil, fmt.Errorf("mpc: %d corruptions exceed max(ts, ta) = %d", len(corrupt), max(cfg.Ts, cfg.Ta))
	}
	// Behaviours stack via Compose: a party named in several adversary
	// fields runs all of them chained (e.g. silent-and-garbling stays
	// silent, crash-then-delay accumulates), instead of the last field
	// silently winning.
	ctrl := adversary.NewController()
	silent := map[int]bool{}
	if adv != nil {
		for _, p := range adv.Silent {
			ctrl.Compose(p, adversary.Silent())
			silent[p] = true
		}
		for _, p := range adv.Garble {
			ctrl.Compose(p, adversary.GarbleMatching(func(string) bool { return true }))
		}
		for p, t := range adv.CrashAt {
			ctrl.Compose(p, adversary.CrashAt(sim.Time(t)))
		}
		for p, sub := range adv.Drop {
			ctrl.Compose(p, adversary.DropMatching(adversary.InstanceContains(sub)))
		}
		for p, rule := range adv.Delay {
			ctrl.Compose(p, adversary.DelayMatching(adversary.InstanceContains(rule.Match), sim.Time(rule.Extra)))
		}
		half := cfg.N / 2
		for _, p := range adv.Equivocate {
			ctrl.Compose(p, adversary.Equivocate(func(to int) bool { return to > half }))
		}
	}
	var policy sim.Policy = sim.AsyncPolicy{Delta: pcfg.Delta, Tail: cfg.Tail}
	if kind == proto.Sync {
		policy = sim.SyncPolicy{Delta: pcfg.Delta}
	}
	if cfg.BurstPeriod > 0 {
		policy = sim.BurstPolicy{Base: policy, Period: sim.Time(cfg.BurstPeriod), Down: sim.Time(cfg.BurstDown)}
	}
	if adv != nil && len(adv.StarveFrom) > 0 {
		starved := map[int]bool{}
		for _, p := range adv.StarveFrom {
			starved[p] = true
		}
		until := sim.Time(adv.StarveUntil)
		if until == 0 {
			until = 500 * pcfg.Delta
		}
		policy = sim.StarvePolicy{Base: policy, Until: until,
			Starve: func(from, to int) bool { return starved[from] }}
	}

	limit := cfg.EventLimit
	if limit == 0 {
		limit = 200_000_000
	}
	w, err := proto.NewWorldE(proto.WorldOpts{
		Cfg:         pcfg,
		Network:     kind,
		Policy:      policy,
		Seed:        cfg.Seed,
		Corrupt:     corrupt,
		Interceptor: ctrl,
		EventLimit:  limit,
		Tracer:      tr,
		Transport:   factory,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTransport, err)
	}
	coin := aba.DefaultCoin(cfg.Seed ^ 0xc01c01)
	e := &Engine{
		cfg:    cfg,
		adv:    adv,
		pcfg:   pcfg,
		world:  w,
		coin:   coin,
		silent: silent,
		pools:  make([]*triples.Pool, cfg.N+1),
		tracer: tr,
	}
	for i := 1; i <= cfg.N; i++ {
		e.pools[i] = triples.NewPool(w.Runtimes[i], "pool", pcfg, coin)
	}
	return e, nil
}

// Preprocess runs one budgeted ΠPreProcessing batch across all parties
// and appends its triples to the engine's pool. The batch is rounded up
// to whole Fig 9 extractions, so the returned count — the triples
// actually generated — can exceed budget. Call it once up front with a
// budget covering the expected workload, and again only to refill after
// evaluations have drained the pool (a back-to-back second call returns
// ErrDoublePreprocess). Preprocess is the blocking form of the
// background refill: the same startFill, driven to quiescence and
// accounted there.
func (e *Engine) Preprocess(budget int) (int, error) {
	if budget < 1 {
		return 0, fmt.Errorf("mpc: Preprocess budget must be >= 1, have %d", budget)
	}
	if len(e.inflight) > 0 || e.refill != nil {
		return 0, ErrEvalsInFlight
	}
	if e.preprocessed && !e.evalSinceFill {
		return 0, ErrDoublePreprocess
	}
	e.busy = "Preprocess"
	defer func() { e.busy = "" }()
	e.drainIdle()
	fs, got, err := e.startFill("preprocess", budget, nil)
	if err != nil {
		return 0, err
	}
	e.world.RunToQuiescence()
	if err := e.transportCheck(); err != nil {
		return 0, err
	}
	for _, i := range e.world.Honest() {
		if e.pools[i].Filling() {
			return 0, fmt.Errorf("mpc: preprocessing batch incomplete after %d events (raise Config.EventLimit)",
				e.world.Sched.Processed())
		}
	}
	e.preprocessed = true
	e.evalSinceFill = false
	e.landFill(fs)
	return got, nil
}

// trace emits an engine lifecycle event (a phase boundary, an epoch
// retirement, a pipeline-depth point); a no-op when tracing is off.
func (e *Engine) trace(kind obs.Kind, name string, a, b int64) {
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{
			Kind: kind, Tick: int64(e.world.Sched.Now()), Inst: name, A: a, B: b,
		})
	}
}

// Available returns the number of unconsumed pool triples: the minimum
// across the honest parties' pools, so the exhaustion pre-check agrees
// with the reserve that would actually fail. (Honest pools agree in
// every normal run; they can diverge after restoring a snapshot taken
// with a party mid-fill, which is exactly when the first honest pool
// alone would over-report.)
func (e *Engine) Available() int {
	have := -1
	for _, i := range e.world.Honest() {
		if a := e.pools[i].Available(); have < 0 || a < have {
			have = a
		}
	}
	if have < 0 {
		return 0
	}
	return have
}

// Evaluations returns the number of completed evaluations, from
// Evaluate and EvaluateAsync alike.
func (e *Engine) Evaluations() int { return e.evals }

// Stats returns the engine's cumulative amortization accounting.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{
		Evaluations:        e.evals,
		PreprocessMessages: e.ppMsgs,
		PreprocessBytes:    e.ppBytes,
		EvalMessages:       e.evalMsgs,
		EvalBytes:          e.evalBytes,
		Events:             e.world.Sched.Processed(),
		Evals:              append([]EvalSummary(nil), e.evalSummaries...),
		Retained:           make([]proto.Retained, e.cfg.N),
	}
	for i := 1; i <= e.cfg.N; i++ {
		s.Retained[i-1] = e.world.Runtimes[i].Retained()
	}
	for _, i := range e.world.Honest() {
		ps := e.pools[i].Stats()
		s.Pool = ps
		s.Batches = ps.Batches
		s.TriplesGenerated = ps.Generated
		s.TriplesConsumed = ps.Reserved
		s.TriplesAvailable = ps.Available
		break
	}
	return s
}

// Evaluate runs one circuit evaluation as a session epoch: it reserves
// circ.MulCount pool triples per party, shares the parties' inputs
// through a fresh ΠACS, evaluates the circuit with the batched online
// phase (or the per-gate reference under Config.PerGateEval), publicly
// reconstructs the outputs, and retires the epoch's instance namespace.
// The Result's traffic/event figures are this evaluation's own (its
// epoch namespace's traffic, the events its drive ran), so they
// compare directly against a one-shot RunOpts of the same circuit.
//
// Evaluate is the blocking form of EvaluateAsync: the same submission,
// driven to quiescence and finalized there, so the epoch's figures also
// count honest traffic sent after its last honest termination.
//
// On ErrTriplesExhausted nothing has been consumed and the engine
// remains fully usable: Preprocess a refill and call Evaluate again.
func (e *Engine) Evaluate(circ *circuit.Circuit, inputs []field.Element) (*Result, error) {
	if err := e.checkEval(circ, inputs); err != nil {
		return nil, err
	}
	if len(e.inflight) > 0 || e.refill != nil {
		return nil, ErrEvalsInFlight
	}
	if have := e.Available(); circ.MulCount > have {
		// An evaluation tried (and failed) to consume the pool: that
		// re-arms Preprocess, so the documented recovery — refill and
		// retry — is never blocked by the double-Preprocess guard.
		e.evalSinceFill = true
		return nil, fmt.Errorf("mpc: evaluation needs %d triples, pool holds %d: %w", circ.MulCount, have, ErrTriplesExhausted)
	}

	e.busy = "Evaluate"
	defer func() { e.busy = "" }()
	e.drainIdle()
	events0 := e.world.Sched.Processed()
	p, err := e.submit(circ, inputs, nil)
	if err != nil {
		return nil, err
	}
	e.world.RunToQuiescence()
	if err := e.transportCheck(); err != nil {
		return nil, err
	}
	e.finalize(p)
	p.res.Events = e.world.Sched.Processed() - events0
	return e.collect(p.res, p.engines)
}

// checkEval rejects an evaluation request the engine cannot serve at
// all, before either entry point touches the pool or the scheduler.
func (e *Engine) checkEval(circ *circuit.Circuit, inputs []field.Element) error {
	if !e.preprocessed {
		return ErrNotPreprocessed
	}
	if len(inputs) != e.cfg.N {
		return fmt.Errorf("mpc: %d inputs for %d parties", len(inputs), e.cfg.N)
	}
	if circ.N != e.cfg.N {
		return fmt.Errorf("mpc: circuit has %d input slots, engine has %d parties", circ.N, e.cfg.N)
	}
	return nil
}

// reserveAll reserves k triples from every party's pool for one
// evaluation. A corrupt party whose own pool cannot serve the request
// (e.g. its fill never completed on a sabotaged world, or its restored
// pool is short) gets zero-share stand-ins: its traffic is adversarial
// anyway, and honest liveness/correctness never depends on it. An
// honest party's failure is a real exhaustion: every sibling
// reservation already taken is released — the pools come back exactly
// as they were — and the typed error surfaces so the caller refills
// and retries instead of silently evaluating an honest party on zeroed
// triples.
func (e *Engine) reserveAll(k int) ([][]triples.Triple, error) {
	reserved := make([][]triples.Triple, e.cfg.N+1)
	taken := make([]*triples.Reservation, 0, e.cfg.N)
	for i := 1; i <= e.cfg.N; i++ {
		r, err := e.pools[i].Reserve(k)
		if err == nil {
			reserved[i] = r.Triples()
			taken = append(taken, r)
			continue
		}
		if e.world.IsCorrupt(i) {
			reserved[i] = make([]triples.Triple, k)
			continue
		}
		for _, rr := range taken {
			rr.Release()
		}
		return nil, fmt.Errorf("mpc: honest party %d's pool cannot serve %d triples (%v): %w", i, k, err, ErrTriplesExhausted)
	}
	return reserved, nil
}

// gridStart returns the structural anchor of the next session phase:
// the smallest multiple of Δ at or after the current virtual time. The
// paper's synchronous sub-protocols advance on the absolute Δ-grid
// (vss/wps gridNext), so a phase anchored off-grid would silently lose
// up to Δ-1 ticks of deadline slack — enough to break boundary-tight
// adversarial runs. Every pool fill and every evaluation therefore
// begins on the grid, like round k of a round-based protocol.
func (e *Engine) gridStart() sim.Time {
	now := e.world.Sched.Now()
	d := e.pcfg.Delta
	return ((now + d - 1) / d) * d
}

// OneShot runs the full ΠCirEval once — input ACS and per-evaluation
// ΠPreProcessing together, at instance "mpc", time 0 — the method
// behind RunOpts. It must be the freshly assembled engine's first and
// only protocol activity: the one-shot phase owns the whole "mpc"
// instance namespace with no epoch bookkeeping, so it cannot be mixed
// with the Preprocess/Evaluate session lifecycle. Prefer RunOpts; this
// exists for harnesses that need the engine handle afterwards (wire
// stats, resolved transport addresses).
func (e *Engine) OneShot(circ *circuit.Circuit, inputs []field.Element) (*Result, error) {
	if e.preprocessed || e.evals > 0 || e.oneShot {
		return nil, errors.New("mpc: OneShot on a used engine (it must be a fresh engine's only activity)")
	}
	if len(inputs) != e.cfg.N {
		return nil, fmt.Errorf("mpc: %d inputs for %d parties", len(inputs), e.cfg.N)
	}
	e.oneShot = true
	e.busy = "OneShot"
	defer func() { e.busy = "" }()
	w := e.world
	res := &Result{
		PerParty:      make([][]field.Element, e.cfg.N+1),
		TerminatedAt:  make([]int64, e.cfg.N+1),
		Deadline:      int64(core.Deadline(e.pcfg, circ.MulDepth)),
		PaperDeadline: int64(core.PaperDeadline(e.pcfg, circ.MulDepth)),
	}
	mode := core.EvalLayered
	if e.cfg.PerGateEval {
		mode = core.EvalPerGate
	}
	engines := make([]*core.CirEval, e.cfg.N+1)
	for i := 1; i <= e.cfg.N; i++ {
		i := i
		engines[i] = core.NewWithMode(w.Runtimes[i], "mpc", circ, e.pcfg, e.coin, 0, mode, func(out []field.Element) {
			res.PerParty[i] = out
			res.TerminatedAt[i] = int64(w.Sched.Now())
		})
	}
	begin := int64(w.Sched.Now())
	e.trace(obs.KPhaseBegin, "run", 0, 0)
	for i := 1; i <= e.cfg.N; i++ {
		if e.silent[i] {
			continue
		}
		engines[i].Start(inputs[i-1])
	}
	w.RunToQuiescence()
	if err := e.transportCheck(); err != nil {
		return nil, err
	}

	snap := w.Metrics().Snapshot()
	e.trace(obs.KPhaseEnd, "run", int64(w.Sched.Now())-begin, int64(snap.Honest.Messages))
	res.HonestMessages = snap.Honest.Messages
	res.HonestBytes = snap.Honest.Bytes
	res.ByFamily = make(map[string]FamilyCounts, len(snap.ByFamily))
	for fam, c := range snap.ByFamily {
		res.ByFamily[fam] = FamilyCounts{Messages: c.Messages, Bytes: c.Bytes}
	}
	res.Events = w.Sched.Processed()
	return e.collect(res, engines)
}

// collect extracts the agreed outputs from the honest parties'
// terminated engines, verifying honest agreement.
func (e *Engine) collect(res *Result, engines []*core.CirEval) (*Result, error) {
	for i := 1; i <= e.cfg.N; i++ {
		if e.world.IsCorrupt(i) || res.PerParty[i] == nil {
			continue
		}
		if res.Outputs == nil {
			res.Outputs = res.PerParty[i]
			res.CS = engines[i].CS()
			continue
		}
		for k := range res.Outputs {
			if res.Outputs[k] != res.PerParty[i][k] {
				return res, ErrDisagreement
			}
		}
	}
	if res.Outputs == nil {
		return res, ErrNoHonestOutput
	}
	return res, nil
}
