package mpc

// The engine's one epoch and fill lifecycle: submit → drive → finalize
// → retire. submit registers an evaluation's sessions without draining
// the scheduler, so several epochs advance interleaved on the engine's
// single deterministic event loop — concurrency as interleaving under
// one scheduler, never threads. startFill does the same for a pool
// batch. EvaluateAsync and the background refill finalize at the
// moment the work completes (the last honest termination, the last
// honest batch landing); Evaluate and Preprocess are their blocking
// forms: the same submission, driven to quiescence and finalized
// there. Each epoch lives in its own "mpc/e<k>" namespace and every
// fill in its own "pool/b<k>" batch namespace; a metrics prefix
// tracker on that namespace is the only traffic attribution, for
// overlapped and sequential phases alike. The point that accounts a
// phase also retires its namespace on every party (Runtime.DropPrefix),
// so a long-lived engine holds the state of its live phases only: an
// epoch retires in finalize, a batch when its fill lands. Deliveries
// still in flight for a retired namespace hit its tombstone and are
// discarded.
//
// The pipelined tail: a pipelined epoch is accounted and retired at its
// last honest termination. On an asynchronous network agreement and
// broadcast instances are still settling then; their late deliveries
// hit the tombstone and draw no replies, so no honest traffic is sent
// under the namespace after its tracker detached, and the preprocess
// and evaluation figures sum to the world's honest traffic. A
// sequential Evaluate retires at quiescence instead, after those
// replies, which it counts.
//
// Determinism guarantee, precisely: a pipelined engine produces
// bit-identical outputs and CS sets to the sequential engine on the
// same seed at every depth, and at depth 1 (no overlap) the per-epoch
// traffic and tick spans are bit-identical too. At depth > 1 the
// per-epoch traffic and spans sit within a sub-percent noise band of
// the sequential figures, not exactly on them: parties draw sharing
// polynomials and coins from one per-party PRNG stream, and the
// network draws per-message jitter from one delay stream, both in
// global event order — overlapping epochs permute those draws. The
// permutation changes share values and delivery ticks, never protocol
// outcomes: reconstruction cancels the sharing randomness exactly, so
// outputs and CS votes are invariant. (The streams stay shared on
// purpose — the delay stream models one global adversarial scheduler,
// not per-epoch networks.) The differential gate in pipeline_test.go
// pins all of this. What pipelining buys is wall-clock occupancy: N
// in-flight epochs share the Δ-grid instead of queueing behind one
// another, an ~N-fold span reduction.

import (
	"fmt"

	"repro/circuit"
	"repro/field"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// PendingEval is one in-flight pipelined evaluation: a handle returned
// by EvaluateAsync whose Wait drives the shared scheduler until this
// epoch terminates and returns its Result. The handle is single-owner
// and not safe for concurrent use (like the Engine itself).
type PendingEval struct {
	e     *Engine
	epoch int
	inst  string
	// mulCount is the triple reservation the epoch consumed.
	mulCount int
	// begin is the submit tick (phase-span bookkeeping).
	begin   int64
	res     *Result
	engines []*core.CirEval
	// trk attributes honest traffic under the epoch's namespace.
	trk *sim.PrefixCounter
	// remaining counts honest parties that have not terminated yet;
	// submit's finalizer, if any, fires when it reaches zero.
	remaining int
	// done marks the evaluation finalized (accounting recorded, handle
	// off the in-flight list); finalRes is set by Wait's one-time
	// output verification.
	done     bool
	finalRes *Result
	err      error
}

// Epoch returns the evaluation's session epoch sequence number.
func (p *PendingEval) Epoch() int { return p.epoch }

// Done reports whether the evaluation has completed (Wait will return
// without driving the scheduler).
func (p *PendingEval) Done() bool { return p.done }

// fillState tracks one pool fill batch across all parties.
type fillState struct {
	// phase is the traced phase name ("preprocess" or "refill").
	phase string
	// inst is the batch namespace ("pool/b<k>"), retired on landing.
	inst  string
	trk   *sim.PrefixCounter
	begin int64
	// remaining counts honest pools whose batch has not landed.
	remaining int
}

// EvaluateAsync submits a circuit evaluation as a pipelined epoch and
// returns immediately: the epoch's sessions are registered and its
// grid-anchored start is scheduled, but no event runs until Wait,
// Flush, or a sibling submission drives the shared scheduler. Up to
// the caller's chosen depth, multiple pending evaluations overlap on
// one World — outputs stay bit-identical to sequential Evaluate calls
// on the same seed under the synchronous policy (see the package
// pipelining notes).
//
// If the pool cannot serve the reservation, the engine refills before
// submitting: with Config.RefillLowWater armed it overlaps a
// background ΠPreProcessing fill with the live epochs (stalling this
// submission only until the batch lands, while in-flight evaluations
// keep advancing); without it the typed ErrTriplesExhausted surfaces
// exactly as on the sequential path. Independently, a submission that
// leaves the pool below the low-water mark triggers the next
// background refill so later submissions do not stall at all.
func (e *Engine) EvaluateAsync(circ *circuit.Circuit, inputs []field.Element) (*PendingEval, error) {
	if err := e.checkEval(circ, inputs); err != nil {
		return nil, err
	}
	if err := e.ensureTriples(circ.MulCount); err != nil {
		return nil, err
	}
	// Watermark check before reserving (the decision is the same — the
	// reserve is about to subtract MulCount — and failure atomicity is
	// cleaner with no reservation taken yet).
	if lw := e.cfg.RefillLowWater; lw > 0 && e.refill == nil && e.Available()-circ.MulCount < lw {
		if err := e.startRefill(0); err != nil {
			return nil, err
		}
	}
	p, err := e.submit(circ, inputs, e.complete)
	if err != nil {
		return nil, err
	}
	e.inflight = append(e.inflight, p)
	e.trace(obs.KPipelineDepth, "pipeline", int64(len(e.inflight)), int64(p.epoch))
	return p, nil
}

// submit reserves the circuit's triples and registers one evaluation
// as a fresh session epoch: its sessions, their grid-anchored start
// events and the epoch's traffic tracker. Nothing runs until the
// caller drives the scheduler. onDone, when non-nil, finalizes the
// epoch from its last honest termination callback; with a nil onDone
// the caller finalizes (Evaluate does so at quiescence).
func (e *Engine) submit(circ *circuit.Circuit, inputs []field.Element, onDone func(*PendingEval)) (*PendingEval, error) {
	reserved, err := e.reserveAll(circ.MulCount)
	if err != nil {
		e.evalSinceFill = true
		return nil, err
	}

	w := e.world
	epoch := w.BeginEpoch()
	inst := epoch.Namespace("mpc")
	start := e.gridStart()
	res := &Result{
		PerParty:      make([][]field.Element, e.cfg.N+1),
		TerminatedAt:  make([]int64, e.cfg.N+1),
		StartedAt:     int64(start),
		Deadline:      int64(start + core.SessionDeadline(e.pcfg, circ.MulDepth)),
		PaperDeadline: int64(start + core.PaperDeadline(e.pcfg, circ.MulDepth)),
	}
	mode := core.EvalLayered
	if e.cfg.PerGateEval {
		mode = core.EvalPerGate
	}
	p := &PendingEval{
		e:        e,
		epoch:    epoch.Seq(),
		inst:     inst,
		mulCount: circ.MulCount,
		begin:    int64(w.Sched.Now()),
		res:      res,
		engines:  make([]*core.CirEval, e.cfg.N+1),
		trk:      w.Metrics().Track(inst),
	}
	for i := 1; i <= e.cfg.N; i++ {
		i := i
		honest := !w.IsCorrupt(i)
		if honest {
			p.remaining++
		}
		p.engines[i] = core.NewSession(w.Runtimes[i], inst, circ, e.pcfg, e.coin, start, mode, reserved[i],
			func(out []field.Element) {
				res.PerParty[i] = out
				res.TerminatedAt[i] = int64(w.Sched.Now())
				if honest {
					p.remaining--
					if p.remaining == 0 && onDone != nil {
						onDone(p)
					}
				}
			})
	}
	for i := 1; i <= e.cfg.N; i++ {
		if e.silent[i] {
			continue
		}
		i := i
		w.Runtimes[i].At(start, func() { p.engines[i].Start(inputs[i-1]) })
	}
	e.evalSinceFill = true
	e.trace(obs.KPhaseBegin, "evaluate", int64(p.epoch), 0)
	return p, nil
}

// Wait drives the shared scheduler until this evaluation completes —
// advancing every in-flight sibling epoch (and any background refill)
// along the way — then verifies honest agreement and returns the
// Result. If the scheduler drains or hits the event limit first, the
// evaluation is finalized with whatever terminations it reached, and
// collection reports ErrNoHonestOutput/ErrDisagreement exactly as the
// sequential path would. Wait is idempotent: later calls return the
// same Result without driving anything.
//
// Result caveats under overlap: Events is 0 (simulation events cannot
// be attributed to one epoch once several interleave), and
// HonestMessages/Bytes/ByFamily come from the epoch's namespace
// tracker as of its last honest termination. Under the synchronous
// policy these equal the sequential engine's per-evaluation figures;
// on an asynchronous network they lack the replies to late deliveries
// that a sequential Evaluate counts, because the retired epoch never
// sends them (see the package pipelining notes).
func (p *PendingEval) Wait() (*Result, error) {
	e := p.e
	// Tick-granular polling: completion is only observed at tick
	// boundaries, so the next submission point — and with it every later
	// sequence number and RNG draw — never depends on where inside a
	// tick the completing event ran.
	for !p.done && e.world.StepTick() {
	}
	// A no-op after full termination. On quiescence (or the event
	// limit) without it, finalize with the terminations reached, like a
	// sequential Evaluate whose RunToQuiescence returned early.
	e.complete(p)
	if err := e.transportCheck(); err != nil {
		return nil, err
	}
	if p.finalRes == nil {
		p.finalRes, p.err = e.collect(p.res, p.engines)
	}
	return p.finalRes, p.err
}

// InFlight returns the number of submitted evaluations that have not
// completed.
func (e *Engine) InFlight() int { return len(e.inflight) }

// Flush drives the scheduler to quiescence, finalizing every in-flight
// evaluation (their Waits return without further stepping) and landing
// any background refill. It errors if the event limit cut the drain
// short. Flush is the pipelined counterpart of the quiescence every
// sequential call ends with; Snapshot and sequential
// Evaluate/Preprocess require it after pipelined activity.
func (e *Engine) Flush() error {
	e.world.RunToQuiescence()
	if err := e.transportCheck(); err != nil {
		return err
	}
	for len(e.inflight) > 0 {
		e.complete(e.inflight[0])
	}
	if n := e.world.Sched.Pending(); n > 0 {
		return fmt.Errorf("mpc: pipeline incomplete after %d events with %d still pending (raise Config.EventLimit)",
			e.world.Sched.Processed(), n)
	}
	return nil
}

// finalize records one evaluation's accounting from its epoch tracker,
// detaches the tracker and retires the epoch's namespace. Idempotent.
func (e *Engine) finalize(p *PendingEval) {
	if p.done {
		return
	}
	p.done = true
	res := p.res
	res.HonestMessages = p.trk.Messages
	res.HonestBytes = p.trk.Bytes
	res.ByFamily = make(map[string]FamilyCounts, 1)
	if !p.trk.IsZero() {
		res.ByFamily["mpc"] = FamilyCounts{Messages: p.trk.Messages, Bytes: p.trk.Bytes}
	}
	e.world.Metrics().Untrack(p.trk)

	e.evals++
	e.evalMsgs += res.HonestMessages
	e.evalBytes += res.HonestBytes
	end := res.StartedAt
	for i, t := range res.TerminatedAt {
		if i >= 1 && !e.world.IsCorrupt(i) && t > end {
			end = t
		}
	}
	e.evalSummaries = append(e.evalSummaries, EvalSummary{
		Epoch:     p.epoch,
		Triples:   p.mulCount,
		StartTick: res.StartedAt,
		EndTick:   end,
		Ticks:     end - res.StartedAt,
		Messages:  res.HonestMessages,
		Bytes:     res.HonestBytes,
	})
	e.trace(obs.KPhaseEnd, "evaluate", int64(e.world.Sched.Now())-p.begin, int64(res.HonestMessages))
	e.retire(p.inst)
	e.trace(obs.KEpochRetire, p.inst, int64(p.epoch), 0)
}

// complete is the pipelined finalizer: finalize, then take the handle
// off the in-flight list and record the depth gauge. Called from the
// last honest termination callback in the normal case, or from
// Wait/Flush when the scheduler drained without it. Idempotent.
func (e *Engine) complete(p *PendingEval) {
	if p.done {
		return
	}
	e.finalize(p)
	for k, q := range e.inflight {
		if q == p {
			e.inflight = append(e.inflight[:k], e.inflight[k+1:]...)
			break
		}
	}
	e.trace(obs.KPipelineDepth, "pipeline", int64(len(e.inflight)), int64(p.epoch))
}

// retire drops a finished namespace on every party's runtime (corrupt
// ones included: their handlers are protocol state all the same).
func (e *Engine) retire(ns string) {
	for i := 1; i <= e.cfg.N; i++ {
		e.world.Runtimes[i].DropPrefix(ns)
	}
}

// drainIdle runs cross-epoch leftovers — timers of completed pipelined
// epochs — to quiescence before a sequential phase, so the phase starts
// from an empty scheduler and its own quiescence drain runs only its
// own events. A no-op on a purely sequential engine.
func (e *Engine) drainIdle() {
	if e.world.Sched.Pending() > 0 {
		e.world.RunToQuiescence()
	}
}

// ensureTriples blocks a submission until the pool can serve k
// triples. With a refill already in flight it single-steps the shared
// scheduler — in-flight evaluations keep advancing while the batch
// lands, which is the latency hiding the pipeline exists for. With the
// watermark armed it starts the refill itself; otherwise it surfaces
// the same typed exhaustion error as the sequential path.
func (e *Engine) ensureTriples(k int) error {
	for {
		have := e.Available()
		if have >= k {
			return nil
		}
		if e.refill != nil {
			if !e.world.StepTick() {
				return fmt.Errorf("mpc: background refill incomplete after %d events (raise Config.EventLimit)",
					e.world.Sched.Processed())
			}
			continue
		}
		if e.cfg.RefillLowWater > 0 {
			if err := e.startRefill(k - have); err != nil {
				return err
			}
			continue
		}
		e.evalSinceFill = true
		return fmt.Errorf("mpc: evaluation needs %d triples, pool holds %d: %w", k, have, ErrTriplesExhausted)
	}
}

// startRefill launches one background ΠPreProcessing fill across all
// pools without draining the scheduler: the batch's protocol events
// interleave with the live online phases, and refillLanded folds its
// traffic into the engine's Preprocess accounting when the last honest
// batch lands.
func (e *Engine) startRefill(minNeed int) error {
	budget := e.cfg.RefillBudget
	if budget <= 0 {
		budget = e.cfg.RefillLowWater
	}
	fs, _, err := e.startFill("refill", max(budget, minNeed, 1), e.refillLanded)
	if err != nil {
		return err
	}
	e.refill = fs
	return nil
}

// startFill launches one ΠPreProcessing batch across all pools, traced
// as the named phase, and returns it with the batch size. The batch's
// honest traffic is attributed by a tracker on its "pool/b<k>"
// namespace. landed,
// when non-nil, runs at every honest pool's batch completion; with a
// nil landed the caller accounts the fill itself (Preprocess does so
// at quiescence). A corrupt party's pool that refuses to fill (a
// restored never-completing batch keeps its fill-in-flight marker
// forever) is skipped: the batch protocol is ts-robust against its
// absence, and reserveAll gives that party stand-ins.
func (e *Engine) startFill(phase string, budget int, landed func(*fillState)) (*fillState, int, error) {
	for _, i := range e.world.Honest() {
		if e.pools[i].Filling() {
			return nil, 0, fmt.Errorf("mpc: honest party %d already has a fill in flight", i)
		}
	}
	seq := int64(e.ppCalls)
	e.ppCalls++
	e.trace(obs.KPhaseBegin, phase, seq, 0)
	// Honest pools fill in lockstep, so they agree on the batch
	// namespace; a corrupt pool stuck on an older batch skips this one.
	inst := e.pools[e.world.Honest()[0]].NextBatch()
	fs := &fillState{
		phase: phase,
		inst:  inst,
		trk:   e.world.Metrics().Track(inst),
		begin: int64(e.world.Sched.Now()),
	}
	start := e.gridStart()
	size := 0
	for i := 1; i <= e.cfg.N; i++ {
		honest := !e.world.IsCorrupt(i)
		var onDone func(int)
		if honest {
			fs.remaining++
			if landed != nil {
				onDone = func(int) { landed(fs) }
			}
		}
		got, err := e.pools[i].Fill(budget, start, !e.silent[i], onDone)
		if err != nil {
			if !honest {
				continue
			}
			e.world.Metrics().Untrack(fs.trk)
			return nil, 0, err
		}
		size = got
	}
	return fs, size, nil
}

// refillLanded fires per honest pool batch completion of a background
// refill; the last one lands the fill.
func (e *Engine) refillLanded(fs *fillState) {
	fs.remaining--
	if fs.remaining > 0 || e.refill != fs {
		return
	}
	e.refill = nil
	e.preprocessed = true
	e.landFill(fs)
}

// landFill folds a completed fill's traffic into the preprocessing
// totals, detaches its tracker, closes the phase span and retires the
// batch namespace: its triples are in the pools, and nothing else of
// it is needed.
func (e *Engine) landFill(fs *fillState) {
	e.ppMsgs += fs.trk.Messages
	e.ppBytes += fs.trk.Bytes
	e.world.Metrics().Untrack(fs.trk)
	e.trace(obs.KPhaseEnd, fs.phase, int64(e.world.Sched.Now())-fs.begin, int64(fs.trk.Messages))
	e.retire(fs.inst)
}

// Refilling reports whether a watermark-triggered background fill is
// in flight.
func (e *Engine) Refilling() bool { return e.refill != nil }
