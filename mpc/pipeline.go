package mpc

// Concurrent epoch pipelining: EvaluateAsync submits an evaluation
// without draining the scheduler, so several epochs advance interleaved
// on the engine's single deterministic event loop — concurrency as
// interleaving under one scheduler, never threads. Each epoch lives in
// its own "mpc/e<k>" namespace; per-epoch traffic is attributed by a
// metrics prefix tracker instead of before/after deltas (which stop
// being meaningful once epochs overlap); namespace retirement is
// deferred to the next quiescence point so in-flight deliveries of a
// completed sibling are never re-buffered as strays.
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
	// completion fires when it reaches zero.
	remaining int
	// done marks the evaluation finalized (accounting recorded, handle
	// off the in-flight list); collected marks Wait's one-time output
	// verification done.
	done      bool
	collected bool
	finalRes  *Result
	err       error
}

// Epoch returns the evaluation's session epoch sequence number.
func (p *PendingEval) Epoch() int { return p.epoch }

// Done reports whether the evaluation has completed (Wait will return
// without driving the scheduler).
func (p *PendingEval) Done() bool { return p.done }

// refillState tracks one watermark-triggered background fill.
type refillState struct {
	trk   *sim.PrefixCounter
	begin int64
	// remaining counts honest pools whose batch has not landed.
	remaining int
}

// retiredEpoch queues a completed epoch's namespace for deferred
// retirement.
type retiredEpoch struct {
	inst string
	seq  int
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
	if !e.preprocessed {
		return nil, ErrNotPreprocessed
	}
	if len(inputs) != e.cfg.N {
		return nil, fmt.Errorf("mpc: %d inputs for %d parties", len(inputs), e.cfg.N)
	}
	if circ.N != e.cfg.N {
		return nil, fmt.Errorf("mpc: circuit has %d input slots, engine has %d parties", circ.N, e.cfg.N)
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
					if p.remaining == 0 {
						e.complete(p)
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
	e.inflight = append(e.inflight, p)
	e.evalSinceFill = true
	e.tracePhase(obs.KPhaseBegin, "evaluate", int64(p.epoch), 0)
	e.tracePipeline(int64(p.epoch))
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
// tracker — under the synchronous policy these equal the sequential
// engine's per-evaluation deltas.
func (p *PendingEval) Wait() (*Result, error) {
	e := p.e
	// Tick-granular polling: completion is only observed at tick
	// boundaries, so the next submission point — and with it every later
	// sequence number and RNG draw — never depends on where inside a
	// tick the completing event ran.
	for !p.done && e.world.StepTick() {
	}
	if !p.done {
		// Quiescence (or the event limit) without full termination:
		// finalize with the terminations reached, like a sequential
		// Evaluate whose RunToQuiescence returned early.
		e.complete(p)
	}
	if err := e.transportCheck(); err != nil {
		return nil, err
	}
	e.retireQuiesced()
	if !p.collected {
		p.collected = true
		p.finalRes, p.err = e.collect(p.res, p.engines)
	}
	return p.finalRes, p.err
}

// InFlight returns the number of submitted evaluations that have not
// completed.
func (e *Engine) InFlight() int { return len(e.inflight) }

// Flush drives the scheduler to quiescence, finalizing every in-flight
// evaluation (their Waits return without further stepping) and landing
// any background refill, then retires completed epoch namespaces. It
// errors if the event limit cut the drain short. Flush is the
// pipelined counterpart of the quiescence every sequential call ends
// with; Snapshot and sequential Evaluate/Preprocess require it after
// pipelined activity.
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
	e.retireQuiesced()
	return nil
}

// complete finalizes one evaluation: records its accounting from the
// epoch tracker, detaches the tracker, queues the namespace for
// retirement and removes the handle from the in-flight list. Called
// from the last honest termination callback in the normal case, or
// from Wait/Flush when the scheduler drained without it. Idempotent.
func (e *Engine) complete(p *PendingEval) {
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
	e.retired = append(e.retired, retiredEpoch{inst: p.inst, seq: p.epoch})
	for k, q := range e.inflight {
		if q == p {
			e.inflight = append(e.inflight[:k], e.inflight[k+1:]...)
			break
		}
	}
	e.tracePhase(obs.KPhaseEnd, "evaluate", int64(e.world.Sched.Now())-p.begin, int64(res.HonestMessages))
	e.tracePipeline(int64(p.epoch))
}

// retireQuiesced drops the namespaces of completed epochs once the
// scheduler is empty. Dropping earlier would re-buffer in-flight
// deliveries still addressed to a completed epoch (stray build-up the
// flood cap eventually trips); at quiescence nothing is in flight, so
// handlers and any buffered stragglers go together.
func (e *Engine) retireQuiesced() {
	if len(e.retired) == 0 || e.world.Sched.Pending() > 0 {
		return
	}
	for _, r := range e.retired {
		for i := 1; i <= e.cfg.N; i++ {
			e.world.Runtimes[i].DropPrefix(r.inst)
		}
		if e.tracer != nil {
			e.tracer.Emit(obs.Event{
				Kind: obs.KEpochRetire, Tick: int64(e.world.Sched.Now()), Inst: r.inst, A: int64(r.seq),
			})
		}
	}
	e.retired = nil
}

// drainIdle clears cross-epoch leftovers before a sequential phase:
// deferred timers of completed pipelined epochs run to quiescence and
// retired namespaces drop, so the phase's before/after delta
// accounting starts from a clean scheduler. A no-op on a purely
// sequential engine.
func (e *Engine) drainIdle() {
	if e.world.Sched.Pending() > 0 {
		e.world.RunToQuiescence()
	}
	e.retireQuiesced()
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
// interleave with the live online phases. Its honest traffic is
// attributed to preprocessing via a "pool" namespace tracker and folded
// into the engine's Preprocess accounting when the last honest batch
// lands. A corrupt party's pool that refuses to fill (a restored
// never-completing batch keeps its fill-in-flight marker forever) is
// skipped: the batch protocol is ts-robust against its absence, and
// reserveAll gives that party stand-ins.
func (e *Engine) startRefill(minNeed int) error {
	budget := e.cfg.RefillBudget
	if budget <= 0 {
		budget = e.cfg.RefillLowWater
	}
	if budget < minNeed {
		budget = minNeed
	}
	if budget < 1 {
		budget = 1
	}
	for _, i := range e.world.Honest() {
		if e.pools[i].Filling() {
			return fmt.Errorf("mpc: honest party %d already has a fill in flight", i)
		}
	}
	seq := int64(e.ppCalls)
	e.ppCalls++
	e.tracePhase(obs.KPhaseBegin, "refill", seq, 0)
	rs := &refillState{
		trk:   e.world.Metrics().Track("pool"),
		begin: int64(e.world.Sched.Now()),
	}
	start := e.gridStart()
	for i := 1; i <= e.cfg.N; i++ {
		honest := !e.world.IsCorrupt(i)
		var onDone func(int)
		if honest {
			rs.remaining++
			onDone = func(int) { e.refillLanded(rs) }
		}
		if _, err := e.pools[i].Fill(budget, start, !e.silent[i], onDone); err != nil {
			if !honest {
				continue
			}
			e.world.Metrics().Untrack(rs.trk)
			return err
		}
	}
	e.refill = rs
	return nil
}

// refillLanded fires per honest pool batch completion; the last one
// folds the refill's traffic into the preprocessing totals and closes
// the overlap span.
func (e *Engine) refillLanded(rs *refillState) {
	rs.remaining--
	if rs.remaining > 0 || e.refill != rs {
		return
	}
	e.refill = nil
	e.preprocessed = true
	e.ppMsgs += rs.trk.Messages
	e.ppBytes += rs.trk.Bytes
	e.world.Metrics().Untrack(rs.trk)
	e.tracePhase(obs.KPhaseEnd, "refill", int64(e.world.Sched.Now())-rs.begin, int64(rs.trk.Messages))
}

// Refilling reports whether a watermark-triggered background fill is
// in flight.
func (e *Engine) Refilling() bool { return e.refill != nil }

// tracePipeline emits the pipeline-occupancy gauge point after a
// submit or completion changed the in-flight count.
func (e *Engine) tracePipeline(epochSeq int64) {
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{
			Kind: obs.KPipelineDepth, Tick: int64(e.world.Sched.Now()),
			Inst: "pipeline", A: int64(len(e.inflight)), B: epochSeq,
		})
	}
}
