package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/triples"
	"repro/mpc"
)

// WorkloadSpec is the session-engine section of a manifest: one
// mpc.Engine is built from the manifest's parties/network/adversary,
// preprocesses Budget triples once, and then serves the Steps'
// evaluations in sequence — the amortized offline/online split the
// paper's ΠPreProcessing exists for, measured end to end.
type WorkloadSpec struct {
	// Budget is the number of triples the engine preprocesses up front;
	// 0 derives it from the steps (the sum of their multiplication
	// counts). The pool rounds the budget up to whole extraction
	// batches, so refills are only needed when a budget is set smaller
	// than the workload consumes.
	Budget int `json:"budget,omitempty"`
	// Pipeline is the serving depth: 0 (the default) serves the steps
	// strictly in sequence with Engine.Evaluate; k >= 1 serves them
	// through a sliding window of k in-flight EvaluateAsync epochs
	// multiplexed on the one engine. Step reports stay in step order
	// regardless of completion order. Pipelined serving is incompatible
	// with per-step checkpointing (Snapshot refuses mid-pipeline).
	Pipeline int `json:"pipeline,omitempty"`
	// RefillLowWater arms the engine's watermark-triggered background
	// refills on the pipelined path (mpc.Config.RefillLowWater);
	// RefillBudget sizes each background batch. Both require Pipeline
	// >= 1 — the sequential path refills only on the explicit
	// exhaustion-retry.
	RefillLowWater int `json:"refillLowWater,omitempty"`
	RefillBudget   int `json:"refillBudget,omitempty"`
	// Steps are the evaluations, served in order over the one engine.
	Steps []WorkloadStep `json:"steps"`
}

// WorkloadStep is one evaluation of a workload: a circuit, the
// parties' inputs (empty = default 1..n) and the step's assertions.
type WorkloadStep struct {
	Circuit CircuitSpec `json:"circuit"`
	Inputs  []uint64    `json:"inputs,omitempty"`
	// Expect is asserted against this evaluation alone. MaxTicks
	// budgets the evaluation's own duration (ticks since the step
	// started), not the engine's absolute clock.
	Expect Expect `json:"expect,omitempty"`
}

// isZero reports whether no assertion is set (the zero Expect asserts
// plain success).
func (e Expect) isZero() bool {
	return e.Error == "" && len(e.Outputs) == 0 && !e.Consistent &&
		e.MinAgreement == 0 && e.MaxAgreement == 0 && !e.AllHonestTerminate &&
		e.MaxTicks == 0 && !e.WithinDeadline && e.MaxHonestBytes == 0 && e.MaxHonestMessages == 0
}

// validateWorkload checks the workload section; the shared
// parties/network/adversary fields were already validated.
func (m *Manifest) validateWorkload() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s", m.Name, fmt.Sprintf(format, args...))
	}
	w := m.Workload
	if m.Circuit.Family != "" {
		return bad("workload manifests define circuits per step; drop the top-level circuit")
	}
	if len(m.Inputs) != 0 {
		return bad("workload manifests define inputs per step; drop the top-level inputs")
	}
	if !m.Expect.isZero() {
		return bad("workload manifests assert per step; drop the top-level expect")
	}
	if w.Budget < 0 {
		return bad("workload.budget must be >= 0, have %d", w.Budget)
	}
	if w.Pipeline < 0 {
		return bad("workload.pipeline must be >= 0, have %d", w.Pipeline)
	}
	if w.RefillLowWater < 0 || w.RefillBudget < 0 {
		return bad("workload.refillLowWater/refillBudget must be >= 0, have %d/%d", w.RefillLowWater, w.RefillBudget)
	}
	if w.RefillBudget > 0 && w.RefillLowWater == 0 {
		return bad("workload.refillBudget without refillLowWater: the batch size only applies once the watermark is armed")
	}
	if w.RefillLowWater > 0 && w.Pipeline == 0 {
		return bad("workload.refillLowWater requires pipeline >= 1: background refills overlap pipelined epochs only")
	}
	if len(w.Steps) == 0 {
		return bad("workload needs at least one step")
	}
	for i, s := range w.Steps {
		if err := s.Circuit.check(m.Parties.N); err != nil {
			return bad("workload.steps[%d].circuit: %v", i, err)
		}
		if len(s.Inputs) != 0 && len(s.Inputs) != m.Parties.N {
			return bad("workload.steps[%d].inputs: have %d values, need 0 (default 1..n) or exactly n = %d",
				i, len(s.Inputs), m.Parties.N)
		}
		if err := m.validateExpectBlock(s.Expect, fmt.Sprintf("workload.steps[%d].expect", i)); err != nil {
			return err
		}
	}
	return nil
}

// WorkloadStepReport is one evaluation's outcome and cost.
type WorkloadStepReport struct {
	Index   int    `json:"index"`
	Circuit string `json:"circuit"`
	Pass    bool   `json:"pass"`
	// Failures lists the violated step assertions (empty when Pass).
	Failures []string `json:"failures,omitempty"`
	// Err is the engine error, "" on success. A pool-exhaustion error
	// triggers one refill and a retry before it is reported.
	Err     string   `json:"err,omitempty"`
	Outputs []uint64 `json:"outputs,omitempty"`
	CS      []int    `json:"cs,omitempty"`
	// Triples is the number of pool triples the step consumed.
	Triples int `json:"triples"`
	// HonestMessages/HonestBytes are this evaluation's own traffic;
	// Ticks is its duration on the engine clock.
	HonestMessages uint64 `json:"honestMessages"`
	HonestBytes    uint64 `json:"honestBytes"`
	Ticks          int64  `json:"ticks"`
	// OneShotMessages is the honest traffic of an independent mpc.RunOpts
	// of the same step (0 when the comparison was not requested).
	OneShotMessages uint64 `json:"oneShotMessages,omitempty"`
	// ByFamily breaks the step's honest traffic down by protocol
	// family — part of the kill-and-resume differential contract: a
	// resumed workload must reproduce these per-family figures
	// bit-identically.
	ByFamily map[string]mpc.FamilyCounts `json:"byFamily,omitempty"`
}

// WorkloadReport is the outcome of RunWorkloadOpts: per-step reports plus
// the amortization summary the workload exists to measure.
type WorkloadReport struct {
	Name string `json:"name"`
	// Pass is true when every step ran and all its assertions held.
	Pass  bool                 `json:"pass"`
	Steps []WorkloadStepReport `json:"steps"`
	// Budget is the preprocessed triple budget (after defaulting);
	// TriplesGenerated/Consumed the pool accounting at the end.
	Budget           int `json:"budget"`
	TriplesGenerated int `json:"triplesGenerated"`
	TriplesConsumed  int `json:"triplesConsumed"`
	// Pool is the engine's full pool-depth accounting at the end of the
	// run (available/reserved/consumed/filling).
	Pool triples.PoolStats `json:"pool"`
	// PreprocessMessages/Bytes is the honest traffic of all pool fills;
	// EvalMessages/Bytes the honest traffic of all evaluations.
	PreprocessMessages uint64 `json:"preprocessMessages"`
	PreprocessBytes    uint64 `json:"preprocessBytes"`
	EvalMessages       uint64 `json:"evalMessages"`
	EvalBytes          uint64 `json:"evalBytes"`
	// AmortizedMsgsPerEval is (preprocess + eval traffic) / steps;
	// AmortizedTicksPerEval the mean step duration.
	AmortizedMsgsPerEval  float64 `json:"amortizedMsgsPerEval"`
	AmortizedTicksPerEval float64 `json:"amortizedTicksPerEval"`
	// OneShotMsgsPerEval is the mean one-shot cost of the same steps
	// and Savings the ratio OneShotMsgsPerEval/AmortizedMsgsPerEval
	// (only set when the comparison was requested).
	OneShotMsgsPerEval float64 `json:"oneShotMsgsPerEval,omitempty"`
	Savings            float64 `json:"savings,omitempty"`
}

// WorkloadRunOptions shapes one RunWorkloadOpts call. The zero value is
// an untraced, uncompared run on the in-memory simulator at the
// manifest's pipeline depth.
type WorkloadRunOptions struct {
	// Compare additionally runs every step as an independent one-shot
	// mpc.RunOpts and reports the amortization ratio.
	Compare bool
	// Tracer receives the session engine's event stream (nil = off).
	// The one-shot comparison runs stay untraced — they are reference
	// measurements on separate worlds.
	Tracer obs.Tracer
	// PerGateEval switches the engine to the per-gate reference
	// evaluator — the differential-testing knob; manifests always run
	// the default layered evaluator.
	PerGateEval bool
	// CheckpointPath, when set, writes a crash-safe resume checkpoint
	// to this file after every completed step (atomic tmp + rename), so
	// a killed run loses at most the step in flight.
	CheckpointPath string
	// StopAfter, when > 0, stops the run after that many completed
	// steps (a simulated crash for tests and the checkpoint smoke): the
	// partial report is returned, and the checkpoint — if requested —
	// stays behind for a resume.
	StopAfter int
	// Resume continues a previous run from a checkpoint instead of
	// starting fresh. The checkpoint must match the manifest and the
	// Compare/PerGateEval options (mpc.ErrCheckpointConfig otherwise).
	Resume *WorkloadCheckpoint
	// Pipeline overrides the manifest's workload.pipeline depth: 0 (the
	// zero value) keeps the manifest's, > 0 forces that depth, < 0
	// forces sequential serving. The smoke tooling uses the override to
	// run one manifest both ways and compare the reports.
	Pipeline int
	// Transport selects the session engine's message-plane backend
	// (nil = the in-memory simulator). The backend is deliberately NOT
	// part of the checkpoint identity: on a fixed seed a workload over
	// real sockets reports bit-identically to the simulator, and a
	// checkpoint written on one backend resumes onto any other. The
	// one-shot comparison runs always use the simulator — they are
	// reference measurements on separate worlds.
	Transport *mpc.TransportSpec
	// Wire, when non-nil, receives the physical wire accounting of the
	// session engine (zeros on the simulator backend).
	Wire *transport.WireStats
}

// RunWorkloadOpts executes a workload manifest: one engine, one (or
// more, on exhaustion) preprocessing batches, the steps in order. The
// returned error covers manifest/assembly problems; engine errors and
// assertion failures are reported per step. opt adds tracing of the
// session engine, the one-shot comparison runs (Compare), evaluator
// mode, pipelined serving, per-step checkpointing, simulated crashes
// and resume. A workload interrupted after step k and resumed from its
// checkpoint produces a final report bit-identical to the run that
// never stopped — outputs, CS sets, per-family traffic, ticks and
// pool accounting. A pipelined run (workload.pipeline or opt.Pipeline
// >= 1) serves the steps through a sliding window of in-flight epochs:
// outputs and CS stay bit-identical to sequential serving at any
// depth, the whole report is bit-identical at depth 1, and per-step
// traffic/tick figures sit within a sub-percent noise band at depth >
// 1 (see the mpc pipelining notes).
func RunWorkloadOpts(m *Manifest, opt WorkloadRunOptions) (*WorkloadReport, error) {
	if m.Workload == nil {
		return nil, fmt.Errorf("scenario %q: not a workload manifest (no workload section)", m.Name)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	depth := m.Workload.Pipeline
	switch {
	case opt.Pipeline > 0:
		depth = opt.Pipeline
	case opt.Pipeline < 0:
		depth = 0
	}
	if depth > 0 && (opt.CheckpointPath != "" || opt.StopAfter > 0 || opt.Resume != nil) {
		return nil, fmt.Errorf("scenario %q: pipelined serving (depth %d) is incompatible with checkpoint/resume/stop-after: Snapshot refuses mid-pipeline; force sequential serving instead", m.Name, depth)
	}
	cfg, adv := m.engineConfig()
	cfg.PerGateEval = opt.PerGateEval
	if depth > 0 {
		cfg.RefillLowWater = m.Workload.RefillLowWater
		cfg.RefillBudget = m.Workload.RefillBudget
	}
	steps, muls, err := buildSteps(m, cfg, adv)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", m.Name, err)
	}
	budget := m.Workload.Budget
	if budget == 0 {
		// An all-linear workload still preprocesses once.
		budget = max(1, muls)
	}

	var eng *mpc.Engine
	var rep *WorkloadReport
	var totalTicks int64
	var oneShotTotal uint64
	startIdx := 0
	eopts := mpc.EngineOptions{Adversary: adv, Tracer: opt.Tracer, Transport: opt.Transport}
	if ck := opt.Resume; ck != nil {
		if err := ck.matches(m, opt); err != nil {
			return nil, fmt.Errorf("scenario %q: resume: %w", m.Name, err)
		}
		if ck.StepsDone > len(steps) {
			return nil, fmt.Errorf("%w: checkpoint records %d completed steps, workload has %d",
				mpc.ErrBadCheckpoint, ck.StepsDone, len(steps))
		}
		eng, err = mpc.RestoreEngineOpts(cfg, eopts, bytes.NewReader(ck.Engine))
		if err != nil {
			return nil, fmt.Errorf("scenario %q: resume: %w", m.Name, err)
		}
		rep = ck.Report
		startIdx = ck.StepsDone
		totalTicks = ck.TotalTicks
		oneShotTotal = ck.OneShotTotal
	} else {
		eng, err = mpc.NewEngineOpts(cfg, eopts)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", m.Name, err)
		}
	}
	defer eng.Close()
	if opt.Wire != nil {
		defer func() { *opt.Wire = eng.WireStats() }()
	}
	if opt.Resume == nil {
		if _, err := eng.Preprocess(budget); err != nil {
			return nil, fmt.Errorf("scenario %q: preprocess: %w", m.Name, err)
		}
		rep = &WorkloadReport{Name: m.Name, Pass: true, Budget: budget}
	}
	if depth > 0 {
		if err := runWorkloadPipelined(m, eng, steps, rep, opt, depth, &totalTicks, &oneShotTotal); err != nil {
			return nil, err
		}
		finalizeWorkloadReport(rep, eng, len(steps), totalTicks, oneShotTotal, opt.Compare)
		return rep, nil
	}
	for i := startIdx; i < len(steps); i++ {
		s := steps[i]
		res, runErr := evaluateRefilling(eng, s.art)
		// A transport fault is an environment failure, not a protocol
		// outcome: surface it as a hard error instead of a step row.
		if runErr != nil && errors.Is(runErr, mpc.ErrTransport) {
			return nil, fmt.Errorf("scenario %q: step %d: %w", m.Name, i, runErr)
		}
		sr := workloadStepRow(m, i, s, res, runErr)
		if !sr.Pass {
			rep.Pass = false
		}
		totalTicks += sr.Ticks
		if opt.Compare {
			ref, _ := mpc.RunOpts(s.art.Cfg, mpc.EngineOptions{Adversary: s.art.Adversary}, s.art.Circuit, s.art.Inputs)
			if ref != nil {
				sr.OneShotMessages = ref.HonestMessages
				oneShotTotal += ref.HonestMessages
			}
		}
		rep.Steps = append(rep.Steps, sr)
		if opt.CheckpointPath != "" {
			// The checkpoint stores the report with its summary fields
			// unset; they are recomputed at completion from the restored
			// engine's global counters, so the resumed run's final report
			// matches the uninterrupted one exactly.
			if err := writeWorkloadCheckpoint(opt.CheckpointPath, m, opt, i+1, rep, totalTicks, oneShotTotal, eng); err != nil {
				return nil, fmt.Errorf("scenario %q: checkpoint after step %d: %w", m.Name, i, err)
			}
		}
		if opt.StopAfter > 0 && i+1 >= opt.StopAfter && i+1 < len(steps) {
			// Simulated crash: return the partial report as-is. The
			// checkpoint file (if requested) carries everything a resume
			// needs; summary fields stay unset on this partial report.
			return rep, nil
		}
	}

	finalizeWorkloadReport(rep, eng, len(steps), totalTicks, oneShotTotal, opt.Compare)
	return rep, nil
}

// evaluateRefilling runs one sequential evaluation. If the budgeted
// pool ran dry it refills one batch sized for the step and retries
// once — the recoverable path the typed exhaustion error exists for.
func evaluateRefilling(eng *mpc.Engine, art *RunArtifacts) (*mpc.Result, error) {
	res, err := eng.Evaluate(art.Circuit, art.Inputs)
	if err != nil && isExhausted(err) {
		if _, ferr := eng.Preprocess(max(1, art.Circuit.MulCount)); ferr == nil {
			res, err = eng.Evaluate(art.Circuit, art.Inputs)
		}
	}
	return res, err
}

// builtStep pairs a workload step's spec with its built artifacts.
type builtStep struct {
	spec WorkloadStep
	art  *RunArtifacts
}

// buildSteps builds every workload step's circuit and inputs under the
// engine's cfg and adversary, and sums the steps' multiplications.
func buildSteps(m *Manifest, cfg mpc.Config, adv *mpc.Adversary) ([]builtStep, int, error) {
	steps := make([]builtStep, len(m.Workload.Steps))
	muls := 0
	for i, s := range m.Workload.Steps {
		circ, err := s.Circuit.Build(m.Parties.N)
		if err != nil {
			return nil, 0, fmt.Errorf("workload.steps[%d]: circuit: %w", i, err)
		}
		steps[i] = builtStep{spec: s, art: &RunArtifacts{
			Cfg:       cfg,
			Circuit:   circ,
			Inputs:    buildInputs(s.Inputs, m.Parties.N),
			Adversary: adv,
		}}
		muls += circ.MulCount
	}
	return steps, muls, nil
}

// workloadStepRow builds one step's report row from an evaluation
// outcome — shared by the sequential and pipelined serving loops (so a
// depth-1 pipelined report is field-for-field comparable to a
// sequential one) and by Deployment.Serve's printed rows.
func workloadStepRow(m *Manifest, i int, s builtStep, res *mpc.Result, runErr error) WorkloadStepReport {
	sr := WorkloadStepReport{Index: i, Circuit: s.spec.Circuit.String(), Triples: s.art.Circuit.MulCount}
	if runErr != nil {
		sr.Err = errName(runErr)
	}
	var lastAbs, lastRel int64
	if res != nil {
		corrupt := map[int]bool{}
		for _, p := range m.Adversary.Corrupt() {
			corrupt[p] = true
		}
		for idx, t := range res.TerminatedAt {
			if !corrupt[idx] && t > lastAbs {
				lastAbs = t
			}
		}
		if lastAbs > 0 {
			lastRel = lastAbs - res.StartedAt
		}
		sr.CS = res.CS
		sr.HonestMessages = res.HonestMessages
		sr.HonestBytes = res.HonestBytes
		sr.ByFamily = res.ByFamily
		sr.Ticks = lastRel
		if runErr == nil {
			sr.Outputs = make([]uint64, len(res.Outputs))
			for k, o := range res.Outputs {
				sr.Outputs[k] = o.Uint64()
			}
		}
	}
	sr.Failures = assertExpect(s.spec.Expect, m.Adversary, s.art, res, runErr, lastAbs, lastRel)
	sr.Pass = len(sr.Failures) == 0
	return sr
}

// runWorkloadPipelined serves the steps through a sliding window of
// depth in-flight EvaluateAsync epochs on the one engine. Rows are
// indexed by step so the report stays in step order even though a
// submission failure can land its row while earlier steps are still in
// flight. Pool exhaustion at submit drains the window and refills via
// the same Preprocess-and-retry path as the sequential loop (the
// watermark knobs, when armed, refill in the background before it ever
// comes to that).
func runWorkloadPipelined(m *Manifest, eng *mpc.Engine, steps []builtStep, rep *WorkloadReport,
	opt WorkloadRunOptions, depth int, totalTicks *int64, oneShotTotal *uint64) error {
	rows := make([]WorkloadStepReport, len(steps))
	type inflight struct {
		idx int
		p   *mpc.PendingEval
	}
	var window []inflight
	settle := func() error {
		f := window[0]
		window = window[1:]
		res, runErr := f.p.Wait()
		if runErr != nil && errors.Is(runErr, mpc.ErrTransport) {
			return fmt.Errorf("scenario %q: step %d: %w", m.Name, f.idx, runErr)
		}
		rows[f.idx] = workloadStepRow(m, f.idx, steps[f.idx], res, runErr)
		return nil
	}
	for i, s := range steps {
		if len(window) == depth {
			if err := settle(); err != nil {
				return err
			}
		}
		p, runErr := eng.EvaluateAsync(s.art.Circuit, s.art.Inputs)
		if runErr != nil && isExhausted(runErr) {
			for len(window) > 0 {
				if err := settle(); err != nil {
					return err
				}
			}
			if err := eng.Flush(); err != nil {
				return fmt.Errorf("scenario %q: step %d: %w", m.Name, i, err)
			}
			if _, ferr := eng.Preprocess(max(1, s.art.Circuit.MulCount)); ferr == nil {
				p, runErr = eng.EvaluateAsync(s.art.Circuit, s.art.Inputs)
			}
		}
		if runErr != nil {
			if errors.Is(runErr, mpc.ErrTransport) {
				return fmt.Errorf("scenario %q: step %d: %w", m.Name, i, runErr)
			}
			rows[i] = workloadStepRow(m, i, s, nil, runErr)
			continue
		}
		window = append(window, inflight{idx: i, p: p})
	}
	for len(window) > 0 {
		if err := settle(); err != nil {
			return err
		}
	}
	if err := eng.Flush(); err != nil {
		return fmt.Errorf("scenario %q: %w", m.Name, err)
	}
	for i := range rows {
		if !rows[i].Pass {
			rep.Pass = false
		}
		*totalTicks += rows[i].Ticks
		if opt.Compare {
			s := steps[i]
			ref, _ := mpc.RunOpts(s.art.Cfg, mpc.EngineOptions{Adversary: s.art.Adversary}, s.art.Circuit, s.art.Inputs)
			if ref != nil {
				rows[i].OneShotMessages = ref.HonestMessages
				*oneShotTotal += ref.HonestMessages
			}
		}
		rep.Steps = append(rep.Steps, rows[i])
	}
	return nil
}

// finalizeWorkloadReport fills the summary fields from the engine's
// whole-session counters. Because the engine's counters are part of the
// checkpoint, a resumed run finalizes to the same figures as the run
// that never stopped.
func finalizeWorkloadReport(rep *WorkloadReport, eng *mpc.Engine, steps int, totalTicks int64, oneShotTotal uint64, compare bool) {
	st := eng.Stats()
	rep.TriplesGenerated = st.TriplesGenerated
	rep.TriplesConsumed = st.TriplesConsumed
	rep.Pool = st.Pool
	rep.PreprocessMessages = st.PreprocessMessages
	rep.PreprocessBytes = st.PreprocessBytes
	rep.EvalMessages = st.EvalMessages
	rep.EvalBytes = st.EvalBytes
	k := float64(steps)
	rep.AmortizedMsgsPerEval = float64(st.PreprocessMessages+st.EvalMessages) / k
	rep.AmortizedTicksPerEval = float64(totalTicks) / k
	if compare {
		rep.OneShotMsgsPerEval = float64(oneShotTotal) / k
		if rep.AmortizedMsgsPerEval > 0 {
			rep.Savings = rep.OneShotMsgsPerEval / rep.AmortizedMsgsPerEval
		}
	}
}

// isExhausted reports a pool-exhaustion engine error.
func isExhausted(err error) bool {
	return errors.Is(err, mpc.ErrTriplesExhausted)
}

// builtinWorkloads is the registry of named built-in workloads, kept
// separate from the one-shot scenario registry: workload manifests run
// through RunWorkloadOpts, not RunWith.
var builtinWorkloads = map[string]*Manifest{}

func registerWorkload(m *Manifest) {
	if _, dup := builtinWorkloads[m.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate builtin workload %q", m.Name))
	}
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("scenario: invalid builtin workload: %v", err))
	}
	builtinWorkloads[m.Name] = m
}

// WorkloadNames returns the sorted names of the built-in workloads.
func WorkloadNames() []string {
	out := make([]string, 0, len(builtinWorkloads))
	for name := range builtinWorkloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// BuiltinWorkloads returns the built-in workloads sorted by name.
func BuiltinWorkloads() []*Manifest {
	out := make([]*Manifest, 0, len(builtinWorkloads))
	for _, name := range WorkloadNames() {
		out = append(out, builtinWorkloads[name])
	}
	return out
}

// LookupWorkload returns the built-in workload with the given name.
func LookupWorkload(name string) (*Manifest, error) {
	m, ok := builtinWorkloads[name]
	if !ok {
		return nil, fmt.Errorf("scenario: no builtin workload named %q (see WorkloadNames)", name)
	}
	return m, nil
}

func init() {
	honestStep := func(c CircuitSpec, minAgree int) WorkloadStep {
		return WorkloadStep{Circuit: c, Expect: Expect{
			Consistent: true, AllHonestTerminate: true, MinAgreement: minAgree,
		}}
	}
	// workload-amortize-sync is the acceptance workload: eight mixed
	// evaluations over one engine, all honest, auto budget — the
	// fixed-seed manifest behind `make workload-smoke`.
	registerWorkload(&Manifest{
		Name:        "workload-amortize-sync",
		Description: "8 mixed evaluations over one engine, n=5, auto triple budget (amortization headline)",
		Parties:     boundaryN5, Network: syncNet(), Seed: 1,
		Workload: &WorkloadSpec{Steps: []WorkloadStep{
			honestStep(CircuitSpec{Family: "product"}, 5),
			honestStep(CircuitSpec{Family: "sum"}, 5),
			honestStep(CircuitSpec{Family: "stats"}, 5),
			honestStep(CircuitSpec{Family: "polyeval", Coeffs: []uint64{7, 3, 1}}, 5),
			honestStep(CircuitSpec{Family: "membership"}, 5),
			honestStep(CircuitSpec{Family: "depth", Depth: 2}, 5),
			honestStep(CircuitSpec{Family: "product"}, 5),
			honestStep(CircuitSpec{Family: "stats"}, 5),
		}},
	})
	// workload-refill-sync deliberately under-budgets the pool so the
	// engine hits the typed exhaustion error mid-workload and recovers
	// through a refill batch.
	registerWorkload(&Manifest{
		Name:        "workload-refill-sync",
		Description: "under-budgeted pool: exhaustion mid-workload, refill batch, service continues",
		Parties:     boundaryN5, Network: syncNet(), Seed: 2,
		Workload: &WorkloadSpec{Budget: 4, Steps: []WorkloadStep{
			honestStep(CircuitSpec{Family: "product"}, 5),
			honestStep(CircuitSpec{Family: "product"}, 5),
			honestStep(CircuitSpec{Family: "product"}, 5),
		}},
	})
	// workload-pipeline-sync serves eight evaluations through a depth-4
	// pipeline on a fully budgeted pool: the smoke target runs it forced
	// sequential and at depth 1 (reports must be bit-identical) and at
	// its native depth 4 twice (reports must be deterministic).
	registerWorkload(&Manifest{
		Name:        "workload-pipeline-sync",
		Description: "8 evaluations through a depth-4 pipeline on one engine, n=5, auto triple budget",
		Parties:     boundaryN5, Network: syncNet(), Seed: 1,
		Workload: &WorkloadSpec{Pipeline: 4, Steps: []WorkloadStep{
			honestStep(CircuitSpec{Family: "product"}, 5),
			honestStep(CircuitSpec{Family: "sum"}, 5),
			honestStep(CircuitSpec{Family: "stats"}, 5),
			honestStep(CircuitSpec{Family: "polyeval", Coeffs: []uint64{7, 3, 1}}, 5),
			honestStep(CircuitSpec{Family: "membership"}, 5),
			honestStep(CircuitSpec{Family: "depth", Depth: 2}, 5),
			honestStep(CircuitSpec{Family: "product"}, 5),
			honestStep(CircuitSpec{Family: "stats"}, 5),
		}},
	})
	// workload-pipeline-refill-sync under-budgets the pool and arms the
	// watermark: background refills land while pipelined epochs advance,
	// so the serving loop never hits the exhaustion-retry path.
	registerWorkload(&Manifest{
		Name:        "workload-pipeline-refill-sync",
		Description: "depth-4 pipeline on an under-budgeted pool with watermark-triggered background refills",
		Parties:     boundaryN5, Network: syncNet(), Seed: 2,
		Workload: &WorkloadSpec{
			Budget: 8, Pipeline: 4, RefillLowWater: 8, RefillBudget: 16,
			Steps: []WorkloadStep{
				honestStep(CircuitSpec{Family: "product"}, 5),
				honestStep(CircuitSpec{Family: "product"}, 5),
				honestStep(CircuitSpec{Family: "stats"}, 5),
				honestStep(CircuitSpec{Family: "product"}, 5),
				honestStep(CircuitSpec{Family: "stats"}, 5),
				honestStep(CircuitSpec{Family: "product"}, 5),
			},
		},
	})
	// workload-adversarial-sync keeps the engine serving under a
	// full-budget adversary (one garbler, one crash) at the flagship
	// configuration.
	registerWorkload(&Manifest{
		Name:        "workload-adversarial-sync",
		Description: "n=8 engine serving 4 evaluations with a garbling and a silent corruption",
		Parties:     flagship, Network: syncNet(), Seed: 3,
		Adversary: AdversarySpec{Garble: []int{3}, Silent: []int{6}},
		Workload: &WorkloadSpec{Steps: []WorkloadStep{
			{Circuit: CircuitSpec{Family: "sum"}, Expect: Expect{Consistent: true, MinAgreement: 6}},
			{Circuit: CircuitSpec{Family: "product"}, Expect: Expect{Consistent: true, MinAgreement: 6}},
			{Circuit: CircuitSpec{Family: "stats"}, Expect: Expect{Consistent: true, MinAgreement: 6}},
			{Circuit: CircuitSpec{Family: "matmul"}, Expect: Expect{Consistent: true, MinAgreement: 6}},
		}},
	})
}
