package fuzzer

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/mpc"
	"repro/scenario"
)

// Oracle names, in the order Check evaluates them.
const (
	// OracleBudget: the adversary must stay within the corruption
	// budget the paper quantifies over (Ts under sync, Ta under async).
	// A violation means the *generator* (or an injection) broke the
	// trial's preconditions; the run is skipped.
	OracleBudget = "corruption-budget"
	// OracleManifest: the generated manifest must assemble (validate +
	// circuit build). A violation is a generator bug.
	OracleManifest = "manifest-valid"
	// OracleTermination: the run terminates — no engine panic, no
	// no-honest-output, every honest party terminated, and the last
	// honest termination meets the tick budget (the derived synchronous
	// deadline under sync, a generous fixed bound under async).
	OracleTermination = "termination"
	// OracleAgreement: honest parties agree on the output and the
	// agreed input-provider set has at least n - budget members.
	OracleAgreement = "agreement"
	// OracleConsistency: the agreed outputs equal the clear-text
	// evaluation of the circuit over the agreed input-provider set
	// (t-perfect correctness).
	OracleConsistency = "consistency"
	// OracleModeAgreement: the layered online phase and the per-gate
	// reference evaluator compute identical outputs and agreement sets.
	OracleModeAgreement = "mode-agreement"
)

// asyncTickBudget is the termination bound for asynchronous trials,
// sized an order of magnitude above the slowest asynchronous builtin
// scenario; starvation horizons are added on top by tickBudget.
const asyncTickBudget = 60_000

// Violation is one broken invariant.
type Violation struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

// Verdict is the oracle evaluation of one manifest.
type Verdict struct {
	Name       string      `json:"name"`
	Violations []Violation `json:"violations,omitempty"`
	// Run figures for context (zero when the run was skipped).
	LastTick int64    `json:"lastTick,omitempty"`
	CS       []int    `json:"cs,omitempty"`
	Outputs  []uint64 `json:"outputs,omitempty"`
	Events   uint64   `json:"events,omitempty"`
	// HonestMessages/HonestBytes count the run's honest-origin traffic,
	// making fuzz trials cost-comparable against scenario sweeps and
	// workload amortization reports.
	HonestMessages uint64 `json:"honestMessages,omitempty"`
	HonestBytes    uint64 `json:"honestBytes,omitempty"`
}

// OK reports whether every oracle held.
func (v *Verdict) OK() bool { return len(v.Violations) == 0 }

// Primary returns the first violated oracle ("" when OK): the shrinker
// minimizes while preserving this oracle's failure.
func (v *Verdict) Primary() string {
	if len(v.Violations) == 0 {
		return ""
	}
	return v.Violations[0].Oracle
}

func (v *Verdict) violate(oracle, format string, args ...any) {
	v.Violations = append(v.Violations, Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
}

// Check runs the manifest through the invariant-oracle suite and
// returns the verdict. It is deterministic: the manifest fully seeds
// the simulation, so two Checks of one manifest are bit-identical —
// which is why a saved counterexample replays (`scenario fuzz -replay`)
// and a fuzz failure is a permanent regression test, not a flake.
//
// tr (nil = off) receives the primary (layered) run's event stream, so
// a counterexample's failure can be inspected on the event timeline
// (`scenario fuzz -replay ce.json -trace`). The mode-agreement
// reference run stays untraced: it is a separate world whose events
// would interleave confusingly with the primary's.
//
// Unlike scenario.RunWith, Check ignores the manifest's Expect block:
// the oracles are universally-quantified properties of *every*
// in-budget run, not per-scenario expectations.
func Check(m *scenario.Manifest, tr obs.Tracer) *Verdict {
	v := &Verdict{Name: m.Name}

	budget := NetworkBudget(m.Parties, m.Network.Kind)
	if c := m.Adversary.Corrupt(); len(c) > budget {
		v.violate(OracleBudget, "adversary corrupts %d parties %v, budget for the %s network is %d",
			len(c), c, m.Network.Kind, budget)
		return v // the run's guarantees are void outside the budget
	}

	art, err := scenario.Build(m)
	if err != nil {
		v.violate(OracleManifest, "%v", err)
		return v
	}

	res, runErr := runRecovered(art.Cfg, art, tr)
	if res != nil {
		v.Events = res.Events
		v.HonestMessages = res.HonestMessages
		v.HonestBytes = res.HonestBytes
		corrupt := map[int]bool{}
		for _, p := range m.Adversary.Corrupt() {
			corrupt[p] = true
		}
		for i, t := range res.TerminatedAt {
			if !corrupt[i] && t > v.LastTick {
				v.LastTick = t
			}
		}
	}
	switch {
	case errors.Is(runErr, errEnginePanic):
		v.violate(OracleTermination, "%v", runErr)
		return v
	case errors.Is(runErr, mpc.ErrNoHonestOutput):
		v.violate(OracleTermination, "no honest party terminated within %d events", m.EventLimit)
		return v
	case errors.Is(runErr, mpc.ErrDisagreement):
		v.violate(OracleAgreement, "honest parties terminated with different outputs")
		return v
	case runErr != nil:
		v.violate(OracleManifest, "engine rejected the run: %v", runErr)
		return v
	}

	v.CS = append([]int(nil), res.CS...)
	v.Outputs = make([]uint64, len(res.Outputs))
	for i, o := range res.Outputs {
		v.Outputs[i] = o.Uint64()
	}

	// Termination: everyone honest, within the tick budget.
	if !res.AllHonestTerminated(art.Adversary) {
		v.violate(OracleTermination, "an honest party did not terminate (terminatedAt=%v)", res.TerminatedAt[1:])
	}
	if tb := tickBudget(m, res); v.LastTick > tb {
		v.violate(OracleTermination, "last honest termination at tick %d exceeds the budget %d", v.LastTick, tb)
	}

	// Agreement: the input-provider set excludes at most Ts parties.
	// The bound is n - Ts under BOTH networks: under asynchrony the
	// input phase cannot wait for more than n - Ts parties without
	// risking a deadlock on corrupt ones, so honest-but-starved
	// parties may be excluded alongside the corrupt (the builtin
	// async scenarios pin the same bound).
	if minCS := m.Parties.N - m.Parties.Ts; len(res.CS) < minCS {
		v.violate(OracleAgreement, "|CS| = %d below n - ts = %d (CS=%v)",
			len(res.CS), minCS, res.CS)
	}

	// Consistency: outputs equal the plaintext circuit evaluation.
	want, err := mpc.ExpectedOutputs(art.Circuit, art.Inputs, res.CS)
	if err != nil {
		v.violate(OracleConsistency, "reference evaluation failed: %v", err)
	} else {
		for i := range want {
			if res.Outputs[i] != want[i] {
				v.violate(OracleConsistency, "output[%d] = %d, clear evaluation over CS=%v gives %d",
					i, res.Outputs[i].Uint64(), res.CS, want[i].Uint64())
			}
		}
	}

	// Mode agreement: the per-gate reference evaluator must compute the
	// same outputs and agreement set as the layered default.
	refCfg := art.Cfg
	refCfg.PerGateEval = true
	ref, refErr := runRecovered(refCfg, art, nil)
	switch {
	case refErr != nil:
		v.violate(OracleModeAgreement, "per-gate evaluator failed where layered succeeded: %v", refErr)
	default:
		if len(ref.Outputs) != len(res.Outputs) {
			v.violate(OracleModeAgreement, "per-gate evaluator produced %d outputs, layered %d", len(ref.Outputs), len(res.Outputs))
		} else {
			for i := range res.Outputs {
				if ref.Outputs[i] != res.Outputs[i] {
					v.violate(OracleModeAgreement, "output[%d]: layered %d, per-gate %d",
						i, res.Outputs[i].Uint64(), ref.Outputs[i].Uint64())
				}
			}
		}
		if !slices.Equal(ref.CS, res.CS) {
			v.violate(OracleModeAgreement, "agreement sets differ: layered %v, per-gate %v", res.CS, ref.CS)
		}
	}
	return v
}

// errEnginePanic wraps a panic recovered from the simulation so a
// crashing trial becomes a shrinkable counterexample instead of taking
// the campaign down.
var errEnginePanic = errors.New("engine panicked")

func runRecovered(cfg mpc.Config, art *scenario.RunArtifacts, tr obs.Tracer) (res *mpc.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", errEnginePanic, r)
		}
	}()
	return mpc.RunOpts(cfg, mpc.EngineOptions{Adversary: art.Adversary, Tracer: tr}, art.Circuit, art.Inputs)
}

// tickBudget is the termination deadline a trial must meet: the derived
// synchronous-run bound under sync (the paper's TCirEval guarantee),
// and a generous fixed bound plus the starvation horizon under async
// (asynchronous termination is eventual, not bounded, so this guards
// against runaways rather than checking a paper bound).
func tickBudget(m *scenario.Manifest, res *mpc.Result) int64 {
	if m.Network.Kind == "sync" {
		return res.Deadline
	}
	return asyncTickBudget + 4*m.Adversary.StarveUntil
}
