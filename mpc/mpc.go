// Package mpc is the public entry point of this library: a
// best-of-both-worlds perfectly-secure multi-party computation engine
// reproducing Appan, Chandramouli and Choudhury (PODC 2022).
//
// A protocol run evaluates an arithmetic circuit over GF(2^61-1) among
// n simulated parties connected by a synchronous or asynchronous
// network, tolerating up to Ts Byzantine corruptions in the former and
// Ta in the latter, provided 3·Ts + Ta < n — without the parties
// knowing which network they are on.
//
// Two entry points share one protocol stack. The session Engine is the
// primary API: one long-lived World whose triple pool is filled by an
// amortized ΠPreProcessing batch (Preprocess) and then drained by many
// sequential circuit evaluations (Evaluate), each an epoch-namespaced
// input-ΠACS + online phase — the offline/online split the paper's
// preprocessing exists for. RunOpts is the retained one-shot
// convenience wrapper: it evaluates a single circuit on a fresh world,
// paying the full preprocessing cost for that one evaluation.
//
// Engine quickstart:
//
//	cfg := mpc.Config{N: 8, Ts: 2, Ta: 1, Network: mpc.Sync, Seed: 1}
//	eng, _ := mpc.NewEngineOpts(cfg, mpc.EngineOptions{})
//	eng.Preprocess(64) // one amortized triple-pool fill
//	circ := circuit.Sum(8)
//	inputs := []field.Element{1, 2, 3, 4, 5, 6, 7, 8}
//	res, err := eng.Evaluate(circ, inputs) // repeat per request
//	// res.Outputs[0] == 36
//
// One-shot (EngineOptions also carries the adversary, the trace sink
// and the transport backend):
//
//	res, err := mpc.RunOpts(cfg, mpc.EngineOptions{}, circ, inputs)
package mpc

import (
	"errors"

	"repro/circuit"
	"repro/field"
)

// Network selects the simulated network model.
type Network string

// Network models.
const (
	// Sync delivers every message within Δ.
	Sync Network = "sync"
	// Async delivers messages with unbounded-but-finite adversarially
	// scheduled delays.
	Async Network = "async"
)

// Config parameterises a protocol run.
type Config struct {
	// N is the number of parties; Ts and Ta the corruption thresholds
	// tolerated under synchrony resp. asynchrony (3·Ts + Ta < N,
	// Ta ≤ Ts).
	N, Ts, Ta int
	// Network selects the network model.
	Network Network
	// Delta is the synchronous delivery bound Δ in virtual ticks
	// (default 10).
	Delta int64
	// Seed makes the run fully deterministic.
	Seed uint64
	// Tail, with the Async network, overrides the heavy-tail
	// probability of the delay distribution (default 0.15).
	Tail float64
	// BurstPeriod/BurstDown, with the Async network, add periodic
	// outages: deliveries landing in the first BurstDown ticks of each
	// BurstPeriod-tick window are pushed past the outage
	// (sim.BurstPolicy). Zero disables bursts.
	BurstPeriod, BurstDown int64
	// CoinRounds is the ABA round constant k (default 8).
	CoinRounds int
	// SyncOnly disables every asynchronous fallback path, turning the
	// engine into a purely synchronous protocol (the paper's SMPC
	// baseline for the E12 comparison; see DESIGN.md).
	SyncOnly bool
	// EventLimit caps scheduler events as a runaway guard (default
	// 200M).
	EventLimit uint64
	// PerGateEval selects the per-gate reference evaluator (one Beaver
	// reconstruction instance per multiplication gate) instead of the
	// default per-layer batched one. Both compute identical shares; the
	// reference differs only in message grouping and is kept for
	// differential testing of the layered online phase.
	PerGateEval bool
	// RefillLowWater, when > 0, arms watermark-triggered background
	// refills on the pipelined serving path (Engine.EvaluateAsync): when
	// the available triple pool drops below the mark at a submit, the
	// engine overlaps a fresh ΠPreProcessing fill with the live online
	// phases instead of letting a later evaluation stall on
	// ErrTriplesExhausted. Zero leaves refills to explicit Preprocess
	// calls. The sequential Evaluate path is unaffected.
	RefillLowWater int
	// RefillBudget is the triple budget of each background refill
	// (defaults to RefillLowWater; a submit needing more than the
	// budget raises it to its shortfall).
	RefillBudget int
	// Workers must be 0: every engine runs the simulator's single
	// serial event loop, and a non-zero value is rejected.
	//
	// Deprecated: the field is kept only for callers that still read it,
	// and so that checkpoints keep their format.
	Workers int
}

// Adversary describes the static corruption and misbehaviour of a run.
// Passive, Silent, Garble and CrashAt parties count against the
// corruption budget max(Ts, Ta). StarveFrom parties do NOT: starvation
// is adversarial *network scheduling* of honest parties' links (the
// paper's asynchronous scheduler), not a corruption, so starved
// parties remain honest and are expected to terminate.
type Adversary struct {
	// Passive parties follow the protocol; the adversary only reads
	// their state (and the harness may hand them wrong inputs).
	Passive []int
	// Silent parties never send a message (crashed from the start;
	// their Start is skipped).
	Silent []int
	// Garble parties send byte-flipped garbage everywhere.
	Garble []int
	// CrashAt stops a party's sends from the given virtual time.
	CrashAt map[int]int64
	// Drop makes a party withhold every message whose instance path
	// contains the given substring ("" drops everything).
	Drop map[int]string
	// Delay makes a party withhold matching messages for extra ticks.
	Delay map[int]DelayRule
	// Equivocate parties send byte-flipped payloads to the upper half
	// of recipients (party index > n/2) and honest payloads to the
	// rest.
	Equivocate []int
	// StarveFrom, with the Async network, starves every link out of
	// the listed parties until StarveUntil (an adversarial schedule).
	StarveFrom  []int
	StarveUntil int64
}

// DelayRule is one targeted-delay behaviour: messages whose instance
// path contains Match ("" matches all) are withheld for Extra ticks.
type DelayRule struct {
	Match string
	Extra int64
}

func (a *Adversary) corrupt() []int {
	if a == nil {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	add := func(ps ...int) {
		for _, p := range ps {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	add(a.Passive...)
	add(a.Silent...)
	add(a.Garble...)
	add(a.Equivocate...)
	for p := range a.CrashAt {
		add(p)
	}
	for p := range a.Drop {
		add(p)
	}
	for p := range a.Delay {
		add(p)
	}
	return out
}

// Result reports a protocol run.
type Result struct {
	// Outputs holds the agreed public circuit outputs (from the first
	// honest party; all honest parties agree — verified).
	Outputs []field.Element
	// PerParty holds each party's terminated output (nil if the party
	// did not terminate); 1-based, index 0 unused.
	PerParty [][]field.Element
	// TerminatedAt holds each party's virtual termination time
	// (0 = did not terminate); 1-based.
	TerminatedAt []int64
	// CS is the agreed input-provider set (from the first honest
	// party).
	CS []int
	// StartedAt is the virtual time the evaluation began: 0 for a
	// one-shot Run, the session's start tick for Engine.Evaluate (whose
	// Deadline and TerminatedAt are absolute on the engine's clock, so
	// the evaluation's tick cost is TerminatedAt[i] - StartedAt).
	StartedAt int64
	// Deadline is the derived synchronous-run bound in ticks: TCirEval
	// for a one-shot Run, StartedAt + TSession (input ACS + online
	// phase; preprocessing is amortized away) for Engine.Evaluate.
	Deadline int64
	// PaperDeadline is the paper's (120n + DM + 6k - 20)·Δ bound.
	PaperDeadline int64
	// HonestMessages and HonestBytes count the traffic sent by honest
	// parties.
	HonestMessages, HonestBytes uint64
	// ByFamily breaks honest traffic down by top-level protocol family
	// (instance-path prefix, e.g. "mpc").
	ByFamily map[string]FamilyCounts
	// Events is the number of simulation events processed.
	Events uint64
}

// FamilyCounts is the per-protocol-family traffic breakdown.
type FamilyCounts struct {
	Messages uint64 `json:"messages"`
	Bytes    uint64 `json:"bytes"`
}

// AllHonestTerminated reports whether every honest party terminated.
func (r *Result) AllHonestTerminated(adv *Adversary) bool {
	corrupt := map[int]bool{}
	for _, p := range adv.corrupt() {
		corrupt[p] = true
	}
	for i := 1; i < len(r.PerParty); i++ {
		if !corrupt[i] && r.PerParty[i] == nil {
			return false
		}
	}
	return true
}

// ErrNoHonestOutput is returned when no honest party terminated (e.g.
// a SyncOnly baseline run under an asynchronous network).
var ErrNoHonestOutput = errors.New("mpc: no honest party terminated")

// ErrDisagreement is returned if two honest parties terminated with
// different outputs. It indicates a broken security property and
// should never occur within the configured corruption budgets.
var ErrDisagreement = errors.New("mpc: honest parties disagree on the output")

// RunOpts executes one MPC evaluation of circ where party i's private
// input is inputs[i-1], with explicit engine options (adversary, trace
// sink, transport backend; the zero value is an all-honest, untraced
// run on the in-memory simulator).
//
// RunOpts is the one-shot convenience wrapper around the session
// Engine: it assembles a fresh engine World, runs the full ΠCirEval
// (input ΠACS and ΠPreProcessing together) once, and tears everything
// down. A service evaluating many circuits should hold an Engine
// instead and amortize one Preprocess over its evaluations (see
// NewEngineOpts).
//
// Inputs of corrupt parties are still fed to their (honest-code)
// protocol instances unless the party is Silent; byzantine *protocol*
// behaviour comes from the Adversary's traffic rewriting, and the
// network schedule is adversarial under Async. Tracing does not
// perturb the run: a traced run is bit-identical to an untraced one
// with the same configuration.
func RunOpts(cfg Config, opts EngineOptions, circ *circuit.Circuit, inputs []field.Element) (*Result, error) {
	eng, err := NewEngineOpts(cfg, opts)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	return eng.OneShot(circ, inputs)
}

// ExpectedOutputs evaluates circ in the clear with the inputs of
// parties outside cs replaced by 0 — the reference output of a run
// that agreed on input-provider set cs.
func ExpectedOutputs(circ *circuit.Circuit, inputs []field.Element, cs []int) ([]field.Element, error) {
	adjusted := make([]field.Element, len(inputs))
	in := map[int]bool{}
	for _, j := range cs {
		in[j] = true
	}
	for i := range inputs {
		if in[i+1] {
			adjusted[i] = inputs[i]
		}
	}
	return circ.Eval(adjusted)
}
