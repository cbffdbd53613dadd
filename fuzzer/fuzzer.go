// Package fuzzer is the property-based protocol fuzzer: it searches
// the space of (circuit, adversary, network-schedule) triples for runs
// that violate the paper's universally-quantified guarantees, instead
// of replaying the adversary presets someone thought of in advance.
//
// A campaign (Fuzz) derives every trial deterministically from one
// master seed: Generate builds a random scenario manifest (seeded
// random circuit, random adversary composition within the corruption
// budget, random delivery schedule including starvation and burst
// outages), Check runs it through the invariant-oracle suite
// (correctness vs clear-text evaluation, termination, agreement,
// corruption budget, layered-vs-per-gate equality), and any failure is
// greedily minimized (Shrink) into a counterexample whose manifest
// replays bit-identically (Check again) — every fuzz failure is a one-line
// reproducible regression test, ready to be promoted into the builtin
// scenario registry (see docs/fuzzing.md).
package fuzzer

import (
	"runtime"
	"sync"

	"repro/scenario"
)

// Inject deliberately breaks generated trials, to prove the
// catch → shrink → emit → replay pipeline end to end.
type Inject string

// Injection modes.
const (
	// InjectNone leaves trials untouched.
	InjectNone Inject = ""
	// InjectOverBudget adds silent corruptions beyond the network's
	// corruption budget to every trial, violating OracleBudget.
	InjectOverBudget Inject = "over-budget"
)

// Options parameterises a fuzzing campaign. The zero value is usable:
// 100 trials from seed 1 on a GOMAXPROCS pool.
type Options struct {
	// Trials is the number of generated scenarios (default 100).
	Trials int
	// Seed keys the campaign; every trial is a pure function of
	// (Seed, trial index).
	Seed uint64
	// Parallel is the worker-pool size (< 1 uses GOMAXPROCS). Trials
	// are independent simulations, so parallelism changes wall-clock
	// time only, never a verdict.
	Parallel int
	// MaxShrinkRuns caps the oracle evaluations spent minimizing one
	// counterexample (default 200).
	MaxShrinkRuns int
	// Inject optionally plants a deliberate violation in every trial.
	Inject Inject
}

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 100
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallel < 1 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.MaxShrinkRuns <= 0 {
		o.MaxShrinkRuns = 200
	}
	return o
}

// Counterexample is one failing trial after minimization.
type Counterexample struct {
	// Trial is the failing trial's index within the campaign.
	Trial int `json:"trial"`
	// Violations is the minimized manifest's verdict.
	Violations []Violation `json:"violations"`
	// Manifest is the minimized manifest ("<trial-name>-min"): save it
	// and re-run it with Check, `scenario fuzz -replay`, or promote it
	// into the builtin registry.
	Manifest *scenario.Manifest `json:"manifest"`
	// Original is the unshrunk generated manifest.
	Original *scenario.Manifest `json:"original"`
	// ShrinkRuns is the number of oracle evaluations minimization used.
	ShrinkRuns int `json:"shrinkRuns"`
}

// Summary reports a campaign.
type Summary struct {
	Seed   uint64 `json:"seed"`
	Trials int    `json:"trials"`
	Passed int    `json:"passed"`
	Inject Inject `json:"inject,omitempty"`
	// HonestMessages/HonestBytes total the honest-origin traffic of the
	// trials' primary runs (shrink re-runs excluded), making a campaign
	// cost-comparable against scenario sweeps and workload reports; the
	// per-run figures are on each trial's Verdict.
	HonestMessages uint64 `json:"honestMessages"`
	HonestBytes    uint64 `json:"honestBytes"`
	// Failed holds one minimized counterexample per failing trial, in
	// trial order.
	Failed []*Counterexample `json:"failed,omitempty"`
}

// Fuzz runs a campaign: opts.Trials generated scenarios on a worker
// pool, each checked against the oracle suite, failures minimized. The
// summary is a pure function of (Seed, Trials, Inject): worker count
// only changes wall-clock time.
func Fuzz(opts Options) *Summary {
	opts = opts.withDefaults()
	sum := &Summary{Seed: opts.Seed, Trials: opts.Trials, Inject: opts.Inject}

	slots := make([]trialResult, opts.Trials)
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := opts.Parallel
	if workers > opts.Trials {
		workers = opts.Trials
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				slots[i] = runTrial(opts, i)
			}
		}()
	}
	for i := 0; i < opts.Trials; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for _, tr := range slots {
		sum.HonestMessages += tr.msgs
		sum.HonestBytes += tr.bytes
		if tr.ce == nil {
			sum.Passed++
			continue
		}
		sum.Failed = append(sum.Failed, tr.ce)
	}
	return sum
}

// trialResult carries one trial's counterexample (nil when the oracles
// held) plus the primary run's honest traffic.
type trialResult struct {
	ce          *Counterexample
	msgs, bytes uint64
}

// runTrial generates, checks and (on failure) shrinks trial i; the
// counterexample is nil when every oracle held.
func runTrial(opts Options, i int) trialResult {
	m := Generate(opts.Seed, i)
	applyInject(m, opts.Inject)
	v := Check(m, nil)
	tr := trialResult{msgs: v.HonestMessages, bytes: v.HonestBytes}
	if v.OK() {
		return tr
	}
	minimized, runs := Shrink(m, v.Primary(), opts.MaxShrinkRuns)
	minimized.Name = m.Name + "-min"
	tr.ce = &Counterexample{
		Trial:      i,
		Violations: Check(minimized, nil).Violations,
		Manifest:   minimized,
		Original:   m,
		ShrinkRuns: runs,
	}
	return tr
}

// applyInject plants the requested violation into a generated trial.
func applyInject(m *scenario.Manifest, inj Inject) {
	if inj != InjectOverBudget {
		return
	}
	// Add the lowest-indexed uncorrupted parties as silent corruptions
	// until the trial exceeds its network's budget by one.
	budget := NetworkBudget(m.Parties, m.Network.Kind)
	corrupt := map[int]bool{}
	for _, p := range m.Adversary.Corrupt() {
		corrupt[p] = true
	}
	for p := 1; p <= m.Parties.N && len(corrupt) <= budget; p++ {
		if !corrupt[p] {
			m.Adversary.Silent = append(m.Adversary.Silent, p)
			corrupt[p] = true
		}
	}
}
