package scenario

import (
	"errors"
	"fmt"

	"repro/circuit"
	"repro/field"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/mpc"
)

// RunArtifacts are the engine-level pieces assembled from a manifest:
// everything mpc.RunOpts needs. Harnesses that want to drive the engine
// themselves (the fuzzer, internal/bench) build these instead of
// duplicating config/circuit/adversary assembly.
type RunArtifacts struct {
	Cfg     mpc.Config
	Circuit *circuit.Circuit
	Inputs  []field.Element
	// Adversary is nil for an all-honest run.
	Adversary *mpc.Adversary
}

// Build validates the manifest and assembles its run artifacts.
func Build(m *Manifest) (*RunArtifacts, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.Workload != nil {
		return nil, fmt.Errorf("scenario %q: workload manifest: run it with RunWorkloadOpts (the `scenario workload` verb), not RunWith", m.Name)
	}
	circ, err := m.Circuit.Build(m.Parties.N)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: circuit: %w", m.Name, err)
	}
	cfg, adv := m.engineConfig()
	return &RunArtifacts{
		Cfg:       cfg,
		Circuit:   circ,
		Inputs:    buildInputs(m.Inputs, m.Parties.N),
		Adversary: adv,
	}, nil
}

// buildInputs materialises a manifest input list (empty = default 1..n).
func buildInputs(raw []uint64, n int) []field.Element {
	inputs := make([]field.Element, n)
	for i := range inputs {
		if len(raw) > 0 {
			inputs[i] = field.New(raw[i])
		} else {
			inputs[i] = field.New(uint64(i + 1))
		}
	}
	return inputs
}

// engineConfig assembles the manifest's mpc.Config and Adversary — the
// circuit-independent engine parameters shared by the one-shot runner
// and the session-workload runner.
func (m *Manifest) engineConfig() (mpc.Config, *mpc.Adversary) {
	var adv *mpc.Adversary
	if !m.Adversary.IsZero() {
		adv = &mpc.Adversary{
			Passive:     m.Adversary.Passive,
			Silent:      m.Adversary.Silent,
			Garble:      m.Adversary.Garble,
			Equivocate:  m.Adversary.Equivocate,
			StarveFrom:  m.Adversary.StarveFrom,
			StarveUntil: m.Adversary.StarveUntil,
		}
		if len(m.Adversary.CrashAt) > 0 {
			adv.CrashAt = make(map[int]int64, len(m.Adversary.CrashAt))
			for p, t := range m.Adversary.CrashAt {
				adv.CrashAt[p] = t
			}
		}
		if len(m.Adversary.Drop) > 0 {
			adv.Drop = make(map[int]string, len(m.Adversary.Drop))
			for p, sub := range m.Adversary.Drop {
				adv.Drop[p] = sub
			}
		}
		if len(m.Adversary.Delay) > 0 {
			adv.Delay = make(map[int]mpc.DelayRule, len(m.Adversary.Delay))
			for p, rule := range m.Adversary.Delay {
				adv.Delay[p] = mpc.DelayRule{Match: rule.Match, Extra: rule.Extra}
			}
		}
	}
	return mpc.Config{
		N: m.Parties.N, Ts: m.Parties.Ts, Ta: m.Parties.Ta,
		Network:     mpc.Network(m.Network.Kind),
		Delta:       m.Network.Delta,
		Seed:        m.Seed,
		Tail:        m.Network.Tail,
		BurstPeriod: m.Network.BurstPeriod,
		BurstDown:   m.Network.BurstDown,
		SyncOnly:    m.SyncOnly,
		EventLimit:  m.EventLimit,
	}, adv
}

// Report is the outcome of one scenario run: the observed figures plus
// the assertion verdict. All fields are deterministic functions of the
// manifest, so two runs of the same manifest produce identical reports.
type Report struct {
	Name string `json:"name"`
	// Pass is true when the run completed and every assertion held.
	Pass bool `json:"pass"`
	// Failures lists the violated assertions (empty when Pass).
	Failures []string `json:"failures,omitempty"`
	// Err is the engine error, "" on success.
	Err string `json:"err,omitempty"`
	// Outputs are the agreed public outputs (absent when the run
	// failed).
	Outputs []uint64 `json:"outputs,omitempty"`
	// CS is the agreed input-provider set.
	CS []int `json:"cs,omitempty"`
	// LastTick is the virtual time of the last honest termination
	// (corrupt parties' engines keep running honest code and may
	// terminate later; they are excluded).
	LastTick int64 `json:"lastTick"`
	// Deadline is the derived synchronous bound TCirEval.
	Deadline int64 `json:"deadline"`
	// HonestMessages / HonestBytes count honest-party traffic.
	HonestMessages uint64 `json:"honestMessages"`
	HonestBytes    uint64 `json:"honestBytes"`
	// ByFamily breaks honest traffic down by top-level protocol family,
	// straight from the engine's metrics (CLI `-json` consumers no
	// longer re-derive it).
	ByFamily map[string]mpc.FamilyCounts `json:"byFamily,omitempty"`
	// Events is the number of simulator events processed.
	Events uint64 `json:"events"`
}

// RunOptions shapes one RunWith call. The zero value is an untraced
// run on the in-memory simulator.
type RunOptions struct {
	// Tracer receives the run's typed event stream (nil = off).
	Tracer obs.Tracer
	// Transport selects the message-plane backend (nil = the in-memory
	// simulator). The Report is backend-invariant: on a fixed seed a
	// run over real sockets reports bit-identically to the simulator.
	Transport *mpc.TransportSpec
	// Wire, when non-nil, receives the physical wire accounting of the
	// run (zeros on the simulator backend).
	Wire *transport.WireStats
}

// RunWith executes a one-shot manifest and evaluates its assertions,
// with tracing and the pluggable transport backend the deployment
// layer assembles over (docs/deployment.md). Traced runs are
// bit-identical to untraced ones. The returned error covers
// manifest/assembly problems and transport faults only; engine errors
// and assertion failures are reported in the Report.
func RunWith(m *Manifest, opt RunOptions) (*Report, error) {
	art, err := Build(m)
	if err != nil {
		return nil, err
	}
	eng, err := mpc.NewEngineOpts(art.Cfg, mpc.EngineOptions{
		Adversary: art.Adversary,
		Tracer:    opt.Tracer,
		Transport: opt.Transport,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", m.Name, err)
	}
	defer eng.Close()
	res, runErr := eng.OneShot(art.Circuit, art.Inputs)
	if opt.Wire != nil {
		*opt.Wire = eng.WireStats()
	}
	// A transport fault is an environment failure, not a protocol
	// outcome: surface it as a hard error instead of a report row.
	if runErr != nil && errors.Is(runErr, mpc.ErrTransport) {
		return nil, fmt.Errorf("scenario %q: %w", m.Name, runErr)
	}
	rep := &Report{Name: m.Name}
	rep.Err, rep.Outputs, rep.LastTick = digest(m.Adversary, res, runErr)
	if res != nil {
		rep.CS = res.CS
		rep.Deadline = res.Deadline
		rep.HonestMessages = res.HonestMessages
		rep.HonestBytes = res.HonestBytes
		rep.ByFamily = res.ByFamily
		rep.Events = res.Events
	}
	rep.Failures = assertExpect(m.Expect, m.Adversary, art, res, runErr, rep.LastTick, rep.LastTick)
	rep.Pass = len(rep.Failures) == 0
	return rep, nil
}

// digest is the part of an evaluation outcome that RunWith's Report and
// a workload step's row share: the error's manifest name ("" on
// success), the output values (successful runs only) and the virtual
// time of the last honest termination (corrupt parties' engines keep
// running honest code and may terminate later; they are excluded).
func digest(adv AdversarySpec, res *mpc.Result, runErr error) (errStr string, outputs []uint64, lastHonest int64) {
	if runErr != nil {
		errStr = errName(runErr)
	}
	if res == nil {
		return errStr, nil, 0
	}
	corrupt := map[int]bool{}
	for _, p := range adv.Corrupt() {
		corrupt[p] = true
	}
	for i, t := range res.TerminatedAt {
		if !corrupt[i] && t > lastHonest {
			lastHonest = t
		}
	}
	if runErr == nil {
		outputs = make([]uint64, len(res.Outputs))
		for i, o := range res.Outputs {
			outputs[i] = o.Uint64()
		}
	}
	return errStr, outputs, lastHonest
}

// errName maps an engine error to its manifest name.
func errName(err error) string {
	switch {
	case errors.Is(err, mpc.ErrNoHonestOutput):
		return ErrNameNoHonestOutput
	case errors.Is(err, mpc.ErrDisagreement):
		return ErrNameDisagreement
	default:
		return err.Error()
	}
}

// assertExpect evaluates one Expect block. lastAbs is the absolute
// virtual time of the last honest termination (the deadline check);
// lastRel is the tick cost attributed to the evaluation (the maxTicks
// budget) — the two differ for workload steps running late on a
// long-lived engine clock.
func assertExpect(e Expect, advSpec AdversarySpec, art *RunArtifacts, res *mpc.Result, runErr error, lastAbs, lastRel int64) []string {
	var fails []string
	failf := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}

	if e.Error != "" {
		switch {
		case runErr == nil:
			failf("expected error %q, run succeeded", e.Error)
		case errName(runErr) != e.Error:
			failf("expected error %q, got %q", e.Error, errName(runErr))
		}
		return fails
	}
	if runErr != nil {
		failf("expected success, got error %q", errName(runErr))
		return fails
	}

	if len(e.Outputs) > 0 {
		if len(e.Outputs) != len(res.Outputs) {
			failf("expected %d outputs, got %d", len(e.Outputs), len(res.Outputs))
		} else {
			for i, want := range e.Outputs {
				if got := res.Outputs[i].Uint64(); got != want {
					failf("output[%d] = %d, want %d", i, got, want)
				}
			}
		}
	}
	if e.Consistent {
		want, err := mpc.ExpectedOutputs(art.Circuit, art.Inputs, res.CS)
		if err != nil {
			failf("consistency reference evaluation failed: %v", err)
		} else {
			for i := range want {
				if res.Outputs[i] != want[i] {
					failf("output[%d] = %d, inconsistent with clear evaluation %d over CS=%v",
						i, res.Outputs[i].Uint64(), want[i].Uint64(), res.CS)
				}
			}
		}
	}
	if e.MinAgreement > 0 && len(res.CS) < e.MinAgreement {
		failf("|CS| = %d below minAgreement %d (CS=%v)", len(res.CS), e.MinAgreement, res.CS)
	}
	if e.MaxAgreement > 0 && len(res.CS) > e.MaxAgreement {
		failf("|CS| = %d above maxAgreement %d (CS=%v)", len(res.CS), e.MaxAgreement, res.CS)
	}
	if e.AllHonestTerminate && !res.AllHonestTerminated(art.Adversary) {
		var missing []int
		corrupt := map[int]bool{}
		for _, p := range advSpec.Corrupt() {
			corrupt[p] = true
		}
		for i := 1; i < len(res.PerParty); i++ {
			if !corrupt[i] && res.PerParty[i] == nil {
				missing = append(missing, i)
			}
		}
		failf("honest parties %v did not terminate", missing)
	}
	if e.MaxTicks > 0 && lastRel > e.MaxTicks {
		failf("last honest termination at tick %d exceeds maxTicks %d", lastRel, e.MaxTicks)
	}
	if e.WithinDeadline && lastAbs > res.Deadline {
		failf("last honest termination at tick %d exceeds the derived deadline %d", lastAbs, res.Deadline)
	}
	if e.MaxHonestBytes > 0 && res.HonestBytes > e.MaxHonestBytes {
		failf("honest traffic %d bytes exceeds maxHonestBytes %d", res.HonestBytes, e.MaxHonestBytes)
	}
	if e.MaxHonestMessages > 0 && res.HonestMessages > e.MaxHonestMessages {
		failf("honest traffic %d messages exceeds maxHonestMessages %d", res.HonestMessages, e.MaxHonestMessages)
	}
	return fails
}
