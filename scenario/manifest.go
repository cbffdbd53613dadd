// Package scenario makes adversarial protocol configurations a
// first-class, nameable unit: a JSON Manifest describes one complete
// best-of-both-worlds MPC run — parties and thresholds, network model
// and policy parameters, adversary strategy, circuit and inputs, seed —
// together with the expected-outcome assertions the run must satisfy.
//
// Manifests are validated (Manifest.Validate), loaded from JSON (Load,
// LoadFile), executed deterministically (RunWith), and batch-executed on a
// worker pool (Sweep). A registry of built-in scenarios (Builtin,
// Lookup) spans every circuit family and adversary/network combination,
// including fallback-trigger and threshold-boundary cases.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"

	"repro/internal/proto"
	"repro/internal/sim"
)

// Manifest is the declarative description of one protocol run and its
// expected outcome. The zero value is invalid; manifests are built in
// Go (see registry.go) or loaded from JSON (Load, LoadFile).
type Manifest struct {
	// Name identifies the scenario: lowercase words separated by
	// dashes, unique within a registry.
	Name string `json:"name"`
	// Description is a one-line human summary.
	Description string `json:"description,omitempty"`
	// Parties carries n and the two corruption thresholds.
	Parties Parties `json:"parties"`
	// Network selects the network model and its policy parameters.
	Network NetworkSpec `json:"network"`
	// Adversary describes the corruption strategy; the zero value is
	// an all-honest run.
	Adversary AdversarySpec `json:"adversary,omitempty"`
	// Circuit selects the workload.
	Circuit CircuitSpec `json:"circuit"`
	// Inputs are the parties' private inputs as field values; empty
	// means the default 1..n.
	Inputs []uint64 `json:"inputs,omitempty"`
	// Seed makes the run fully deterministic.
	Seed uint64 `json:"seed"`
	// SyncOnly disables every asynchronous fallback path (the paper's
	// SMPC-style ablation baseline).
	SyncOnly bool `json:"syncOnly,omitempty"`
	// EventLimit caps scheduler events; 0 uses the engine default.
	// Scenarios that expect a liveness failure must set it. For a
	// workload manifest the limit is the engine's lifetime budget
	// across preprocessing and every evaluation.
	EventLimit uint64 `json:"eventLimit,omitempty"`
	// Expect holds the assertions evaluated against the run's result.
	Expect Expect `json:"expect"`
	// Workload, when present, turns the manifest into a session-engine
	// workload: one mpc.Engine preprocesses a triple budget and then
	// serves the steps' evaluations in sequence (RunWorkloadOpts, the
	// `scenario workload` verb). Circuits, inputs and assertions move
	// into the steps; the top-level Circuit, Inputs and Expect must be
	// absent.
	Workload *WorkloadSpec `json:"workload,omitempty"`
}

// Parties carries the resilience parameters of a manifest.
type Parties struct {
	// N is the number of parties; Ts and Ta the corruption thresholds
	// under synchrony resp. asynchrony (Ta ≤ Ts, 3·Ts + Ta < N).
	N  int `json:"n"`
	Ts int `json:"ts"`
	Ta int `json:"ta"`
}

// AtBoundary reports whether the configuration sits on the paper's
// feasibility boundary 3·Ts + Ta = N − 1 (the largest thresholds any
// best-of-both-worlds protocol can tolerate for this N).
func (p Parties) AtBoundary() bool { return 3*p.Ts+p.Ta == p.N-1 }

// NetworkSpec selects the simulated network model and its parameters.
type NetworkSpec struct {
	// Kind is "sync" or "async".
	Kind string `json:"kind"`
	// Delta is the synchronous delivery bound Δ in virtual ticks
	// (default 10).
	Delta int64 `json:"delta,omitempty"`
	// Tail, for async networks, overrides the heavy-tail probability
	// of the delay distribution (default 0.15).
	Tail float64 `json:"tail,omitempty"`
	// BurstPeriod/BurstDown, for async networks, add periodic outages:
	// deliveries landing in the first BurstDown ticks of each
	// BurstPeriod-tick window are pushed past the outage. Zero
	// disables bursts; 0 < BurstDown < BurstPeriod otherwise.
	BurstPeriod int64 `json:"burstPeriod,omitempty"`
	BurstDown   int64 `json:"burstDown,omitempty"`
}

// AdversarySpec describes the static corruption strategy. Passive,
// Silent, Garble, CrashAt, Drop, Delay and Equivocate parties count
// against the corruption budget max(Ts, Ta); StarveFrom parties do not
// — starvation is adversarial network scheduling of honest parties'
// links (the paper's asynchronous scheduler), not a corruption (see
// Corrupt). A party named in several fields runs all those behaviours
// chained.
type AdversarySpec struct {
	// Passive parties follow the protocol; the adversary only reads
	// their state.
	Passive []int `json:"passive,omitempty"`
	// Silent parties are crashed from the start and never send.
	Silent []int `json:"silent,omitempty"`
	// Garble parties send byte-flipped garbage on every link.
	Garble []int `json:"garble,omitempty"`
	// CrashAt stops a party's sends from the given virtual tick.
	CrashAt map[int]int64 `json:"crashAt,omitempty"`
	// Drop makes a party withhold every message whose instance path
	// contains the given substring ("" drops everything).
	Drop map[int]string `json:"drop,omitempty"`
	// Delay makes a party withhold matching messages for extra ticks.
	Delay map[int]DelayRule `json:"delay,omitempty"`
	// Equivocate parties send byte-flipped payloads to the upper half
	// of recipients (party index > n/2) and honest payloads to the
	// rest.
	Equivocate []int `json:"equivocate,omitempty"`
	// StarveFrom starves every link out of the listed parties until
	// StarveUntil (default 500·Δ), modelling the adversarial scheduler.
	StarveFrom  []int `json:"starveFrom,omitempty"`
	StarveUntil int64 `json:"starveUntil,omitempty"`
}

// DelayRule is one targeted-delay behaviour: messages whose instance
// path contains Match ("" matches all) are withheld for Extra extra
// virtual ticks.
type DelayRule struct {
	Match string `json:"match,omitempty"`
	Extra int64  `json:"extra"`
}

// IsZero reports whether the spec describes an all-honest run.
func (a AdversarySpec) IsZero() bool {
	return len(a.Passive) == 0 && len(a.Silent) == 0 && len(a.Garble) == 0 &&
		len(a.CrashAt) == 0 && len(a.Drop) == 0 && len(a.Delay) == 0 &&
		len(a.Equivocate) == 0 && len(a.StarveFrom) == 0
}

// Corrupt returns the deduplicated set of corrupted parties (parties
// that count against the corruption budget). Starved parties are not
// corrupt: starvation is a property of the network schedule.
func (a AdversarySpec) Corrupt() []int {
	seen := map[int]bool{}
	for _, ps := range [][]int{a.Passive, a.Silent, a.Garble, a.Equivocate} {
		for _, p := range ps {
			seen[p] = true
		}
	}
	for p := range a.CrashAt {
		seen[p] = true
	}
	for p := range a.Drop {
		seen[p] = true
	}
	for p := range a.Delay {
		seen[p] = true
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Summary renders a compact human description of the strategy.
func (a AdversarySpec) Summary() string {
	if a.IsZero() {
		return "honest"
	}
	s := ""
	add := func(label string, ps []int) {
		if len(ps) > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s%v", label, ps)
		}
	}
	add("passive", a.Passive)
	add("silent", a.Silent)
	add("garble", a.Garble)
	add("crash", sortedKeys(a.CrashAt))
	add("drop", sortedKeys(a.Drop))
	add("delay", sortedKeys(a.Delay))
	add("equiv", a.Equivocate)
	add("starve", a.StarveFrom)
	return s
}

// sortedKeys returns the sorted party keys of a per-party map.
func sortedKeys[V any](m map[int]V) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Expect holds the expected-outcome assertions of a scenario. Zero
// fields are unchecked, except that a zero Error asserts the run
// succeeds.
type Expect struct {
	// Error expects the run to fail with the named engine error:
	// "no-honest-output" or "disagreement". Empty expects success.
	Error string `json:"error,omitempty"`
	// Outputs asserts the exact agreed public outputs.
	Outputs []uint64 `json:"outputs,omitempty"`
	// Consistent asserts the agreed outputs equal the clear-text
	// evaluation of the circuit over the agreed input-provider set.
	Consistent bool `json:"consistent,omitempty"`
	// MinAgreement / MaxAgreement bound the agreement-set size |CS|
	// (0 = unchecked).
	MinAgreement int `json:"minAgreement,omitempty"`
	MaxAgreement int `json:"maxAgreement,omitempty"`
	// AllHonestTerminate asserts every honest party terminated.
	AllHonestTerminate bool `json:"allHonestTerminate,omitempty"`
	// MaxTicks budgets the virtual time of the last honest
	// termination (0 = unchecked).
	MaxTicks int64 `json:"maxTicks,omitempty"`
	// WithinDeadline asserts the last honest termination meets the
	// derived synchronous deadline TCirEval.
	WithinDeadline bool `json:"withinDeadline,omitempty"`
	// MaxHonestBytes / MaxHonestMessages budget honest-party traffic
	// (0 = unchecked).
	MaxHonestBytes    uint64 `json:"maxHonestBytes,omitempty"`
	MaxHonestMessages uint64 `json:"maxHonestMessages,omitempty"`
}

// Expected engine-error names for Expect.Error.
const (
	ErrNameNoHonestOutput = "no-honest-output"
	ErrNameDisagreement   = "disagreement"
)

var nameRE = regexp.MustCompile(`^[a-z0-9]+(-[a-z0-9]+)*$`)

// Validate checks the manifest and returns the first problem found,
// phrased precisely enough to fix the manifest without reading code.
func (m *Manifest) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s", m.Name, fmt.Sprintf(format, args...))
	}
	if m.Name == "" {
		return fmt.Errorf("scenario: name must not be empty")
	}
	if !nameRE.MatchString(m.Name) {
		return fmt.Errorf("scenario %q: name must be lowercase words separated by dashes", m.Name)
	}
	p := m.Parties
	pcfg := proto.Config{N: p.N, Ts: p.Ts, Ta: p.Ta, Delta: sim.Time(m.Network.Delta)}
	if pcfg.Delta == 0 {
		pcfg.Delta = 10
	}
	if err := pcfg.Validate(); err != nil {
		return bad("parties: %v", err)
	}
	switch m.Network.Kind {
	case "sync", "async":
	case "":
		return bad("network.kind is required (\"sync\" or \"async\")")
	default:
		return bad("network.kind %q is not \"sync\" or \"async\"", m.Network.Kind)
	}
	if m.Network.Delta < 0 {
		return bad("network.delta must be >= 0, have %d", m.Network.Delta)
	}
	if m.Network.Tail < 0 || m.Network.Tail > 1 {
		return bad("network.tail must be in [0, 1], have %v", m.Network.Tail)
	}
	if m.Network.Tail != 0 && m.Network.Kind != "async" {
		return bad("network.tail only applies to the async network")
	}
	if m.Network.BurstPeriod != 0 || m.Network.BurstDown != 0 {
		if m.Network.Kind != "async" {
			return bad("network.burstPeriod/burstDown only apply to the async network (outages break the sync Δ bound)")
		}
		if m.Network.BurstPeriod <= 0 || m.Network.BurstDown <= 0 || m.Network.BurstDown >= m.Network.BurstPeriod {
			return bad("network bursts need 0 < burstDown < burstPeriod, have down=%d period=%d",
				m.Network.BurstDown, m.Network.BurstPeriod)
		}
	}
	if err := m.validateAdversary(); err != nil {
		return err
	}
	if m.Workload != nil {
		return m.validateWorkload()
	}
	if err := m.Circuit.check(p.N); err != nil {
		return bad("circuit: %v", err)
	}
	if len(m.Inputs) != 0 && len(m.Inputs) != p.N {
		return bad("inputs: have %d values, need 0 (default 1..n) or exactly n = %d", len(m.Inputs), p.N)
	}
	return m.validateExpectBlock(m.Expect, "expect")
}

func (m *Manifest) validateAdversary() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s", m.Name, fmt.Sprintf(format, args...))
	}
	a := m.Adversary
	n := m.Parties.N
	checkRange := func(field string, ps []int) error {
		for _, p := range ps {
			if p < 1 || p > n {
				return bad("adversary.%s: party %d out of range 1..%d", field, p, n)
			}
		}
		return nil
	}
	for _, fp := range []struct {
		name string
		ps   []int
	}{{"passive", a.Passive}, {"silent", a.Silent}, {"garble", a.Garble},
		{"equivocate", a.Equivocate}, {"starveFrom", a.StarveFrom}} {
		if err := checkRange(fp.name, fp.ps); err != nil {
			return err
		}
	}
	for p, t := range a.CrashAt {
		if p < 1 || p > n {
			return bad("adversary.crashAt: party %d out of range 1..%d", p, n)
		}
		if t < 0 {
			return bad("adversary.crashAt[%d]: tick must be >= 0, have %d", p, t)
		}
	}
	for p := range a.Drop {
		if p < 1 || p > n {
			return bad("adversary.drop: party %d out of range 1..%d", p, n)
		}
	}
	for p, rule := range a.Delay {
		if p < 1 || p > n {
			return bad("adversary.delay: party %d out of range 1..%d", p, n)
		}
		if rule.Extra < 1 {
			return bad("adversary.delay[%d]: extra must be >= 1, have %d", p, rule.Extra)
		}
	}
	budget := m.Parties.Ts
	if m.Parties.Ta > budget {
		budget = m.Parties.Ta
	}
	if c := a.Corrupt(); len(c) > budget {
		return bad("adversary corrupts %d parties %v (passive/silent/garble/crashAt/drop/delay/equivocate; starveFrom is network scheduling, not corruption), exceeding the budget max(ts, ta) = %d", len(c), c, budget)
	}
	if a.StarveUntil != 0 && len(a.StarveFrom) == 0 {
		return bad("adversary.starveUntil set without adversary.starveFrom")
	}
	if a.StarveUntil < 0 {
		return bad("adversary.starveUntil must be >= 0, have %d", a.StarveUntil)
	}
	return nil
}

// validateExpectBlock checks one Expect block; label names the block in
// error messages ("expect" for the top level, "workload.steps[k].expect"
// for a workload step).
func (m *Manifest) validateExpectBlock(e Expect, label string) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s", m.Name, fmt.Sprintf(format, args...))
	}
	switch e.Error {
	case "", ErrNameNoHonestOutput, ErrNameDisagreement:
	default:
		return bad("%s.error %q is not %q or %q", label, e.Error, ErrNameNoHonestOutput, ErrNameDisagreement)
	}
	if e.Error != "" {
		if len(e.Outputs) > 0 || e.Consistent || e.AllHonestTerminate || e.WithinDeadline ||
			e.MinAgreement > 0 || e.MaxAgreement > 0 || e.MaxTicks > 0 ||
			e.MaxHonestBytes > 0 || e.MaxHonestMessages > 0 {
			return bad("%s.error %q cannot be combined with success assertions", label, e.Error)
		}
		if e.Error == ErrNameNoHonestOutput && m.EventLimit == 0 {
			return bad("%s.error %q requires an eventLimit so a non-terminating run is cut off", label, e.Error)
		}
	}
	n := m.Parties.N
	if e.MinAgreement < 0 || e.MinAgreement > n {
		return bad("%s.minAgreement %d out of range 0..%d", label, e.MinAgreement, n)
	}
	if e.MaxAgreement < 0 || e.MaxAgreement > n {
		return bad("%s.maxAgreement %d out of range 0..%d", label, e.MaxAgreement, n)
	}
	if e.MaxAgreement != 0 && e.MinAgreement > e.MaxAgreement {
		return bad("%s.minAgreement %d exceeds %s.maxAgreement %d", label, e.MinAgreement, label, e.MaxAgreement)
	}
	if e.MaxTicks < 0 {
		return bad("%s.maxTicks must be >= 0, have %d", label, e.MaxTicks)
	}
	if e.WithinDeadline && m.Network.Kind != "sync" {
		return bad("%s.withinDeadline requires the sync network (the deadline is a synchronous-run bound)", label)
	}
	return nil
}

// Parse decodes one manifest from JSON, rejecting unknown fields but
// NOT validating it. It exists for the fuzzing replay path: a minimized
// counterexample may deliberately violate validation (e.g. an
// over-budget adversary), yet must still round-trip through JSON so the
// violation reproduces from the saved file. Everything else should use
// Load.
func Parse(data []byte) (*Manifest, error) {
	return decode(data)
}

// Load parses one manifest from JSON, rejecting unknown fields, and
// validates it.
func Load(data []byte) (*Manifest, error) {
	m, err := decode(data)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadFile reads and validates a manifest (or a JSON array of
// manifests, all of which must validate) from path.
func LoadFile(path string) ([]*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var ms []*Manifest
	if len(data) > 0 && firstByte(data) == '[' {
		if err := unmarshalStrict(data, &ms); err != nil {
			return nil, fmt.Errorf("scenario: %s: %w", path, err)
		}
	} else {
		var m Manifest
		if err := unmarshalStrict(data, &m); err != nil {
			return nil, fmt.Errorf("scenario: %s: %w", path, err)
		}
		ms = []*Manifest{&m}
	}
	for i, m := range ms {
		if m == nil {
			return nil, fmt.Errorf("scenario: %s: manifest %d is null", path, i)
		}
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return ms, nil
}

// JSON renders the manifest as indented JSON.
func (m *Manifest) JSON() []byte {
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // a Manifest is always marshalable
	}
	return out
}

func decode(data []byte) (*Manifest, error) {
	var m Manifest
	if err := unmarshalStrict(data, &m); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return &m, nil
}

func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("json: trailing content after the manifest")
	}
	return nil
}

func firstByte(data []byte) byte {
	for _, b := range data {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		}
		return b
	}
	return 0
}
