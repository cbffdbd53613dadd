package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/transport"
	"repro/mpc"
)

// A PartySet is a deployment manifest: the declarative description of a
// party fleet — how many parties at which resilience thresholds, which
// transport backend carries their traffic, where each party listens,
// and which builtin scenario or workload the fleet executes. It is the
// deployment-plane counterpart of the protocol-plane Manifest: the
// Manifest says WHAT the parties compute, the PartySet says HOW they
// are wired together. Reify resolves a validated set into a fully
// concrete Deployment before anything launches (docs/deployment.md).
type PartySet struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Parties must equal the referenced manifest's parties: a party set
	// cannot silently re-shape the protocol it deploys.
	Parties Parties `json:"parties"`
	// Transport selects the real message-plane backend.
	Transport DeployTransport `json:"transport"`
	// Endpoints optionally pin one listen address per party; empty
	// auto-assigns (unix paths in a temp dir, TCP loopback ":0").
	Endpoints []EndpointSpec `json:"endpoints,omitempty"`
	// Exactly one of Scenario/Workload names the builtin to execute.
	Scenario string `json:"scenario,omitempty"`
	Workload string `json:"workload,omitempty"`
	// Checkpoint optionally resumes the workload from a checkpoint file
	// written by `scenario workload -checkpoint` (workload sets only).
	Checkpoint string `json:"checkpoint,omitempty"`
}

// DeployTransport is the party set's backend selection.
type DeployTransport struct {
	// Kind is "unix" or "tcp" — a deployment is by definition over a
	// real backend; the simulator is reached through the deploy verb's
	// -backend override, as the differential reference.
	Kind string `json:"kind"`
	// Dir, with kind "unix" and no pinned endpoints, is the directory
	// for auto-assigned socket paths (empty = fresh temp dir).
	Dir string `json:"dir,omitempty"`
	// IOTimeoutMs bounds every socket write and frame wait in
	// milliseconds (0 = the backend default).
	IOTimeoutMs int `json:"ioTimeoutMs,omitempty"`
}

// EndpointSpec pins one party's listen address.
type EndpointSpec struct {
	Party int    `json:"party"`
	Addr  string `json:"addr"`
}

// ErrPartySet is the sentinel every party-set validation error wraps:
// errors.Is(err, ErrPartySet) catches them all, errors.As with a
// *PartySetError recovers the offending field.
var ErrPartySet = errors.New("scenario: invalid party set")

// PartySetError is a typed party-set validation failure.
type PartySetError struct {
	// Set is the party set's name ("" when the name itself is bad).
	Set string
	// Field is the JSON path of the offending field.
	Field string
	// Msg says what is wrong with it.
	Msg string
}

func (e *PartySetError) Error() string {
	return fmt.Sprintf("party set %q: %s: %s", e.Set, e.Field, e.Msg)
}

func (e *PartySetError) Unwrap() error { return ErrPartySet }

func (s *PartySet) bad(field, format string, args ...any) error {
	return &PartySetError{Set: s.Name, Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Validate checks the party set and returns the first problem found as
// a *PartySetError (wrapping ErrPartySet).
func (s *PartySet) Validate() error {
	if !nameRE.MatchString(s.Name) {
		return s.bad("name", "must be lowercase words separated by dashes, have %q", s.Name)
	}
	p := s.Parties
	if p.N < 4 {
		return s.bad("parties.n", "need at least 4 parties, have %d", p.N)
	}
	if p.Ts < 1 {
		return s.bad("parties.ts", "must be >= 1, have %d", p.Ts)
	}
	if p.Ta < 0 || p.Ta > p.Ts {
		return s.bad("parties.ta", "must satisfy 0 <= ta <= ts = %d, have %d", p.Ts, p.Ta)
	}
	if 3*p.Ts+p.Ta >= p.N {
		return s.bad("parties", "thresholds infeasible: 3·ts+ta = %d must be below n = %d", 3*p.Ts+p.Ta, p.N)
	}
	switch s.Transport.Kind {
	case "unix", "tcp":
	default:
		return s.bad("transport.kind", `must be "unix" or "tcp", have %q`, s.Transport.Kind)
	}
	if s.Transport.Dir != "" && s.Transport.Kind != "unix" {
		return s.bad("transport.dir", `only applies to kind "unix"`)
	}
	if s.Transport.IOTimeoutMs < 0 {
		return s.bad("transport.ioTimeoutMs", "must be >= 0, have %d", s.Transport.IOTimeoutMs)
	}
	if len(s.Endpoints) != 0 && len(s.Endpoints) != p.N {
		return s.bad("endpoints", "have %d, need 0 (auto-assign) or exactly n = %d", len(s.Endpoints), p.N)
	}
	seenParty := make(map[int]bool, len(s.Endpoints))
	seenAddr := make(map[string]bool, len(s.Endpoints))
	for i, ep := range s.Endpoints {
		field := fmt.Sprintf("endpoints[%d]", i)
		if ep.Party < 1 || ep.Party > p.N {
			return s.bad(field+".party", "out of range 1..%d, have %d", p.N, ep.Party)
		}
		if seenParty[ep.Party] {
			return s.bad(field+".party", "duplicate endpoint for party %d", ep.Party)
		}
		seenParty[ep.Party] = true
		if ep.Addr == "" {
			return s.bad(field+".addr", "must not be empty")
		}
		if seenAddr[ep.Addr] {
			return s.bad(field+".addr", "duplicate address %q", ep.Addr)
		}
		seenAddr[ep.Addr] = true
	}
	switch {
	case s.Scenario == "" && s.Workload == "":
		return s.bad("scenario", "a party set executes exactly one builtin: set scenario or workload")
	case s.Scenario != "" && s.Workload != "":
		return s.bad("scenario", "scenario and workload are mutually exclusive")
	}
	if s.Checkpoint != "" && s.Workload == "" {
		return s.bad("checkpoint", "a checkpoint resume needs a workload reference")
	}
	m, err := s.manifest()
	if err != nil {
		return err
	}
	if m.Parties != p {
		return s.bad("parties", "referenced builtin %q runs n=%d ts=%d ta=%d, the set declares n=%d ts=%d ta=%d",
			m.Name, m.Parties.N, m.Parties.Ts, m.Parties.Ta, p.N, p.Ts, p.Ta)
	}
	return nil
}

// manifest resolves the referenced builtin.
func (s *PartySet) manifest() (*Manifest, error) {
	if s.Workload != "" {
		m, err := LookupWorkload(s.Workload)
		if err != nil {
			return nil, s.bad("workload", "%v", err)
		}
		return m, nil
	}
	m, err := Lookup(s.Scenario)
	if err != nil {
		return nil, s.bad("scenario", "%v", err)
	}
	return m, nil
}

// ParsePartySet decodes and validates one JSON party-set document.
// Unknown fields and trailing garbage are rejected.
func ParsePartySet(data []byte) (*PartySet, error) {
	s := &PartySet{}
	if err := unmarshalStrict(data, s); err != nil {
		return nil, fmt.Errorf("scenario: party set: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadPartySetFile reads and validates a party-set manifest file.
func LoadPartySetFile(path string) (*PartySet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParsePartySet(data)
}

// A Deployment is a fully reified party set: every launch decision —
// the manifest to execute, the concrete transport spec, the loaded
// resume checkpoint — resolved and validated before anything starts.
type Deployment struct {
	Set      *PartySet
	Manifest *Manifest
	// Spec is the resolved transport (nil = the in-memory simulator,
	// reachable via UseBackend — the differential reference).
	Spec *mpc.TransportSpec
	// Resume is the loaded workload checkpoint (nil = start fresh).
	Resume *WorkloadCheckpoint
}

// Reify validates the party set and resolves it into a Deployment:
// builtin lookup, address table, transport spec, checkpoint load. After
// Reify nothing about the launch is implicit.
func (s *PartySet) Reify() (*Deployment, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m, err := s.manifest()
	if err != nil {
		return nil, err
	}
	spec := &mpc.TransportSpec{
		Kind:      s.Transport.Kind,
		Dir:       s.Transport.Dir,
		IOTimeout: time.Duration(s.Transport.IOTimeoutMs) * time.Millisecond,
	}
	if len(s.Endpoints) > 0 {
		addrs := make([]string, s.Parties.N)
		for _, ep := range s.Endpoints {
			addrs[ep.Party-1] = ep.Addr
		}
		spec.Addrs = addrs
	}
	d := &Deployment{Set: s, Manifest: m, Spec: spec}
	if s.Checkpoint != "" {
		ck, err := LoadWorkloadCheckpoint(s.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("party set %q: checkpoint %s: %w", s.Name, s.Checkpoint, err)
		}
		d.Resume = ck
	}
	return d, nil
}

// Backend names the deployment's effective backend.
func (d *Deployment) Backend() string {
	if d.Spec == nil || d.Spec.Kind == "" || d.Spec.Kind == "sim" {
		return "sim"
	}
	return d.Spec.Kind
}

// UseBackend overrides the reified backend: "sim" swaps in the
// in-memory simulator (the deploy-smoke differential reference),
// "unix"/"tcp" swap the socket flavour with auto-assigned addresses,
// "" keeps the manifest's choice.
func (d *Deployment) UseBackend(kind string) error {
	switch kind {
	case "":
		return nil
	case "sim":
		d.Spec = nil
	case "unix", "tcp":
		var timeout time.Duration
		if d.Spec != nil {
			timeout = d.Spec.IOTimeout
		}
		d.Spec = &mpc.TransportSpec{Kind: kind, IOTimeout: timeout}
	default:
		return fmt.Errorf("scenario: unknown backend override %q (want sim, unix or tcp)", kind)
	}
	return nil
}

// DeployReport is the outcome of one Deployment execution. The inner
// Scenario/Workload report is backend-invariant (the differential
// guarantee); WallMs and Wire are the backend-specific physics.
type DeployReport struct {
	Name    string `json:"name"`
	Backend string `json:"backend"`
	Pass    bool   `json:"pass"`
	// WallMs is real elapsed time — the only non-deterministic field.
	WallMs float64 `json:"wallMs"`
	// Wire is the physical frame/byte accounting (zeros on sim).
	Wire transport.WireStats `json:"wire"`
	// Exactly one of Scenario/Workload carries the protocol outcome.
	Scenario *Report         `json:"scenario,omitempty"`
	Workload *WorkloadReport `json:"workload,omitempty"`
}

// Inner returns the backend-invariant part of the report: bit-identical
// JSON across sim/unix/tcp on the same seed, the `cmp` unit of
// `make deploy-smoke`.
func (r *DeployReport) Inner() any {
	if r.Workload != nil {
		return r.Workload
	}
	return r.Scenario
}

// Execute runs the deployment to completion: the referenced scenario or
// workload over the reified backend.
func (d *Deployment) Execute() (*DeployReport, error) {
	rep := &DeployReport{Name: d.Set.Name, Backend: d.Backend()}
	start := time.Now()
	var wire transport.WireStats
	if d.Manifest.Workload != nil {
		opt := WorkloadRunOptions{Transport: d.Spec, Wire: &wire}
		if d.Resume != nil {
			// A resume must match the options recorded in the checkpoint;
			// adopt them (the transport is free — it is not part of the
			// checkpoint identity).
			opt.Resume = d.Resume
			opt.Compare = d.Resume.Compare
			opt.PerGateEval = d.Resume.PerGateEval
		}
		wrep, err := RunWorkloadOpts(d.Manifest, opt)
		if err != nil {
			return nil, err
		}
		rep.Workload = wrep
		rep.Pass = wrep.Pass
	} else {
		srep, err := RunWith(d.Manifest, RunOptions{Transport: d.Spec, Wire: &wire})
		if err != nil {
			return nil, err
		}
		rep.Scenario = srep
		rep.Pass = srep.Pass
	}
	rep.WallMs = float64(time.Since(start).Microseconds()) / 1000
	rep.Wire = wire
	return rep, nil
}

// ServeReport summarizes a Serve session.
type ServeReport struct {
	Name    string `json:"name"`
	Backend string `json:"backend"`
	// Addrs are the resolved listen addresses (index i-1 for party i).
	Addrs    []string            `json:"addrs,omitempty"`
	Rounds   int                 `json:"rounds"`
	Evals    int                 `json:"evals"`
	Failures int                 `json:"failures"`
	WallMs   float64             `json:"wallMs"`
	Wire     transport.WireStats `json:"wire"`
}

// Serve runs the deployment as a long-lived serving session: one
// engine (optionally restored from the set's checkpoint) preprocesses
// once and serves the workload's steps `rounds` times over, printing a
// row per evaluation to w. It requires a workload reference — serving
// is what the session engine exists for.
func (d *Deployment) Serve(w io.Writer, rounds int) (*ServeReport, error) {
	if d.Manifest.Workload == nil {
		return nil, fmt.Errorf("party set %q: serve needs a workload reference (one-shot scenarios deploy with Execute)", d.Set.Name)
	}
	if rounds < 1 {
		rounds = 1
	}
	if w == nil {
		w = io.Discard
	}
	m := d.Manifest
	cfg, adv := m.engineConfig()
	eopts := mpc.EngineOptions{Adversary: adv, Transport: d.Spec}
	var eng *mpc.Engine
	var err error
	if d.Resume != nil {
		eng, err = mpc.RestoreEngineOpts(cfg, eopts, bytes.NewReader(d.Resume.Engine))
	} else {
		eng, err = mpc.NewEngineOpts(cfg, eopts)
	}
	if err != nil {
		return nil, fmt.Errorf("party set %q: %w", d.Set.Name, err)
	}
	defer eng.Close()

	rep := &ServeReport{Name: d.Set.Name, Backend: d.Backend(), Rounds: rounds, Addrs: eng.TransportAddrs()}
	fmt.Fprintf(w, "serving %s (%s) over %s: n=%d ts=%d ta=%d, %d step(s) x %d round(s)\n",
		d.Set.Name, m.Name, rep.Backend, cfg.N, cfg.Ts, cfg.Ta, len(m.Workload.Steps), rounds)
	for i, addr := range rep.Addrs {
		fmt.Fprintf(w, "  party %d listens on %s\n", i+1, addr)
	}

	steps, muls, err := buildSteps(m, cfg, adv)
	if err != nil {
		return nil, fmt.Errorf("party set %q: %w", d.Set.Name, err)
	}
	if d.Resume == nil {
		if _, err := eng.Preprocess(max(1, muls*rounds)); err != nil {
			return nil, fmt.Errorf("party set %q: preprocess: %w", d.Set.Name, err)
		}
	}

	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i, s := range steps {
			res, runErr := evaluateRefilling(eng, s.art)
			if runErr != nil && errors.Is(runErr, mpc.ErrTransport) {
				return nil, fmt.Errorf("party set %q: round %d step %d: %w", d.Set.Name, r+1, i, runErr)
			}
			rep.Evals++
			sr := workloadStepRow(m, i, s, res, runErr)
			if !sr.Pass {
				rep.Failures++
			}
			fmt.Fprintf(w, "  round %d step %d %-14s t=%-6d %8d msgs |CS|=%d ok=%v\n",
				r+1, i, sr.Circuit, sr.Ticks, sr.HonestMessages, len(sr.CS), sr.Pass)
			for _, f := range sr.Failures {
				fmt.Fprintf(w, "      assertion failed: %s\n", f)
			}
		}
	}
	rep.WallMs = float64(time.Since(start).Microseconds()) / 1000
	rep.Wire = eng.WireStats()
	fmt.Fprintf(w, "served %d evaluation(s), %d failure(s), %.1f ms, %d wire bytes\n",
		rep.Evals, rep.Failures, rep.WallMs, rep.Wire.BytesOut)
	return rep, nil
}

// builtinPartySets is the registry of named built-in deployments.
var builtinPartySets = map[string]*PartySet{}

// registerPartySet adds s to the registry. Unlike the scenario and
// workload registries it cannot fully validate at init time — a party
// set references builtins whose own init may not have run yet — so
// full validation happens at Reify (and in TestBuiltinPartySetsValid).
func registerPartySet(s *PartySet) {
	if _, dup := builtinPartySets[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate builtin party set %q", s.Name))
	}
	builtinPartySets[s.Name] = s
}

// PartySetNames returns the sorted names of the built-in party sets.
func PartySetNames() []string {
	out := make([]string, 0, len(builtinPartySets))
	for name := range builtinPartySets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// BuiltinPartySets returns the built-in party sets sorted by name.
func BuiltinPartySets() []*PartySet {
	out := make([]*PartySet, 0, len(builtinPartySets))
	for _, name := range PartySetNames() {
		out = append(out, builtinPartySets[name])
	}
	return out
}

// LookupPartySet returns the built-in party set with the given name.
func LookupPartySet(name string) (*PartySet, error) {
	s, ok := builtinPartySets[name]
	if !ok {
		return nil, fmt.Errorf("scenario: no builtin party set named %q (see PartySetNames)", name)
	}
	return s, nil
}

func init() {
	// deploy-unix-n5 is the deploy-smoke set: small, fast, and its
	// scenario pins exact outputs — the cmp against a -backend sim run
	// of the same set is the end-to-end differential gate.
	registerPartySet(&PartySet{
		Name:        "deploy-unix-n5",
		Description: "boundary n=5 one-shot sum over unix sockets (the deploy-smoke set)",
		Parties:     boundaryN5,
		Transport:   DeployTransport{Kind: "unix"},
		Scenario:    "sync-boundary-n5",
	})
	registerPartySet(&PartySet{
		Name:        "deploy-tcp-n8",
		Description: "flagship n=8 one-shot sum over TCP loopback",
		Parties:     flagship,
		Transport:   DeployTransport{Kind: "tcp"},
		Scenario:    "sync-sum-honest",
	})
	registerPartySet(&PartySet{
		Name:        "deploy-unix-n5-workload",
		Description: "the 8-evaluation amortization workload served over unix sockets",
		Parties:     boundaryN5,
		Transport:   DeployTransport{Kind: "unix"},
		Workload:    "workload-amortize-sync",
	})
}
