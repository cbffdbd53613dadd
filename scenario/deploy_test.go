package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/transport"
	"repro/mpc"
)

// validSet returns a well-formed ad-hoc party set referencing the
// boundary scenario, for the negative table to mutate.
func validSet() *PartySet {
	return &PartySet{
		Name:      "probe-set",
		Parties:   boundaryN5,
		Transport: DeployTransport{Kind: "unix"},
		Scenario:  "sync-boundary-n5",
	}
}

// fiveEndpoints pins five distinct placeholder addresses.
func fiveEndpoints() []EndpointSpec {
	eps := make([]EndpointSpec, 5)
	for i := range eps {
		eps[i] = EndpointSpec{Party: i + 1, Addr: fmt.Sprintf("addr-%d", i+1)}
	}
	return eps
}

// TestBuiltinPartySetsValid replaces the init-time validation the
// registry cannot do (package init order): every builtin party set must
// validate, resolve and reify to a non-simulator backend.
func TestBuiltinPartySetsValid(t *testing.T) {
	sets := BuiltinPartySets()
	if len(sets) == 0 {
		t.Fatal("no builtin party sets registered")
	}
	for _, s := range sets {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if _, err := LookupPartySet(s.Name); err != nil {
			t.Errorf("%s: lookup: %v", s.Name, err)
		}
		d, err := s.Reify()
		if err != nil {
			t.Errorf("%s: reify: %v", s.Name, err)
			continue
		}
		if d.Backend() == "sim" {
			t.Errorf("%s: a builtin deployment must name a real backend", s.Name)
		}
	}
	if _, err := LookupPartySet("no-such-set"); err == nil {
		t.Error("lookup of unknown party set succeeded")
	}
}

// TestPartySetValidation drives every validation rule to its typed
// error: each rejected set surfaces a *PartySetError wrapping
// ErrPartySet and naming the offending field.
func TestPartySetValidation(t *testing.T) {
	if err := validSet().Validate(); err != nil {
		t.Fatalf("baseline set invalid: %v", err)
	}
	cases := []struct {
		name  string
		field string
		mut   func(*PartySet)
	}{
		{"bad name", "name", func(s *PartySet) { s.Name = "Bad_Name" }},
		{"too few parties", "parties.n", func(s *PartySet) { s.Parties = Parties{N: 3, Ts: 1, Ta: 0} }},
		{"zero ts", "parties.ts", func(s *PartySet) { s.Parties = Parties{N: 5, Ts: 0, Ta: 0} }},
		{"ta above ts", "parties.ta", func(s *PartySet) { s.Parties = Parties{N: 5, Ts: 1, Ta: 2} }},
		{"infeasible thresholds", "parties", func(s *PartySet) { s.Parties = Parties{N: 5, Ts: 2, Ta: 0} }},
		{"sim is not a deployable kind", "transport.kind", func(s *PartySet) { s.Transport.Kind = "sim" }},
		{"dir needs unix", "transport.dir", func(s *PartySet) {
			s.Transport = DeployTransport{Kind: "tcp", Dir: "/tmp/socks"}
		}},
		{"negative timeout", "transport.ioTimeoutMs", func(s *PartySet) { s.Transport.IOTimeoutMs = -1 }},
		{"endpoint count", "endpoints", func(s *PartySet) { s.Endpoints = fiveEndpoints()[:2] }},
		{"endpoint party range", "endpoints[1].party", func(s *PartySet) {
			s.Endpoints = fiveEndpoints()
			s.Endpoints[1].Party = 9
		}},
		{"duplicate endpoint party", "endpoints[1].party", func(s *PartySet) {
			s.Endpoints = fiveEndpoints()
			s.Endpoints[1].Party = 1
		}},
		{"empty endpoint addr", "endpoints[2].addr", func(s *PartySet) {
			s.Endpoints = fiveEndpoints()
			s.Endpoints[2].Addr = ""
		}},
		{"duplicate endpoint addr", "endpoints[2].addr", func(s *PartySet) {
			s.Endpoints = fiveEndpoints()
			s.Endpoints[2].Addr = s.Endpoints[0].Addr
		}},
		{"no reference", "scenario", func(s *PartySet) { s.Scenario = "" }},
		{"both references", "scenario", func(s *PartySet) { s.Workload = "workload-amortize-sync" }},
		{"checkpoint without workload", "checkpoint", func(s *PartySet) { s.Checkpoint = "x.ck" }},
		{"unknown scenario", "scenario", func(s *PartySet) { s.Scenario = "no-such-scenario" }},
		{"unknown workload", "workload", func(s *PartySet) {
			s.Scenario = ""
			s.Workload = "no-such-workload"
		}},
		{"parties mismatch", "parties", func(s *PartySet) { s.Parties = flagship }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSet()
			tc.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("validation passed")
			}
			if !errors.Is(err, ErrPartySet) {
				t.Fatalf("err = %v, does not wrap ErrPartySet", err)
			}
			var pe *PartySetError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, not a *PartySetError", err)
			}
			if pe.Field != tc.field {
				t.Fatalf("field = %q, want %q (err: %v)", pe.Field, tc.field, err)
			}
		})
	}
}

// TestPartySetParseStrict: the manifest decoder rejects unknown fields
// and trailing garbage, and a loaded file round-trips.
func TestPartySetParseStrict(t *testing.T) {
	good := `{"name":"file-set","parties":{"n":5,"ts":1,"ta":1},` +
		`"transport":{"kind":"unix"},"scenario":"sync-boundary-n5"}`
	s, err := ParsePartySet([]byte(good))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if s.Name != "file-set" || s.Parties != boundaryN5 {
		t.Fatalf("parsed set mangled: %+v", s)
	}
	if _, err := ParsePartySet([]byte(`{"name":"x","bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParsePartySet([]byte(good + `{"more":1}`)); err == nil {
		t.Error("trailing garbage accepted")
	}
	path := filepath.Join(t.TempDir(), "set.json")
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPartySetFile(path); err != nil {
		t.Errorf("load file: %v", err)
	}
	if _, err := LoadPartySetFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing file succeeded")
	}
}

// TestUseBackendOverride covers the deploy verb's -backend switch.
func TestUseBackendOverride(t *testing.T) {
	d, err := validSet().Reify()
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Backend(); got != "unix" {
		t.Fatalf("backend = %q, want unix", got)
	}
	if err := d.UseBackend("sim"); err != nil || d.Backend() != "sim" {
		t.Fatalf("sim override: err=%v backend=%q", err, d.Backend())
	}
	if err := d.UseBackend("tcp"); err != nil || d.Backend() != "tcp" {
		t.Fatalf("tcp override: err=%v backend=%q", err, d.Backend())
	}
	if err := d.UseBackend(""); err != nil || d.Backend() != "tcp" {
		t.Fatalf("keep override: err=%v backend=%q", err, d.Backend())
	}
	if err := d.UseBackend("carrier-pigeon"); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestReifyMissingCheckpoint: a checkpoint path that cannot be loaded
// fails reification — nothing launches half-configured.
func TestReifyMissingCheckpoint(t *testing.T) {
	s := validSet()
	s.Scenario = ""
	s.Workload = "workload-amortize-sync"
	s.Checkpoint = filepath.Join(t.TempDir(), "missing.ck")
	if _, err := s.Reify(); err == nil {
		t.Fatal("reify with a missing checkpoint succeeded")
	}
}

// TestDeployEndpointCollision: a pinned listen address already bound by
// another process must surface as a typed transport fault from Execute,
// not a hang or a report row.
func TestDeployEndpointCollision(t *testing.T) {
	dir := t.TempDir()
	eps := make([]EndpointSpec, 5)
	for i := range eps {
		eps[i] = EndpointSpec{Party: i + 1, Addr: filepath.Join(dir, fmt.Sprintf("p%d.sock", i+1))}
	}
	ln, err := net.Listen("unix", eps[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	s := validSet()
	s.Endpoints = eps
	s.Transport.IOTimeoutMs = 2000
	d, err := s.Reify()
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Execute()
	if !errors.Is(err, mpc.ErrTransport) {
		t.Fatalf("err = %v, want mpc.ErrTransport in chain", err)
	}
}

// TestServeSimBackend smoke-tests the serving loop over the simulator:
// every workload step evaluates cleanly each round, the report carries
// no wire traffic, and a pipelined workload is served at its own depth,
// row for row as RunWorkloadOpts serves it.
func TestServeSimBackend(t *testing.T) {
	set, err := LookupPartySet("deploy-unix-n5-workload")
	if err != nil {
		t.Fatal(err)
	}
	d, err := set.Reify()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.UseBackend("sim"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep, err := d.Serve(&buf, 1)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if want := len(d.Manifest.Workload.Steps); rep.Evals != want || rep.Failures != 0 {
		t.Fatalf("evals/failures = %d/%d, want %d/0", rep.Evals, rep.Failures, want)
	}
	if rep.Backend != "sim" || rep.Wire.FramesOut != 0 {
		t.Fatalf("sim serve leaked wire traffic: backend=%q wire=%+v", rep.Backend, rep.Wire)
	}
	if !strings.Contains(buf.String(), "serving deploy-unix-n5-workload") {
		t.Fatalf("serve log missing header:\n%s", buf.String())
	}
	pipelined := &PartySet{
		Name:      "probe-pipeline",
		Parties:   boundaryN5,
		Transport: DeployTransport{Kind: "unix"},
		Workload:  "workload-pipeline-sync",
	}
	pd, err := pipelined.Reify()
	if err != nil {
		t.Fatal(err)
	}
	if err := pd.UseBackend("sim"); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := pd.Serve(&buf, 1); err != nil {
		t.Fatalf("serve: %v", err)
	}
	wrep, err := RunWorkloadOpts(pd.Manifest, WorkloadRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, sr := range wrep.Steps {
		want.WriteString(serveRow(1, sr))
	}
	if !strings.Contains(buf.String(), want.String()) {
		t.Fatalf("served rows differ from RunWorkloadOpts' steps:\n%s\nwant:\n%s", buf.String(), want.String())
	}
	// Serving is a workload concept: a one-shot scenario set refuses.
	sd, err := validSet().Reify()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sd.Serve(&buf, 1); err == nil {
		t.Fatal("serve of a scenario set succeeded")
	}
}

// TestDeployDifferential is the deployment layer's core guarantee: the
// inner protocol report of a deployment is bit-identical across the
// simulator and the real socket backends on the same seed, while the
// wire accounting proves bytes physically moved.
func TestDeployDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket differential runs full protocols; skipped in -short")
	}
	cases := []struct {
		kind     string
		scenario string
		workload string
	}{
		{"unix", "sync-boundary-n5", ""},
		{"unix", "sync-garble-ts", ""},
		{"unix", "async-sum-honest", ""},
		{"tcp", "sync-boundary-n5", ""},
		{"unix", "", "workload-amortize-sync"},
	}
	for _, tc := range cases {
		ref := tc.scenario + tc.workload
		t.Run(ref+"/"+tc.kind, func(t *testing.T) {
			var m *Manifest
			var err error
			if tc.workload != "" {
				m, err = LookupWorkload(tc.workload)
			} else {
				m, err = Lookup(tc.scenario)
			}
			if err != nil {
				t.Fatal(err)
			}
			s := &PartySet{
				Name:      "diff-set",
				Parties:   m.Parties,
				Transport: DeployTransport{Kind: tc.kind},
				Scenario:  tc.scenario,
				Workload:  tc.workload,
			}
			d, err := s.Reify()
			if err != nil {
				t.Fatal(err)
			}
			real, err := d.Execute()
			if err != nil {
				t.Fatalf("%s execute: %v", tc.kind, err)
			}
			if err := d.UseBackend("sim"); err != nil {
				t.Fatal(err)
			}
			sim, err := d.Execute()
			if err != nil {
				t.Fatalf("sim execute: %v", err)
			}
			if !real.Pass || !sim.Pass {
				t.Fatalf("pass = %v/%v, want true/true", real.Pass, sim.Pass)
			}
			if !reflect.DeepEqual(real.Inner(), sim.Inner()) {
				t.Errorf("inner reports diverge:\n%s: %+v\nsim: %+v", tc.kind, real.Inner(), sim.Inner())
			}
			if real.Wire.FramesOut == 0 || real.Wire.FramesOut != real.Wire.FramesIn {
				t.Errorf("%s wire stats implausible: %+v", tc.kind, real.Wire)
			}
			if sim.Wire != (transport.WireStats{}) {
				t.Errorf("sim run reported wire traffic: %+v", sim.Wire)
			}
		})
	}
}
