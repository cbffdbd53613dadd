package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// cheap returns a fast-to-run builtin for tests that need a real run.
func cheap(t *testing.T) *Manifest {
	t.Helper()
	m, err := Lookup("sync-boundary-n5")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestValidateErrors(t *testing.T) {
	valid := func() Manifest {
		return Manifest{
			Name:    "probe",
			Parties: Parties{N: 8, Ts: 2, Ta: 1},
			Network: NetworkSpec{Kind: "sync"},
			Circuit: CircuitSpec{Family: "sum"},
		}
	}
	cases := []struct {
		name string
		mut  func(*Manifest)
		want string
	}{
		{"empty name", func(m *Manifest) { m.Name = "" }, "name must not be empty"},
		{"bad name", func(m *Manifest) { m.Name = "Bad Name" }, "lowercase words"},
		{"bad thresholds", func(m *Manifest) { m.Parties.Ts = 3 }, "3*ts + ta < n"},
		{"missing network", func(m *Manifest) { m.Network.Kind = "" }, "network.kind is required"},
		{"bad network", func(m *Manifest) { m.Network.Kind = "carrier-pigeon" }, `"sync" or "async"`},
		{"tail on sync", func(m *Manifest) { m.Network.Tail = 0.5 }, "tail only applies to the async"},
		{"tail range", func(m *Manifest) { m.Network.Kind = "async"; m.Network.Tail = 1.5 }, "tail must be in [0, 1]"},
		{"unknown family", func(m *Manifest) { m.Circuit.Family = "fft" }, `unknown family "fft"`},
		{"dot odd n", func(m *Manifest) { m.Parties = Parties{N: 9, Ts: 2, Ta: 2}; m.Circuit.Family = "dot" }, "even party count"},
		{"matmul wrong n", func(m *Manifest) { m.Parties = Parties{N: 5, Ts: 1, Ta: 1}; m.Circuit.Family = "matmul" }, "exactly 8 parties"},
		{"depth without depth", func(m *Manifest) { m.Circuit.Family = "depth" }, "depth >= 1"},
		{"polyeval without coeffs", func(m *Manifest) { m.Circuit.Family = "polyeval" }, "at least 2 coefficients"},
		{"stray depth", func(m *Manifest) { m.Circuit.Depth = 2 }, "depth only applies"},
		{"inputs arity", func(m *Manifest) { m.Inputs = []uint64{1, 2} }, "need 0 (default 1..n) or exactly n = 8"},
		{"garble range", func(m *Manifest) { m.Adversary.Garble = []int{9} }, "party 9 out of range 1..8"},
		{"crash range", func(m *Manifest) { m.Adversary.CrashAt = map[int]int64{0: 5} }, "party 0 out of range"},
		{"crash tick", func(m *Manifest) { m.Adversary.CrashAt = map[int]int64{3: -1} }, "tick must be >= 0"},
		{"budget", func(m *Manifest) { m.Adversary.Garble = []int{1, 2, 3} }, "exceeding the budget max(ts, ta) = 2"},
		{"starveUntil alone", func(m *Manifest) { m.Adversary.StarveUntil = 100 }, "without adversary.starveFrom"},
		{"bad expect error", func(m *Manifest) { m.Expect.Error = "meltdown" }, `expect.error "meltdown"`},
		{"error plus success", func(m *Manifest) {
			m.Expect.Error = ErrNameDisagreement
			m.Expect.Consistent = true
		}, "cannot be combined with success assertions"},
		{"error needs limit", func(m *Manifest) { m.Expect.Error = ErrNameNoHonestOutput }, "requires an eventLimit"},
		{"minAgreement range", func(m *Manifest) { m.Expect.MinAgreement = 9 }, "minAgreement 9 out of range"},
		{"agreement order", func(m *Manifest) { m.Expect.MinAgreement = 5; m.Expect.MaxAgreement = 4 }, "exceeds expect.maxAgreement"},
		{"deadline on async", func(m *Manifest) {
			m.Network.Kind = "async"
			m.Expect.WithinDeadline = true
		}, "requires the sync network"},
	}
	for _, tc := range cases {
		m := valid()
		tc.mut(&m)
		err := m.Validate()
		if err == nil {
			t.Errorf("%s: expected an error mentioning %q, got nil", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	m := valid()
	if err := m.Validate(); err != nil {
		t.Fatalf("baseline manifest should validate, got %v", err)
	}
}

func TestRegistryCoverage(t *testing.T) {
	ms := Builtin()
	if len(ms) < 20 {
		t.Fatalf("registry has %d scenarios, want >= 20", len(ms))
	}
	families := map[string]bool{}
	networks := map[string]bool{}
	boundary, syncOnly, expectError, starved, garbled := 0, 0, 0, 0, 0
	for _, m := range ms {
		if err := m.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", m.Name, err)
		}
		families[m.Circuit.Family] = true
		networks[m.Network.Kind] = true
		if m.Parties.AtBoundary() {
			boundary++
		}
		if m.SyncOnly {
			syncOnly++
		}
		if m.Expect.Error != "" {
			expectError++
		}
		if len(m.Adversary.StarveFrom) > 0 {
			starved++
		}
		if len(m.Adversary.Garble) > 0 {
			garbled++
		}
	}
	for _, fam := range Families() {
		if !families[fam] {
			t.Errorf("no builtin scenario covers circuit family %q", fam)
		}
	}
	for _, net := range []string{"sync", "async"} {
		if !networks[net] {
			t.Errorf("no builtin scenario covers the %s network", net)
		}
	}
	if boundary == 0 {
		t.Error("no threshold-boundary (3ts+ta=n-1) scenario")
	}
	if syncOnly < 2 {
		t.Errorf("want >= 2 SyncOnly ablation scenarios, have %d", syncOnly)
	}
	if expectError == 0 {
		t.Error("no scenario exercises an expected-failure assertion")
	}
	if starved == 0 || garbled == 0 {
		t.Errorf("adversary presets uncovered: starve=%d garble=%d", starved, garbled)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("no-such-scenario"); err == nil || !strings.Contains(err.Error(), "no builtin") {
		t.Fatalf("want a no-builtin error, got %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, m := range Builtin() {
		got, err := Load(m.JSON())
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: JSON round trip changed the manifest:\n%s\nvs\n%s", m.Name, m.JSON(), got.JSON())
		}
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	data := bytes.Replace(cheap(t).JSON(), []byte(`"name"`), []byte(`"nmae"`), 1)
	if _, err := Load(data); err == nil || !strings.Contains(err.Error(), "nmae") {
		t.Fatalf("want an unknown-field error, got %v", err)
	}
	// The serial event loop has no worker-pool knob.
	data = bytes.Replace(cheap(t).JSON(), []byte(`"network": {`), []byte(`"network": {"workers": 4, `), 1)
	if _, err := Load(data); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("want an unknown-field error for a workers key under network, got %v", err)
	}
}

func TestLoadFileExamples(t *testing.T) {
	for _, path := range []string{
		"../examples/scenarios/sync-garble.json",
		"../examples/scenarios/async-starvation.json",
	} {
		ms, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(ms) == 0 {
			t.Fatalf("%s: no manifests", path)
		}
	}
}

// TestRunDeterminism is the regression test for reproducibility: the
// same manifest run twice yields byte-identical reports (outputs,
// agreement set, virtual times, and the full metrics snapshot).
func TestRunDeterminism(t *testing.T) {
	m := cheap(t)
	a, err := RunWith(m, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWith(m, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Pass {
		t.Fatalf("%s failed: %v", m.Name, a.Failures)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of %s differ:\n%+v\nvs\n%+v", m.Name, a, b)
	}
}

func TestAssertionEngineFailures(t *testing.T) {
	m := *cheap(t)
	m.Expect = Expect{
		Outputs:        []uint64{999},
		MinAgreement:   5,
		MaxAgreement:   5,
		MaxTicks:       1,
		MaxHonestBytes: 1,
	}
	rep, err := RunWith(&m, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("report should fail")
	}
	for _, want := range []string{"output[0]", "maxTicks 1", "maxHonestBytes 1"} {
		found := false
		for _, f := range rep.Failures {
			if strings.Contains(f, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no failure mentions %q in %v", want, rep.Failures)
		}
	}
}

func TestSweepMatchesSerial(t *testing.T) {
	names := []string{"sync-boundary-n5", "async-boundary-n5-garble", "sync-boundary-n5", "async-depth-chain"}
	var ms []*Manifest
	for _, name := range names {
		m, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	parallel := Sweep(ms, 4)
	serial := Sweep(ms, 1)
	for i := range ms {
		if parallel[i].Err != nil || serial[i].Err != nil {
			t.Fatalf("%s: %v / %v", ms[i].Name, parallel[i].Err, serial[i].Err)
		}
		if !reflect.DeepEqual(parallel[i].Report, serial[i].Report) {
			t.Errorf("%s: parallel and serial reports differ:\n%+v\nvs\n%+v",
				ms[i].Name, parallel[i].Report, serial[i].Report)
		}
		if !parallel[i].Report.Pass {
			t.Errorf("%s failed: %v", ms[i].Name, parallel[i].Report.Failures)
		}
	}
}

func TestExpandSeeds(t *testing.T) {
	m := cheap(t)
	out := ExpandSeeds(m, []uint64{3, 9})
	if len(out) != 2 {
		t.Fatalf("want 2 manifests, got %d", len(out))
	}
	if out[0].Name != "sync-boundary-n5-seed3" || out[0].Seed != 3 {
		t.Errorf("bad expansion: %q seed %d", out[0].Name, out[0].Seed)
	}
	if out[1].Expect.Outputs != nil {
		t.Error("seed expansion must drop the exact-output assertion")
	}
	if m.Expect.Outputs == nil {
		t.Error("expansion must not mutate the base manifest")
	}
	for _, c := range out {
		if err := c.Validate(); err != nil {
			t.Errorf("expanded manifest invalid: %v", err)
		}
	}
}

// TestFullCorpus runs every builtin scenario and requires all
// assertions to pass. Skipped in -short mode: it is the whole
// experiment matrix (also reachable as `make scenarios`).
func TestFullCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus is minutes of simulation; run without -short")
	}
	for _, r := range Sweep(Builtin(), 0) {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Manifest.Name, r.Err)
			continue
		}
		if !r.Report.Pass {
			t.Errorf("%s failed: %v", r.Manifest.Name, r.Report.Failures)
		}
	}
}
