package scenario

import (
	"reflect"
	"strings"
	"testing"
)

// TestWorkloadBuiltinsRun executes every builtin workload with the
// one-shot comparison and checks the amortization headline: every step
// passes and the amortized per-evaluation traffic beats the one-shot
// cost whenever the workload has mul-bearing steps.
func TestWorkloadBuiltinsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("workload corpus is slow; run without -short")
	}
	for _, m := range BuiltinWorkloads() {
		rep, err := RunWorkloadOpts(m, WorkloadRunOptions{Compare: true})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if !rep.Pass {
			for _, s := range rep.Steps {
				if !s.Pass {
					t.Errorf("%s step %d (%s): %v %s", m.Name, s.Index, s.Circuit, s.Failures, s.Err)
				}
			}
			continue
		}
		// The refill builtin under-budgets on purpose (every step pays a
		// fresh batch), so amortization is only asserted for the others.
		if !strings.Contains(m.Name, "refill") && rep.Savings <= 1 {
			t.Errorf("%s: amortized %0.f msgs/eval not below one-shot %0.f (savings %.2f)",
				m.Name, rep.AmortizedMsgsPerEval, rep.OneShotMsgsPerEval, rep.Savings)
		}
		t.Logf("%s: %d evals, amortized %.0f msgs/eval vs one-shot %.0f (%.2fx)",
			m.Name, len(rep.Steps), rep.AmortizedMsgsPerEval, rep.OneShotMsgsPerEval, rep.Savings)
	}
}

// TestWorkloadRefillRecovers pins the refill path: the under-budgeted
// builtin consumes its pool, hits exhaustion, refills and still passes.
func TestWorkloadRefillRecovers(t *testing.T) {
	m, err := LookupWorkload("workload-refill-sync")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunWorkloadOpts(m, WorkloadRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("refill workload failed: %+v", rep.Steps)
	}
	if rep.TriplesGenerated <= rep.Budget {
		t.Errorf("no refill happened: generated %d, initial budget %d", rep.TriplesGenerated, rep.Budget)
	}
}

// TestWorkloadValidation covers the workload-specific manifest rules.
func TestWorkloadValidation(t *testing.T) {
	base := func() *Manifest {
		return &Manifest{
			Name:    "wl-test",
			Parties: Parties{N: 5, Ts: 1, Ta: 1},
			Network: NetworkSpec{Kind: "sync", Delta: 10},
			Seed:    1,
			Workload: &WorkloadSpec{Steps: []WorkloadStep{
				{Circuit: CircuitSpec{Family: "sum"}},
			}},
		}
	}
	cases := []struct {
		name string
		mut  func(*Manifest)
		want string
	}{
		{"ok", func(m *Manifest) {}, ""},
		{"top-level circuit", func(m *Manifest) { m.Circuit.Family = "sum" }, "circuits per step"},
		{"top-level inputs", func(m *Manifest) { m.Inputs = []uint64{1, 2, 3, 4, 5} }, "inputs per step"},
		{"top-level expect", func(m *Manifest) { m.Expect.Consistent = true }, "assert per step"},
		{"negative budget", func(m *Manifest) { m.Workload.Budget = -1 }, "budget must be >= 0"},
		{"no steps", func(m *Manifest) { m.Workload.Steps = nil }, "at least one step"},
		{"negative pipeline", func(m *Manifest) { m.Workload.Pipeline = -2 }, "pipeline must be >= 0"},
		{"refill without pipeline", func(m *Manifest) { m.Workload.RefillLowWater = 4 }, "requires pipeline"},
		{"refill budget without watermark", func(m *Manifest) {
			m.Workload.Pipeline = 2
			m.Workload.RefillBudget = 8
		}, "without refillLowWater"},
		{"bad step circuit", func(m *Manifest) { m.Workload.Steps[0].Circuit.Family = "nope" }, "workload.steps[0].circuit"},
		{"bad step inputs", func(m *Manifest) { m.Workload.Steps[0].Inputs = []uint64{1} }, "workload.steps[0].inputs"},
		{"bad step expect", func(m *Manifest) { m.Workload.Steps[0].Expect.MinAgreement = 9 }, "workload.steps[0].expect.minAgreement"},
	}
	for _, tc := range cases {
		m := base()
		tc.mut(m)
		err := m.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestWorkloadJSONRoundTrip: a workload manifest survives JSON,
// rejecting unknown fields like any other manifest.
func TestWorkloadJSONRoundTrip(t *testing.T) {
	m, err := LookupWorkload("workload-amortize-sync")
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(m.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if back.Workload == nil || len(back.Workload.Steps) != len(m.Workload.Steps) {
		t.Fatalf("workload section lost in round trip: %+v", back.Workload)
	}
	if _, err := Load([]byte(`{"name":"x","parties":{"n":5,"ts":1,"ta":1},"network":{"kind":"sync"},"seed":1,"workload":{"steps":[{"circuit":{"family":"sum"},"bogus":1}]}}`)); err == nil {
		t.Fatal("unknown step field accepted")
	}
}

// TestWorkloadRunRejectsWorkloadManifest: the one-shot paths refuse a
// workload manifest with a pointer at the right verb.
func TestWorkloadRunRejectsWorkloadManifest(t *testing.T) {
	m, err := LookupWorkload("workload-amortize-sync")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWith(m, RunOptions{}); err == nil || !strings.Contains(err.Error(), "RunWorkloadOpts") {
		t.Fatalf("RunWith accepted a workload manifest: %v", err)
	}
	plain, err := Lookup("sync-sum-honest")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkloadOpts(plain, WorkloadRunOptions{}); err == nil || !strings.Contains(err.Error(), "workload") {
		t.Fatalf("RunWorkloadOpts accepted a plain manifest: %v", err)
	}
}

// TestWorkloadPipelineDifferential pins the pipelined serving
// contract at the report level: a depth-1 pipelined run reproduces
// the sequential report field for field, and a depth-4 run reproduces
// the sequential outputs and CS sets (its traffic/tick figures sit in
// the PRNG noise band — see the mpc pipelining notes).
func TestWorkloadPipelineDifferential(t *testing.T) {
	m, err := LookupWorkload("workload-pipeline-sync")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := RunWorkloadOpts(m, WorkloadRunOptions{Pipeline: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Pass {
		t.Fatalf("sequential reference failed: %+v", seq.Steps)
	}
	p1, err := RunWorkloadOpts(m, WorkloadRunOptions{Pipeline: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, seq) {
		t.Errorf("depth-1 pipelined report differs from sequential:\n pipelined: %+v\nsequential: %+v", p1, seq)
	}
	p4, err := RunWorkloadOpts(m, WorkloadRunOptions{}) // manifest depth 4
	if err != nil {
		t.Fatal(err)
	}
	if !p4.Pass {
		t.Fatalf("depth-4 run failed: %+v", p4.Steps)
	}
	for i, s := range p4.Steps {
		ref := seq.Steps[i]
		if !reflect.DeepEqual(s.Outputs, ref.Outputs) {
			t.Errorf("step %d: depth-4 outputs %v, sequential %v", i, s.Outputs, ref.Outputs)
		}
		if !reflect.DeepEqual(s.CS, ref.CS) {
			t.Errorf("step %d: depth-4 CS %v, sequential %v", i, s.CS, ref.CS)
		}
		if s.Triples != ref.Triples {
			t.Errorf("step %d: depth-4 consumed %d triples, sequential %d", i, s.Triples, ref.Triples)
		}
	}
}

// TestWorkloadPipelineRefill pins the watermark path end to end: the
// under-budgeted pipelined builtin passes with background refills (the
// pool grows past the initial budget) and never falls back to the
// drain-and-retry exhaustion path.
func TestWorkloadPipelineRefill(t *testing.T) {
	m, err := LookupWorkload("workload-pipeline-refill-sync")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunWorkloadOpts(m, WorkloadRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("pipelined refill workload failed: %+v", rep.Steps)
	}
	if rep.TriplesGenerated <= rep.Budget {
		t.Errorf("no background refill happened: generated %d, initial budget %d", rep.TriplesGenerated, rep.Budget)
	}
}

// TestWorkloadPipelineCheckpointIncompatible: pipelined serving
// refuses the checkpoint/resume options instead of snapshotting a
// half-advanced pipeline.
func TestWorkloadPipelineCheckpointIncompatible(t *testing.T) {
	m, err := LookupWorkload("workload-pipeline-sync")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkloadOpts(m, WorkloadRunOptions{CheckpointPath: t.TempDir() + "/ck.bin"}); err == nil ||
		!strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("checkpointing a pipelined workload: %v, want incompatible error", err)
	}
	if _, err := RunWorkloadOpts(m, WorkloadRunOptions{StopAfter: 2}); err == nil ||
		!strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("stop-after on a pipelined workload: %v, want incompatible error", err)
	}
}
