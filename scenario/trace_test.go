package scenario

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/mpc"
)

// traceDiffScenarios are the builtins the trace-on/off differential
// runs over: honest + adversarial, sync + async.
var traceDiffScenarios = []string{
	"sync-sum-honest",
	"sync-product-honest",
	"sync-garble-ts",
	"async-product-honest",
}

// TestTraceDeterministicJSONL: a run is a pure function of its
// manifest, and the trace is a pure function of the run — two traced
// runs of one manifest must serialize to byte-identical JSONL.
func TestTraceDeterministicJSONL(t *testing.T) {
	m, err := Lookup("sync-product-honest")
	if err != nil {
		t.Fatal(err)
	}
	var bufs [2]bytes.Buffer
	for i := range bufs {
		col := obs.NewCollector()
		if _, err := RunWith(m, RunOptions{Tracer: col}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if col.Len() == 0 {
			t.Fatalf("run %d: traced run emitted no events", i)
		}
		if err := obs.WriteJSONL(&bufs[i], col.Events()); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Errorf("two traced runs of one manifest produced different JSONL (%d vs %d bytes)",
			bufs[0].Len(), bufs[1].Len())
	}
}

// TestTraceOnOffDifferential: attaching a tracer must not change the
// run — reports (outputs, ticks, traffic, family breakdowns) are
// compared field-for-field across builtins and both evaluator modes.
func TestTraceOnOffDifferential(t *testing.T) {
	for _, name := range traceDiffScenarios {
		for _, perGate := range []bool{false, true} {
			mode := "layered"
			if perGate {
				mode = "per-gate"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				m, err := Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				run := func(tr obs.Tracer) *mpc.Result {
					art, err := Build(m)
					if err != nil {
						t.Fatal(err)
					}
					cfg := art.Cfg
					cfg.PerGateEval = perGate
					res, err := mpc.RunOpts(cfg, mpc.EngineOptions{Adversary: art.Adversary, Tracer: tr}, art.Circuit, art.Inputs)
					if err != nil {
						t.Fatalf("engine: %v", err)
					}
					return res
				}
				plain := run(nil)
				col := obs.NewCollector()
				traced := run(col)
				if col.Len() == 0 {
					t.Fatal("traced run emitted no events")
				}
				if !reflect.DeepEqual(plain.Outputs, traced.Outputs) {
					t.Errorf("outputs differ: untraced %v, traced %v", plain.Outputs, traced.Outputs)
				}
				if !reflect.DeepEqual(plain.CS, traced.CS) {
					t.Errorf("CS differs: untraced %v, traced %v", plain.CS, traced.CS)
				}
				if !reflect.DeepEqual(plain.TerminatedAt, traced.TerminatedAt) {
					t.Errorf("termination ticks differ: untraced %v, traced %v", plain.TerminatedAt, traced.TerminatedAt)
				}
				if plain.HonestMessages != traced.HonestMessages || plain.HonestBytes != traced.HonestBytes {
					t.Errorf("honest traffic differs: untraced %d/%d, traced %d/%d",
						plain.HonestMessages, plain.HonestBytes, traced.HonestMessages, traced.HonestBytes)
				}
				if !reflect.DeepEqual(plain.ByFamily, traced.ByFamily) {
					t.Errorf("family breakdown differs: untraced %v, traced %v", plain.ByFamily, traced.ByFamily)
				}
				if plain.Events != traced.Events {
					t.Errorf("simulator event count differs: untraced %d, traced %d", plain.Events, traced.Events)
				}
			})
		}
	}
}

// TestTraceWorkloadDifferential: the session-engine runner is equally
// trace-transparent — the full WorkloadReport must be identical with
// and without a sink.
func TestTraceWorkloadDifferential(t *testing.T) {
	m, err := LookupWorkload("workload-refill-sync")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunWorkloadOpts(m, WorkloadRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	traced, err := RunWorkloadOpts(m, WorkloadRunOptions{Tracer: col})
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() == 0 {
		t.Fatal("traced workload emitted no events")
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("workload reports differ:\nuntraced: %+v\ntraced:   %+v", plain, traced)
	}
}

// TestTraceSummaryRenders: the aggregated summary of a real run names
// the protocol phases and families a user would look for.
func TestTraceSummaryRenders(t *testing.T) {
	m, err := Lookup("sync-sum-honest")
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	if _, err := RunWith(m, RunOptions{Tracer: col}); err != nil {
		t.Fatal(err)
	}
	sum := obs.Summarize(col.Events(), m.Network.Delta)
	text := sum.String()
	for _, want := range []string{"run", "phases", "per-family delivery latency", "mpc"} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("summary missing %q:\n%s", want, text)
		}
	}
	if sum.Total == 0 || sum.LastTick == 0 {
		t.Errorf("summary has no totals: %+v", sum)
	}
}
