package mpc

import (
	"bytes"
	"reflect"
	"testing"

	"repro/circuit"
	"repro/field"
)

// engineSession runs Preprocess + 2×Evaluate on one engine and returns
// the results plus final stats.
func engineSession(t *testing.T, spec *TransportSpec) ([]*Result, EngineStats) {
	t.Helper()
	cfg := Config{N: 5, Ts: 1, Ta: 1, Network: Sync, Seed: 11}
	eng, err := NewEngineOpts(cfg, EngineOptions{Transport: spec})
	if err != nil {
		t.Fatalf("NewEngineOpts: %v", err)
	}
	defer eng.Close()
	circ := circuit.Product(5)
	if _, err := eng.Preprocess(2 * circ.MulCount); err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	inputs := []field.Element{3, 1, 4, 1, 5}
	var results []*Result
	for k := 0; k < 2; k++ {
		res, err := eng.Evaluate(circ, inputs)
		if err != nil {
			t.Fatalf("Evaluate %d: %v", k, err)
		}
		results = append(results, res)
	}
	if spec != nil && spec.Kind != "sim" {
		if ws := eng.WireStats(); ws.FramesOut == 0 || ws.FramesOut != ws.FramesIn {
			t.Fatalf("wire stats %+v: no traffic crossed the sockets", ws)
		}
	}
	return results, eng.Stats()
}

// TestEngineDifferentialSockets: a full session (preprocess + two
// evaluations) over unix and tcp backends must be identical to the
// simulator in every Result field and in the engine accounting.
func TestEngineDifferentialSockets(t *testing.T) {
	simResults, simStats := engineSession(t, nil)
	for _, spec := range []*TransportSpec{{Kind: "unix"}, {Kind: "tcp"}} {
		results, stats := engineSession(t, spec)
		for k := range simResults {
			if !reflect.DeepEqual(results[k], simResults[k]) {
				t.Errorf("%s: evaluation %d diverges from sim:\n%+v\nsim:\n%+v",
					spec.Kind, k, results[k], simResults[k])
			}
		}
		if !reflect.DeepEqual(stats, simStats) {
			t.Errorf("%s: stats diverge from sim:\n%+v\nsim:\n%+v", spec.Kind, stats, simStats)
		}
	}
}

// TestRunOptsDifferential: the one-shot path over sockets must equal
// the same run on the simulator.
func TestRunOptsDifferential(t *testing.T) {
	cfg := Config{N: 5, Ts: 1, Ta: 1, Network: Async, Seed: 4}
	circ := circuit.Sum(5)
	inputs := []field.Element{1, 2, 3, 4, 5}
	ref, err := RunOpts(cfg, EngineOptions{}, circ, inputs)
	if err != nil {
		t.Fatalf("RunOpts on the simulator: %v", err)
	}
	got, err := RunOpts(cfg, EngineOptions{Transport: &TransportSpec{Kind: "unix"}}, circ, inputs)
	if err != nil {
		t.Fatalf("RunOpts: %v", err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("unix one-shot diverges:\n%+v\nsim:\n%+v", got, ref)
	}
}

// TestRestoreOntoSockets: a checkpoint captured from a simulator
// session must restore onto a socket backend and resume bit-identically
// to the uninterrupted simulator session.
func TestRestoreOntoSockets(t *testing.T) {
	cfg := Config{N: 5, Ts: 1, Ta: 1, Network: Sync, Seed: 23}
	circ := circuit.Product(5)
	inputs := []field.Element{2, 7, 1, 8, 2}

	// Uninterrupted reference: preprocess + two evaluations on sim.
	ref, err := NewEngineOpts(cfg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Preprocess(2 * circ.MulCount); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Evaluate(circ, inputs); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Evaluate(circ, inputs)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: same session up to the first evaluation, snapshot,
	// restore onto unix sockets, resume.
	eng, err := NewEngineOpts(cfg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Preprocess(2 * circ.MulCount); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Evaluate(circ, inputs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	resumed, err := RestoreEngineOpts(cfg, EngineOptions{Transport: &TransportSpec{Kind: "unix"}}, &buf)
	if err != nil {
		t.Fatalf("RestoreEngineOpts: %v", err)
	}
	defer resumed.Close()
	got, err := resumed.Evaluate(circ, inputs)
	if err != nil {
		t.Fatalf("resumed Evaluate: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed-on-unix evaluation diverges:\n%+v\nsim:\n%+v", got, want)
	}
}
