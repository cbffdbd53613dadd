package mpc

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/circuit"
	"repro/field"
)

// TestRunDeterminism is the reproducibility regression test: two runs
// with identical config and seed must produce byte-identical results —
// outputs, per-party termination times, and the full communication
// metrics snapshot.
func TestRunDeterminism(t *testing.T) {
	cfg := Config{
		N: 5, Ts: 1, Ta: 1,
		Network: Async,
		Seed:    42,
	}
	adv := &Adversary{Garble: []int{4}}
	circ := circuit.Product(5)
	inputs := []field.Element{
		field.New(3), field.New(1), field.New(4), field.New(1), field.New(5),
	}

	run := func() *Result {
		res, err := RunOpts(cfg, EngineOptions{Adversary: adv}, circ, inputs)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs differ:\n%+v\nvs\n%+v", a, b)
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("serialized results are not byte-identical:\n%s\nvs\n%s", aj, bj)
	}
}

// TestRunSeedSensitivity guards the other direction: a different seed
// must actually reshuffle the network schedule (otherwise the
// determinism test above would be vacuous).
func TestRunSeedSensitivity(t *testing.T) {
	cfg := Config{N: 5, Ts: 1, Ta: 1, Network: Async, Seed: 1}
	circ := circuit.Sum(5)
	inputs := make([]field.Element, 5)
	for i := range inputs {
		inputs[i] = field.New(uint64(i + 1))
	}
	a, err := RunOpts(cfg, EngineOptions{}, circ, inputs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := RunOpts(cfg, EngineOptions{}, circ, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Outputs[0] != b.Outputs[0] {
		t.Fatalf("outputs must not depend on the seed: %v vs %v", a.Outputs, b.Outputs)
	}
	if reflect.DeepEqual(a.TerminatedAt, b.TerminatedAt) && a.Events == b.Events {
		t.Fatal("different seeds produced an identical schedule; the seed is not wired through")
	}
}
