package mpc

import (
	"errors"
	"strings"
	"testing"

	"repro/circuit"
	"repro/field"
)

func engCfg(n, ts, ta int, seed uint64) Config {
	return Config{N: n, Ts: ts, Ta: ta, Network: Sync, Seed: seed}
}

func engInputs(n int) []field.Element {
	out := make([]field.Element, n)
	for i := range out {
		out[i] = field.New(uint64(i + 2))
	}
	return out
}

// TestEngineDifferential is the PR's acceptance property: K sequential
// Engine.Evaluate calls produce outputs identical to K independent
// mpc.RunOpts calls with the same seed, across several builtin circuits and
// both evaluator modes — while the engine's total honest traffic
// (preprocessing + evaluations) stays below K times the one-shot cost.
func TestEngineDifferential(t *testing.T) {
	const k = 3
	circs := map[string]func() *circuit.Circuit{
		"sum":     func() *circuit.Circuit { return circuit.Sum(5) },
		"product": func() *circuit.Circuit { return circuit.Product(5) },
		"stats":   func() *circuit.Circuit { return circuit.SumAndVariancePieces(5) },
		"poly": func() *circuit.Circuit {
			return circuit.PolyEval(5, []field.Element{field.New(7), field.New(3), field.New(1)})
		},
	}
	for _, perGate := range []bool{false, true} {
		for name, mk := range circs {
			cfg := engCfg(5, 1, 1, 42)
			cfg.PerGateEval = perGate
			eng, err := NewEngineOpts(cfg, EngineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			circ := mk()
			if _, err := eng.Preprocess(maxInt(1, k*circ.MulCount)); err != nil {
				t.Fatalf("%s perGate=%v: %v", name, perGate, err)
			}
			inputs := engInputs(5)
			var engineTotal uint64
			for round := 0; round < k; round++ {
				res, err := eng.Evaluate(circ, inputs)
				if err != nil {
					t.Fatalf("%s perGate=%v round %d: %v", name, perGate, round, err)
				}
				ref, err := RunOpts(cfg, EngineOptions{}, mk(), inputs)
				if err != nil {
					t.Fatalf("%s perGate=%v round %d one-shot: %v", name, perGate, round, err)
				}
				if len(res.Outputs) != len(ref.Outputs) {
					t.Fatalf("%s perGate=%v round %d: %d outputs vs one-shot %d",
						name, perGate, round, len(res.Outputs), len(ref.Outputs))
				}
				for i := range ref.Outputs {
					if res.Outputs[i] != ref.Outputs[i] {
						t.Errorf("%s perGate=%v round %d: output[%d] = %d, one-shot %d",
							name, perGate, round, i, res.Outputs[i].Uint64(), ref.Outputs[i].Uint64())
					}
				}
				if len(res.CS) != len(ref.CS) {
					t.Errorf("%s perGate=%v round %d: |CS| = %d, one-shot %d",
						name, perGate, round, len(res.CS), len(ref.CS))
				}
				engineTotal += res.HonestMessages
				if circ.MulCount > 0 && res.HonestMessages >= ref.HonestMessages {
					t.Errorf("%s perGate=%v round %d: session cost %d msgs not below one-shot %d",
						name, perGate, round, res.HonestMessages, ref.HonestMessages)
				}
			}
			st := eng.Stats()
			if engineTotal != st.EvalMessages {
				t.Errorf("%s perGate=%v: per-evaluation msgs sum to %d, Stats().EvalMessages = %d",
					name, perGate, engineTotal, st.EvalMessages)
			}
			oneShot, err := RunOpts(cfg, EngineOptions{}, mk(), inputs)
			if err != nil {
				t.Fatal(err)
			}
			if circ.MulCount > 0 {
				amortized := (st.PreprocessMessages + st.EvalMessages) / k
				if amortized >= oneShot.HonestMessages {
					t.Errorf("%s perGate=%v: amortized %d msgs/eval not below one-shot %d",
						name, perGate, amortized, oneShot.HonestMessages)
				}
			}
		}
	}
}

// TestEngineManyEvaluations exercises the acceptance floor directly:
// ≥8 evaluations over one engine, identical outputs to 8 one-shot runs,
// total engine traffic measurably below 8× the one-shot cost.
func TestEngineManyEvaluations(t *testing.T) {
	const k = 8
	cfg := engCfg(5, 1, 1, 7)
	circ := circuit.Product(5)
	eng, err := NewEngineOpts(cfg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Preprocess(k * circ.MulCount); err != nil {
		t.Fatal(err)
	}
	inputs := engInputs(5)
	ref, err := RunOpts(cfg, EngineOptions{}, circuit.Product(5), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < k; round++ {
		res, err := eng.Evaluate(circ, inputs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range ref.Outputs {
			if res.Outputs[i] != ref.Outputs[i] {
				t.Fatalf("round %d: output[%d] = %d, one-shot %d",
					round, i, res.Outputs[i].Uint64(), ref.Outputs[i].Uint64())
			}
		}
	}
	st := eng.Stats()
	if st.Evaluations != k {
		t.Fatalf("engine counted %d evaluations, want %d", st.Evaluations, k)
	}
	total := st.PreprocessMessages + st.EvalMessages
	if total >= k*ref.HonestMessages {
		t.Errorf("engine total %d msgs for %d evals not below %d× one-shot cost %d",
			total, k, k, ref.HonestMessages)
	}
	t.Logf("amortized %d msgs/eval vs one-shot %d (%.2fx saving)",
		total/k, ref.HonestMessages, float64(k*ref.HonestMessages)/float64(total))
}

// TestEngineExhaustionAndRefill exercises the typed pool-exhaustion
// error path: the error matches ErrTriplesExhausted, consumes nothing,
// and the engine (and its World) keeps serving after a refill.
func TestEngineExhaustionAndRefill(t *testing.T) {
	cfg := engCfg(5, 1, 1, 3)
	circ := circuit.Product(5) // cM = 4
	eng, err := NewEngineOpts(cfg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Preprocess(circ.MulCount); err != nil {
		t.Fatal(err)
	}
	inputs := engInputs(5)
	if _, err := eng.Evaluate(circ, inputs); err != nil {
		t.Fatal(err)
	}
	avail := eng.Available()
	_, err = eng.Evaluate(circ, inputs)
	if !errors.Is(err, ErrTriplesExhausted) {
		t.Fatalf("want ErrTriplesExhausted, got %v", err)
	}
	if got := eng.Available(); got != avail {
		t.Fatalf("failed Evaluate consumed triples: %d -> %d", avail, got)
	}
	if _, err := eng.Preprocess(circ.MulCount); err != nil {
		t.Fatalf("refill after exhaustion: %v", err)
	}
	res, err := eng.Evaluate(circ, inputs)
	if err != nil {
		t.Fatalf("Evaluate after refill: %v", err)
	}
	ref, err := RunOpts(cfg, EngineOptions{}, circuit.Product(5), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != ref.Outputs[0] {
		t.Fatalf("post-refill output %d, want %d", res.Outputs[0].Uint64(), ref.Outputs[0].Uint64())
	}
}

// TestEngineRefillAfterImmediateExhaustion: an Evaluate that fails
// with ErrTriplesExhausted re-arms Preprocess even when no evaluation
// ever succeeded since the fill — the documented refill-and-retry
// recovery must never collide with the double-Preprocess guard.
func TestEngineRefillAfterImmediateExhaustion(t *testing.T) {
	cfg := engCfg(5, 1, 1, 13)
	eng, err := NewEngineOpts(cfg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Preprocess(1); err != nil {
		t.Fatal(err)
	}
	circ := circuit.Product(5) // needs 4 triples, pool holds 1
	if _, err := eng.Evaluate(circ, engInputs(5)); !errors.Is(err, ErrTriplesExhausted) {
		t.Fatalf("want ErrTriplesExhausted, got %v", err)
	}
	if _, err := eng.Preprocess(circ.MulCount); err != nil {
		t.Fatalf("refill after immediate exhaustion blocked: %v", err)
	}
	if _, err := eng.Evaluate(circ, engInputs(5)); err != nil {
		t.Fatalf("Evaluate after refill: %v", err)
	}
}

// TestEngineMisuse covers the lifecycle guard rails: a worker-pool
// config, Evaluate before Preprocess, double Preprocess, and shape
// mismatches all fail with clear errors and leave the engine usable.
func TestEngineMisuse(t *testing.T) {
	cfg := engCfg(5, 1, 1, 9)
	withWorkers := cfg
	withWorkers.Workers = 1
	if _, err := NewEngineOpts(withWorkers, EngineOptions{}); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Fatalf("Config.Workers = 1: want an error, got %v", err)
	}
	eng, err := NewEngineOpts(cfg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Evaluate(circuit.Sum(5), engInputs(5)); !errors.Is(err, ErrNotPreprocessed) {
		t.Fatalf("Evaluate before Preprocess: want ErrNotPreprocessed, got %v", err)
	}
	if _, err := eng.Preprocess(0); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("Preprocess(0): want budget error, got %v", err)
	}
	if _, err := eng.Preprocess(4); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Preprocess(4); !errors.Is(err, ErrDoublePreprocess) {
		t.Fatalf("double Preprocess: want ErrDoublePreprocess, got %v", err)
	}
	if _, err := eng.Evaluate(circuit.Sum(5), engInputs(4)); err == nil || !strings.Contains(err.Error(), "inputs") {
		t.Fatalf("short inputs: want inputs error, got %v", err)
	}
	if _, err := eng.Evaluate(circuit.Sum(8), engInputs(5)); err == nil || !strings.Contains(err.Error(), "input slots") {
		t.Fatalf("circuit/party mismatch: want input-slots error, got %v", err)
	}
	// The engine still serves after every rejected call.
	res, err := eng.Evaluate(circuit.Sum(5), engInputs(5))
	if err != nil {
		t.Fatal(err)
	}
	want := field.New(2 + 3 + 4 + 5 + 6)
	if res.Outputs[0] != want {
		t.Fatalf("output %d, want %d", res.Outputs[0].Uint64(), want.Uint64())
	}
	// A consuming evaluation re-arms Preprocess (refill is legitimate).
	if _, err := eng.Preprocess(4); err != nil {
		t.Fatalf("refill after evaluation: %v", err)
	}
}

// TestEngineUnderAdversary keeps a session engine serving while the
// budgeted adversary garbles and starves: outputs must stay consistent
// with the clear-text evaluation over the agreed provider set.
func TestEngineUnderAdversary(t *testing.T) {
	cfg := Config{N: 8, Ts: 2, Ta: 1, Network: Sync, Seed: 5}
	adv := &Adversary{Garble: []int{3}, Silent: []int{6}}
	eng, err := NewEngineOpts(cfg, EngineOptions{Adversary: adv})
	if err != nil {
		t.Fatal(err)
	}
	circ := circuit.Sum(8)
	if _, err := eng.Preprocess(4); err != nil {
		t.Fatal(err)
	}
	inputs := engInputs(8)
	for round := 0; round < 3; round++ {
		res, err := eng.Evaluate(circ, inputs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want, err := ExpectedOutputs(circ, inputs, res.CS)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outputs[0] != want[0] {
			t.Fatalf("round %d: output %d, clear evaluation %d over CS=%v",
				round, res.Outputs[0].Uint64(), want[0].Uint64(), res.CS)
		}
		if len(res.CS) < cfg.N-cfg.Ts {
			t.Fatalf("round %d: |CS| = %d below n-ts = %d", round, len(res.CS), cfg.N-cfg.Ts)
		}
	}
}

// TestEngineDeterminism: the same engine call sequence replays
// bit-identically from the same seed.
func TestEngineDeterminism(t *testing.T) {
	trace := func() []uint64 {
		cfg := engCfg(5, 1, 1, 11)
		eng, err := NewEngineOpts(cfg, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Preprocess(8); err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for round := 0; round < 2; round++ {
			res, err := eng.Evaluate(circuit.Product(5), engInputs(5))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Outputs[0].Uint64(), res.HonestMessages, res.HonestBytes, uint64(res.TerminatedAt[1]))
		}
		return out
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestEngineAttributesEveryHonestMessage: every honest message the
// world records belongs to exactly one Preprocess or Evaluate figure.
// The blocking entry points account each phase at quiescence. A
// pipelined epoch is accounted and retired at its last honest
// termination, while on an asynchronous network its agreement and
// broadcast instances are still settling: the deliveries still in
// flight must hit the tombstone and draw no reply, or the replies
// would land in no figure.
func TestEngineAttributesEveryHonestMessage(t *testing.T) {
	async := engCfg(5, 1, 1, 7)
	async.Network = Async
	cases := []struct {
		name string
		cfg  Config
		adv  *Adversary
		// depth > 0 serves the stream pipelined through EvaluateAsync.
		depth int
	}{
		{"sync", engCfg(5, 1, 1, 7), nil, 0},
		{"async-garble", async, &Adversary{Garble: []int{5}}, 0},
		{"async-garble-depth4", async, &Adversary{Garble: []int{5}}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngineOpts(tc.cfg, EngineOptions{Adversary: tc.adv})
			if err != nil {
				t.Fatal(err)
			}
			circ := circuit.Product(5)
			inputs := engInputs(5)
			var perEval uint64
			if tc.depth == 0 {
				if _, err := eng.Preprocess(4 * circ.MulCount); err != nil {
					t.Fatal(err)
				}
				refills := 0
				for k := 0; k < 8; k++ {
					res, err := eng.Evaluate(circ, inputs)
					if errors.Is(err, ErrTriplesExhausted) {
						refills++
						if _, err := eng.Preprocess(8 * circ.MulCount); err != nil {
							t.Fatalf("eval %d refill: %v", k, err)
						}
						res, err = eng.Evaluate(circ, inputs)
					}
					if err != nil {
						t.Fatalf("eval %d: %v", k, err)
					}
					perEval += res.HonestMessages
				}
				if refills != 1 {
					t.Fatalf("%d exhaustion-driven refills, want 1", refills)
				}
			} else {
				if _, err := eng.Preprocess(8 * circ.MulCount); err != nil {
					t.Fatal(err)
				}
				var window []*PendingEval
				wait := func() {
					res, err := window[0].Wait()
					if err != nil {
						t.Fatalf("epoch %d: %v", window[0].Epoch(), err)
					}
					perEval += res.HonestMessages
					window = window[1:]
				}
				for k := 0; k < 8; k++ {
					if len(window) == tc.depth {
						wait()
					}
					p, err := eng.EvaluateAsync(circ, inputs)
					if err != nil {
						t.Fatalf("submit %d: %v", k, err)
					}
					window = append(window, p)
				}
				for len(window) > 0 {
					wait()
				}
				if err := eng.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			st := eng.Stats()
			m := eng.world.Metrics()
			if got, want := st.PreprocessMessages+st.EvalMessages, m.HonestMessages(); got != want {
				t.Errorf("preprocess %d + eval %d = %d honest messages attributed, world recorded %d",
					st.PreprocessMessages, st.EvalMessages, got, want)
			}
			if got, want := st.PreprocessBytes+st.EvalBytes, m.HonestBytes(); got != want {
				t.Errorf("preprocess %d + eval %d = %d honest bytes attributed, world recorded %d",
					st.PreprocessBytes, st.EvalBytes, got, want)
			}
			if perEval != st.EvalMessages {
				t.Errorf("per-eval HonestMessages sum to %d, EvalMessages = %d", perEval, st.EvalMessages)
			}
		})
	}
}
