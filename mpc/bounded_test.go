package mpc

import (
	"testing"

	"repro/circuit"
	"repro/internal/proto"
)

// peak folds per-party retained state into the element-wise maximum
// over parties.
func peak(acc proto.Retained, rs []proto.Retained) proto.Retained {
	for _, r := range rs {
		acc.Handlers = max(acc.Handlers, r.Handlers)
		acc.Factories = max(acc.Factories, r.Factories)
		acc.Buffered = max(acc.Buffered, r.Buffered)
		acc.Tombstone = max(acc.Tombstone, r.Tombstone)
	}
	return acc
}

// TestEngineStateBoundedSequential is the bounded-state oracle for the
// blocking entry points: every Preprocess and Evaluate retires its
// namespace, so the per-party handler, factory, buffered-path and
// tombstone counts after K evaluations equal the counts after one.
func TestEngineStateBoundedSequential(t *testing.T) {
	async := engCfg(5, 1, 1, 3)
	async.Network = Async
	cases := []struct {
		name string
		cfg  Config
		adv  *Adversary
	}{
		{"sync", engCfg(5, 1, 1, 3), nil},
		{"async-garble", async, &Adversary{Garble: []int{5}}},
	}
	circs := []*circuit.Circuit{circuit.Product(5), circuit.SumAndVariancePieces(5), circuit.SetMembership(5)}
	const k = 6
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngineOpts(tc.cfg, EngineOptions{Adversary: tc.adv})
			if err != nil {
				t.Fatal(err)
			}
			need := 0
			for i := 0; i < k; i++ {
				need += circs[i%len(circs)].MulCount
			}
			if _, err := eng.Preprocess(need); err != nil {
				t.Fatal(err)
			}
			var first []proto.Retained
			for i := 0; i < k; i++ {
				if _, err := eng.Evaluate(circs[i%len(circs)], engInputs(5)); err != nil {
					t.Fatalf("eval %d: %v", i, err)
				}
				st := eng.Stats()
				if i == 0 {
					first = st.Retained
					continue
				}
				for p := range st.Retained {
					if st.Retained[p] != first[p] {
						t.Fatalf("party %d after %d evaluations retains %+v, after one %+v",
							p+1, i+1, st.Retained[p], first[p])
					}
				}
			}
			t.Logf("retained after every evaluation: %+v", first)
		})
	}
}

// TestEngineStateBoundedPipelined is the bounded-state oracle for the
// pipelined path: at depth 4 with watermark refills, the state held at
// any tick stays within what four evaluations and one fill hold at
// their peaks, and the pipeline drains to the state of an idle engine.
func TestEngineStateBoundedPipelined(t *testing.T) {
	const depth = 4
	cfg := engCfg(5, 1, 1, 5)
	cfg.RefillLowWater = 8
	cfg.RefillBudget = 16
	circ := circuit.Product(5)
	inputs := engInputs(5)

	// One evaluation alone, then one background fill alone, each
	// stepped tick by tick to find its peak.
	solo, err := NewEngineOpts(cfg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solo.Preprocess(circ.MulCount); err != nil {
		t.Fatal(err)
	}
	idle := solo.Stats().Retained
	p, err := solo.EvaluateAsync(circ, inputs)
	if err != nil {
		t.Fatal(err)
	}
	var evalPeak proto.Retained
	for !p.Done() && solo.world.StepTick() {
		evalPeak = peak(evalPeak, solo.Stats().Retained)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := solo.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := solo.startRefill(0); err != nil {
		t.Fatal(err)
	}
	var fillPeak proto.Retained
	for solo.Refilling() && solo.world.StepTick() {
		fillPeak = peak(fillPeak, solo.Stats().Retained)
	}
	bound := proto.Retained{
		Handlers:  depth*evalPeak.Handlers + fillPeak.Handlers,
		Factories: depth*evalPeak.Factories + fillPeak.Factories,
		Buffered:  depth*evalPeak.Buffered + fillPeak.Buffered,
		Tombstone: depth,
	}

	eng, err := NewEngineOpts(cfg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Preprocess(2 * circ.MulCount); err != nil {
		t.Fatal(err)
	}
	var seen proto.Retained
	var window []*PendingEval
	wait := func() {
		p := window[0]
		window = window[1:]
		for !p.Done() && eng.world.StepTick() {
			seen = peak(seen, eng.Stats().Retained)
		}
		if _, err := p.Wait(); err != nil {
			t.Fatalf("epoch %d: %v", p.Epoch(), err)
		}
	}
	const k = 24
	for i := 0; i < k; i++ {
		if len(window) == depth {
			wait()
		}
		p, err := eng.EvaluateAsync(circ, inputs)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		window = append(window, p)
		seen = peak(seen, eng.Stats().Retained)
	}
	for len(window) > 0 {
		wait()
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Batches < 3 {
		t.Fatalf("%d pool fills, want the initial one plus background refills", st.Batches)
	}
	if seen.Handlers > bound.Handlers || seen.Factories > bound.Factories ||
		seen.Buffered > bound.Buffered || seen.Tombstone > bound.Tombstone {
		t.Fatalf("pipelined peak %+v exceeds %d evaluations plus one fill %+v (evaluation %+v, fill %+v)",
			seen, depth, bound, evalPeak, fillPeak)
	}
	for p := range st.Retained {
		if st.Retained[p] != idle[p] {
			t.Fatalf("party %d retains %+v after the drained pipeline, %+v idle", p+1, st.Retained[p], idle[p])
		}
	}
	t.Logf("peak %+v within bound %+v over %d evaluations, %d fills", seen, bound, k, st.Batches)
}
