package mpc

import (
	"errors"
	"testing"

	"repro/circuit"
)

// runSequentialRef runs k classic Evaluate calls on a fresh engine and
// returns the per-eval results plus the engine's summaries (by epoch).
func runSequentialRef(t *testing.T, cfg Config, circ *circuit.Circuit, k int) ([]*Result, []EvalSummary) {
	t.Helper()
	eng, err := NewEngineOpts(cfg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Preprocess(maxInt(1, k*circ.MulCount)); err != nil {
		t.Fatal(err)
	}
	inputs := engInputs(cfg.N)
	results := make([]*Result, k)
	for i := 0; i < k; i++ {
		res, err := eng.Evaluate(circ, inputs)
		if err != nil {
			t.Fatalf("sequential eval %d: %v", i, err)
		}
		results[i] = res
	}
	return results, eng.Stats().Evals
}

// TestPipelineDifferential is the PR's acceptance gate: at pipeline
// depths 1, 4 and 16, a window of EvaluateAsync submissions over one
// engine yields outputs and CS sets bit-identical to k sequential
// Evaluate calls on the same seed — across circuits and both
// evaluator modes. At depth 1 (no overlap) the per-eval traffic and
// tick spans are bit-identical too; at depth > 1 they sit within a
// tight noise band: overlapping epochs permute the draw order of the
// shared per-party protocol PRNGs and the network jitter stream, so
// share values and delivery delays differ while reconstruction (and
// hence every output and CS vote) cancels the randomness exactly.
func TestPipelineDifferential(t *testing.T) {
	const k = 16
	circs := map[string]func() *circuit.Circuit{
		"product": func() *circuit.Circuit { return circuit.Product(5) },
		"stats":   func() *circuit.Circuit { return circuit.SumAndVariancePieces(5) },
	}
	for _, perGate := range []bool{false, true} {
		for name, mk := range circs {
			cfg := engCfg(5, 1, 1, 42)
			cfg.PerGateEval = perGate
			circ := mk()
			seqRes, seqSum := runSequentialRef(t, cfg, circ, k)

			for _, depth := range []int{1, 4, 16} {
				eng, err := NewEngineOpts(cfg, EngineOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Preprocess(maxInt(1, k*circ.MulCount)); err != nil {
					t.Fatal(err)
				}
				inputs := engInputs(cfg.N)

				// Sliding window: submit up to depth, then wait for the
				// oldest — the serving loop scenario workloads use.
				pending := make([]*PendingEval, 0, depth)
				results := make([]*Result, 0, k)
				wait := func() {
					p := pending[0]
					pending = pending[1:]
					res, err := p.Wait()
					if err != nil {
						t.Fatalf("%s perGate=%v depth %d eval %d: %v", name, perGate, depth, len(results), err)
					}
					results = append(results, res)
				}
				for i := 0; i < k; i++ {
					if len(pending) == depth {
						wait()
					}
					p, err := eng.EvaluateAsync(circ, inputs)
					if err != nil {
						t.Fatalf("%s perGate=%v depth %d submit %d: %v", name, perGate, depth, i, err)
					}
					pending = append(pending, p)
				}
				for len(pending) > 0 {
					wait()
				}
				if err := eng.Flush(); err != nil {
					t.Fatalf("%s perGate=%v depth %d: Flush: %v", name, perGate, depth, err)
				}
				if eng.InFlight() != 0 {
					t.Fatalf("depth %d: %d evals still in flight after Flush", depth, eng.InFlight())
				}

				for i, res := range results {
					ref := seqRes[i]
					if len(res.Outputs) != len(ref.Outputs) {
						t.Fatalf("%s perGate=%v depth %d eval %d: %d outputs vs sequential %d",
							name, perGate, depth, i, len(res.Outputs), len(ref.Outputs))
					}
					for j := range ref.Outputs {
						if res.Outputs[j] != ref.Outputs[j] {
							t.Errorf("%s perGate=%v depth %d eval %d: output[%d] = %d, sequential %d",
								name, perGate, depth, i, j, res.Outputs[j].Uint64(), ref.Outputs[j].Uint64())
						}
					}
					if len(res.CS) != len(ref.CS) {
						t.Errorf("%s perGate=%v depth %d eval %d: |CS| = %d, sequential %d",
							name, perGate, depth, i, len(res.CS), len(ref.CS))
					} else {
						for j := range ref.CS {
							if res.CS[j] != ref.CS[j] {
								t.Errorf("%s perGate=%v depth %d eval %d: CS[%d] = %d, sequential %d",
									name, perGate, depth, i, j, res.CS[j], ref.CS[j])
							}
						}
					}
					if depth == 1 {
						if res.HonestMessages != ref.HonestMessages || res.HonestBytes != ref.HonestBytes {
							t.Errorf("%s perGate=%v depth %d eval %d: traffic %d msgs/%d bytes, sequential %d/%d",
								name, perGate, depth, i, res.HonestMessages, res.HonestBytes, ref.HonestMessages, ref.HonestBytes)
						}
					} else {
						if !within(res.HonestMessages, ref.HonestMessages, 0.01) || !within(res.HonestBytes, ref.HonestBytes, 0.01) {
							t.Errorf("%s perGate=%v depth %d eval %d: traffic %d msgs/%d bytes outside 1%% of sequential %d/%d",
								name, perGate, depth, i, res.HonestMessages, res.HonestBytes, ref.HonestMessages, ref.HonestBytes)
						}
					}
				}

				// Per-epoch summaries: exact at depth 1; within the PRNG
				// noise band above (ticks get a ±2% / ±4-tick allowance —
				// jitter shifts round-boundary crossings) and triples
				// exact at depth > 1.
				sums := eng.Stats().Evals
				if len(sums) != len(seqSum) {
					t.Fatalf("%s perGate=%v depth %d: %d summaries vs sequential %d",
						name, perGate, depth, len(sums), len(seqSum))
				}
				byEpoch := make(map[int]EvalSummary, len(sums))
				for _, s := range sums {
					byEpoch[s.Epoch] = s
				}
				for _, ref := range seqSum {
					s, ok := byEpoch[ref.Epoch]
					if !ok {
						t.Fatalf("%s perGate=%v depth %d: no summary for epoch %d", name, perGate, depth, ref.Epoch)
					}
					bad := s.Triples != ref.Triples
					if depth == 1 {
						bad = bad || s.Ticks != ref.Ticks || s.Messages != ref.Messages || s.Bytes != ref.Bytes
					} else {
						tickSlack := maxInt64(4, ref.Ticks/50)
						bad = bad || absInt64(s.Ticks-ref.Ticks) > tickSlack ||
							!within(s.Messages, ref.Messages, 0.01) || !within(s.Bytes, ref.Bytes, 0.01)
					}
					if bad {
						t.Errorf("%s perGate=%v depth %d epoch %d: summary {ticks %d, msgs %d, bytes %d, triples %d}, sequential {%d, %d, %d, %d}",
							name, perGate, depth, ref.Epoch, s.Ticks, s.Messages, s.Bytes, s.Triples,
							ref.Ticks, ref.Messages, ref.Bytes, ref.Triples)
					}
				}
			}
		}
	}
}

// within reports |a-b| <= tol*b (relative tolerance against the
// reference b).
func within(a, b uint64, tol float64) bool {
	d := a - b
	if a < b {
		d = b - a
	}
	return float64(d) <= tol*float64(b)
}

func absInt64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestPipelineOverlapSavesTicks pins the point of pipelining: at depth
// 4 the virtual-clock span covering all evaluations is well below the
// sequential span (epochs share the Δ-grid instead of queueing).
func TestPipelineOverlapSavesTicks(t *testing.T) {
	const k = 8
	cfg := engCfg(5, 1, 1, 9)
	circ := circuit.Product(5)

	span := func(depth int) int64 {
		eng, err := NewEngineOpts(cfg, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Preprocess(k * circ.MulCount); err != nil {
			t.Fatal(err)
		}
		inputs := engInputs(cfg.N)
		var pending []*PendingEval
		for i := 0; i < k; i++ {
			if len(pending) == depth {
				if _, err := pending[0].Wait(); err != nil {
					t.Fatal(err)
				}
				pending = pending[1:]
			}
			p, err := eng.EvaluateAsync(circ, inputs)
			if err != nil {
				t.Fatal(err)
			}
			pending = append(pending, p)
		}
		for _, p := range pending {
			if _, err := p.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		sums := eng.Stats().Evals
		first, last := sums[0].StartTick, int64(0)
		for _, s := range sums {
			if s.StartTick < first {
				first = s.StartTick
			}
			if s.EndTick > last {
				last = s.EndTick
			}
		}
		return last - first
	}

	seq := span(1)
	pipe := span(4)
	if pipe >= seq {
		t.Fatalf("depth-4 span %d ticks not below depth-1 span %d", pipe, seq)
	}
	t.Logf("span: depth 1 = %d ticks, depth 4 = %d ticks (%.2fx)", seq, pipe, float64(seq)/float64(pipe))
}

// TestPipelineGuards: the sequential entry points and Snapshot refuse
// while the pipeline is non-empty, and Flush re-enables them.
func TestPipelineGuards(t *testing.T) {
	cfg := engCfg(5, 1, 1, 5)
	circ := circuit.Product(5)
	eng, err := NewEngineOpts(cfg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Preprocess(4 * circ.MulCount); err != nil {
		t.Fatal(err)
	}
	inputs := engInputs(cfg.N)
	p, err := eng.EvaluateAsync(circ, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Evaluate(circ, inputs); !errors.Is(err, ErrEvalsInFlight) {
		t.Fatalf("Evaluate mid-pipeline: %v, want ErrEvalsInFlight", err)
	}
	if _, err := eng.Preprocess(8); !errors.Is(err, ErrEvalsInFlight) {
		t.Fatalf("Preprocess mid-pipeline: %v, want ErrEvalsInFlight", err)
	}
	if err := eng.Snapshot(discard{}); !errors.Is(err, ErrSnapshotMidEvaluate) {
		t.Fatalf("Snapshot mid-pipeline: %v, want ErrSnapshotMidEvaluate", err)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Evaluate(circ, inputs); err != nil {
		t.Fatalf("Evaluate after Flush: %v", err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestPipelineRefillUnderLoad: with the watermark armed and a pool
// budgeted for a fraction of the stream, a depth-4 serving loop never
// sees ErrTriplesExhausted — background refills land while live
// epochs advance, every output matches the clear evaluation, and the
// refill traffic is folded into the preprocessing totals.
func TestPipelineRefillUnderLoad(t *testing.T) {
	const k, depth = 24, 4
	cfg := engCfg(5, 1, 1, 23)
	circ := circuit.Product(5)
	cfg.RefillLowWater = 3 * circ.MulCount
	cfg.RefillBudget = 8 * circ.MulCount
	eng, err := NewEngineOpts(cfg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Preprocess(4 * circ.MulCount); err != nil {
		t.Fatal(err)
	}
	base := eng.Stats()
	inputs := engInputs(cfg.N)
	want, err := circ.Eval(inputs)
	if err != nil {
		t.Fatal(err)
	}

	var pending []*PendingEval
	wait := func() {
		p := pending[0]
		pending = pending[1:]
		res, err := p.Wait()
		if err != nil {
			t.Fatalf("epoch %d: %v", p.Epoch(), err)
		}
		for j := range want {
			if res.Outputs[j] != want[j] {
				t.Fatalf("epoch %d: output[%d] = %d, want %d", p.Epoch(), j, res.Outputs[j].Uint64(), want[j].Uint64())
			}
		}
	}
	for i := 0; i < k; i++ {
		if len(pending) == depth {
			wait()
		}
		p, err := eng.EvaluateAsync(circ, inputs)
		if err != nil {
			t.Fatalf("submit %d (available %d, refilling %v): %v", i, eng.Available(), eng.Refilling(), err)
		}
		pending = append(pending, p)
	}
	for len(pending) > 0 {
		wait()
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}

	st := eng.Stats()
	if st.Batches <= base.Batches {
		t.Fatalf("pool batches %d after the stream, want > %d (no background refill ran)", st.Batches, base.Batches)
	}
	if st.PreprocessMessages <= base.PreprocessMessages {
		t.Fatalf("preprocess traffic %d msgs, want > %d (refill traffic not folded in)",
			st.PreprocessMessages, base.PreprocessMessages)
	}
	if len(st.Evals) != k {
		t.Fatalf("%d eval summaries, want %d", len(st.Evals), k)
	}
	for _, s := range st.Evals {
		if s.Triples != circ.MulCount {
			t.Fatalf("epoch %d consumed %d triples, want %d", s.Epoch, s.Triples, circ.MulCount)
		}
	}
}

// TestPipelineExhaustionRefillRace: a submission that arrives while
// the pool is empty and the refill is still in flight must block only
// until the batch lands (single-stepping the shared scheduler, so the
// live sibling keeps advancing) — not error. Run under -race in CI;
// the scheduler is single-threaded so the interleaving is the race
// surface.
func TestPipelineExhaustionRefillRace(t *testing.T) {
	cfg := engCfg(5, 1, 1, 29)
	circ := circuit.Product(5)
	cfg.RefillLowWater = circ.MulCount
	eng, err := NewEngineOpts(cfg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Preprocess(circ.MulCount); err != nil {
		t.Fatal(err)
	}
	inputs := engInputs(cfg.N)
	want, err := circ.Eval(inputs)
	if err != nil {
		t.Fatal(err)
	}

	// First submission drains the pool to zero and trips the watermark.
	p1, err := eng.EvaluateAsync(circ, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Refilling() {
		t.Fatal("watermark did not trigger a background refill")
	}
	if eng.Available() != 0 {
		t.Fatalf("pool holds %d after the draining submission, want 0", eng.Available())
	}
	// Second submission races the refill: Available is 0, the batch is
	// mid-flight. It must wait for the landing, not fail.
	p2, err := eng.EvaluateAsync(circ, inputs)
	if err != nil {
		t.Fatalf("submission racing the refill: %v", err)
	}
	for _, p := range []*PendingEval{p1, p2} {
		res, err := p.Wait()
		if err != nil {
			t.Fatalf("epoch %d: %v", p.Epoch(), err)
		}
		for j := range want {
			if res.Outputs[j] != want[j] {
				t.Fatalf("epoch %d: output[%d] = %d, want %d", p.Epoch(), j, res.Outputs[j].Uint64(), want[j].Uint64())
			}
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}

	// Without the watermark, the same exhaustion surfaces the typed
	// error and leaves the engine fully usable.
	cfg.RefillLowWater = 0
	eng2, err := NewEngineOpts(cfg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Preprocess(circ.MulCount); err != nil {
		t.Fatal(err)
	}
	q, err := eng2.EvaluateAsync(circ, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.EvaluateAsync(circ, inputs); !errors.Is(err, ErrTriplesExhausted) {
		t.Fatalf("unarmed exhausted submit: %v, want ErrTriplesExhausted", err)
	}
	if _, err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Preprocess(circ.MulCount); err != nil {
		t.Fatalf("refill Preprocess after exhaustion: %v", err)
	}
	if _, err := eng2.Evaluate(circ, inputs); err != nil {
		t.Fatalf("Evaluate after manual refill: %v", err)
	}
}

// TestAvailableMinAcrossHonest is the regression test for the
// first-honest-pool Available bug: with honest pools of unequal depth,
// Available must report the minimum, so the exhaustion pre-check agrees
// with the reserve that would actually fail.
func TestAvailableMinAcrossHonest(t *testing.T) {
	cfg := engCfg(5, 1, 1, 11)
	eng, err := NewEngineOpts(cfg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Preprocess(8); err != nil {
		t.Fatal(err)
	}
	have := eng.Available()
	// Shorten one honest (non-first) party's pool directly.
	if _, err := eng.pools[3].Reserve(2); err != nil {
		t.Fatal(err)
	}
	if got := eng.Available(); got != have-2 {
		t.Fatalf("Available() = %d after shortening party 3's pool, want min %d", got, have-2)
	}
}

// TestReserveAllHonestFailure is the regression test for the
// zero-stand-in bug: an honest party whose reserve fails must surface
// ErrTriplesExhausted (not silently evaluate on zeroed triples), and
// every sibling reservation already taken must be released.
func TestReserveAllHonestFailure(t *testing.T) {
	cfg := engCfg(5, 1, 1, 13)
	eng, err := NewEngineOpts(cfg, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Preprocess(8); err != nil {
		t.Fatal(err)
	}
	full := eng.pools[1].Available()
	// Shorten honest party 4's pool below the request, bypassing the
	// engine's min-Available pre-check to hit the reserve error path.
	if _, err := eng.pools[4].Reserve(full - 1); err != nil {
		t.Fatal(err)
	}
	_, err = eng.reserveAll(full)
	if !errors.Is(err, ErrTriplesExhausted) {
		t.Fatalf("reserveAll with a short honest pool: %v, want ErrTriplesExhausted", err)
	}
	for i := 1; i <= cfg.N; i++ {
		want := full
		if i == 4 {
			want = 1
		}
		if got := eng.pools[i].Available(); got != want {
			t.Fatalf("party %d pool holds %d after failed reserveAll, want %d (siblings not released)", i, got, want)
		}
	}
}

// TestReserveAllCorruptStandIns: a corrupt party with a short pool gets
// zero-share stand-ins and the evaluation still terminates correctly —
// honest liveness never depends on corrupt shares.
func TestReserveAllCorruptStandIns(t *testing.T) {
	cfg := engCfg(5, 1, 1, 17)
	adv := &Adversary{Garble: []int{5}}
	eng, err := NewEngineOpts(cfg, EngineOptions{Adversary: adv})
	if err != nil {
		t.Fatal(err)
	}
	circ := circuit.Product(5)
	if _, err := eng.Preprocess(2 * circ.MulCount); err != nil {
		t.Fatal(err)
	}
	// Drain the corrupt party's pool: its reserve will fail.
	if _, err := eng.pools[5].Reserve(eng.pools[5].Available()); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Evaluate(circ, engInputs(5))
	if err != nil {
		t.Fatalf("Evaluate with corrupt short pool: %v", err)
	}
	if len(res.Outputs) == 0 {
		t.Fatal("no outputs")
	}
}
