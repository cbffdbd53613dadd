package bench

import "testing"

// TestMulDeepMessageBudget is the CI guard behind `make bench-msgs`:
// the tracked mul-deep online bench (8×8 multiplication grid, cM=64,
// DM=8) must stay at or below the recorded per-layer honest-message
// baseline, and the layered evaluator must keep its ≥ 3× reduction
// over the per-gate reference. The run is deterministic (seed 1), so a
// single regressed message is a failure, not noise.
func TestMulDeepMessageBudget(t *testing.T) {
	circ := MulDeepCircuit()
	lay := E13Online(Config8(), circ, false, 1)
	per := E13Online(Config8(), circ, true, 1)
	if !lay.OK || !per.OK {
		t.Fatalf("mul-deep online run incorrect: layered ok=%v, per-gate ok=%v", lay.OK, per.OK)
	}
	if lay.HonestMsgs > MulDeepLayeredMsgsBaseline {
		t.Errorf("layered honest messages %d regressed above the recorded baseline %d",
			lay.HonestMsgs, MulDeepLayeredMsgsBaseline)
	}
	if per.HonestMsgs != MulDeepPerGateMsgsBaseline {
		t.Errorf("per-gate reference sends %d honest messages, recorded %d (reference drifted)",
			per.HonestMsgs, MulDeepPerGateMsgsBaseline)
	}
	if ratio := float64(per.HonestMsgs) / float64(lay.HonestMsgs); ratio < 3 {
		t.Errorf("per-layer batching ratio %.2fx below the 3x acceptance floor", ratio)
	}
}

// TestE13OnlineInvariants pins the analytical message counts: the
// online phase is (#recon instances + ready) · n² honest messages —
// per-gate one recon per mul gate, layered one per layer.
func TestE13OnlineInvariants(t *testing.T) {
	cfg := Config8()
	n2 := uint64(cfg.N * cfg.N)
	circ := MulDeepCircuit()
	lay := E13Online(cfg, circ, false, 1)
	per := E13Online(cfg, circ, true, 1)
	// layered: DM layer recons + output recon + ready broadcast.
	if want := uint64(circ.MulDepth+2) * n2; lay.HonestMsgs != want {
		t.Errorf("layered msgs = %d, want (DM+2)·n² = %d", lay.HonestMsgs, want)
	}
	// per-gate: cM gate recons + output recon + ready broadcast.
	if want := uint64(circ.MulCount+2) * n2; per.HonestMsgs != want {
		t.Errorf("per-gate msgs = %d, want (cM+2)·n² = %d", per.HonestMsgs, want)
	}
	if lay.LastOutput > lay.Bound {
		t.Errorf("layered online phase finished at %d > bound %d", lay.LastOutput, lay.Bound)
	}
}
