package scenario

import (
	"reflect"
	"testing"

	"repro/mpc"
)

// TestCorpusLayeredMatchesPerGate replays the builtin scenario corpus
// through both online-phase evaluators — the layered batched default
// and the retained per-gate reference (mpc.Config.PerGateEval) — and
// requires identical engine errors, public outputs, agreement sets and
// per-party termination. Expected-failure scenarios (Expect.Error) are
// replayed too: both evaluators must fail identically.
//
// Per-party termination *times* and traffic are intentionally not
// compared: the two modes send different message counts, and every
// delivery delay draws from the run's single RNG stream, so schedules
// diverge by construction while the computed values may not.
func TestCorpusLayeredMatchesPerGate(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential replay is minutes of simulation; run without -short")
	}
	for _, m := range Builtin() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			art, err := Build(m)
			if err != nil {
				t.Fatal(err)
			}
			layCfg := art.Cfg
			refCfg := art.Cfg
			refCfg.PerGateEval = true
			lay, layErr := mpc.RunOpts(layCfg, mpc.EngineOptions{Adversary: art.Adversary}, art.Circuit, art.Inputs)
			ref, refErr := mpc.RunOpts(refCfg, mpc.EngineOptions{Adversary: art.Adversary}, art.Circuit, art.Inputs)
			if (layErr == nil) != (refErr == nil) {
				t.Fatalf("engine errors differ: layered %v, per-gate %v", layErr, refErr)
			}
			if layErr != nil {
				if layErr.Error() != refErr.Error() {
					t.Fatalf("engine errors differ: layered %v, per-gate %v", layErr, refErr)
				}
				return
			}
			if !reflect.DeepEqual(lay.Outputs, ref.Outputs) {
				t.Errorf("outputs differ: layered %v, per-gate %v", lay.Outputs, ref.Outputs)
			}
			if !reflect.DeepEqual(lay.CS, ref.CS) {
				t.Errorf("agreement sets differ: layered %v, per-gate %v", lay.CS, ref.CS)
			}
			for i := 1; i < len(lay.PerParty); i++ {
				if (lay.PerParty[i] == nil) != (ref.PerParty[i] == nil) {
					t.Errorf("party %d termination differs: layered %v, per-gate %v",
						i, lay.PerParty[i] != nil, ref.PerParty[i] != nil)
					continue
				}
				if lay.PerParty[i] != nil && !reflect.DeepEqual(lay.PerParty[i], ref.PerParty[i]) {
					t.Errorf("party %d outputs differ: layered %v, per-gate %v",
						i, lay.PerParty[i], ref.PerParty[i])
				}
			}
		})
	}
}
