package fuzzer

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/scenario"
)

// TestGenerateDeterministic: a trial is a pure function of
// (masterSeed, index) — the replayability the whole subsystem rests on.
func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 50; i++ {
		a, b := Generate(7, i), Generate(7, i)
		if !bytes.Equal(a.JSON(), b.JSON()) {
			t.Fatalf("trial %d not deterministic:\n%s\nvs\n%s", i, a.JSON(), b.JSON())
		}
	}
	if bytes.Equal(Generate(7, 0).JSON(), Generate(7, 1).JSON()) {
		t.Fatal("consecutive trials identical: index does not feed the stream")
	}
	if bytes.Equal(Generate(7, 0).JSON(), Generate(8, 0).JSON()) {
		t.Fatal("campaign seeds 7 and 8 generate the same trial 0")
	}
}

// TestGeneratedManifestsValidate: the generator must stay inside the
// manifest schema AND the network's corruption budget — both are
// oracle preconditions.
func TestGeneratedManifestsValidate(t *testing.T) {
	for i := 0; i < 200; i++ {
		m := Generate(3, i)
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d invalid: %v", i, err)
		}
		budget := NetworkBudget(m.Parties, m.Network.Kind)
		if c := m.Adversary.Corrupt(); len(c) > budget {
			t.Fatalf("trial %d corrupts %v, over the %s budget %d", i, c, m.Network.Kind, budget)
		}
	}
}

// TestGeneratorCoverage: over a few hundred trials the generator must
// actually exercise the space it claims to: both networks, random and
// named circuit families, every adversary behaviour, starvation and
// burst schedules.
func TestGeneratorCoverage(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		m := Generate(1, i)
		seen["net:"+m.Network.Kind] = true
		if m.Circuit.Family == "random" {
			seen["circuit:random"] = true
		} else {
			seen["circuit:named"] = true
		}
		a := m.Adversary
		mark := func(cond bool, label string) {
			if cond {
				seen[label] = true
			}
		}
		mark(len(a.Passive) > 0, "adv:passive")
		mark(len(a.Silent) > 0, "adv:silent")
		mark(len(a.Garble) > 0, "adv:garble")
		mark(len(a.CrashAt) > 0, "adv:crash")
		mark(len(a.Drop) > 0, "adv:drop")
		mark(len(a.Delay) > 0, "adv:delay")
		mark(len(a.Equivocate) > 0, "adv:equivocate")
		mark(len(a.StarveFrom) > 0, "adv:starve")
		mark(m.Network.BurstPeriod > 0, "net:burst")
		mark(m.Network.Tail > 0, "net:tail")
		mark(len(m.Inputs) > 0, "inputs:explicit")
	}
	for _, want := range []string{
		"net:sync", "net:async", "net:burst", "net:tail",
		"circuit:random", "circuit:named", "inputs:explicit",
		"adv:passive", "adv:silent", "adv:garble", "adv:crash",
		"adv:drop", "adv:delay", "adv:equivocate", "adv:starve",
	} {
		if !seen[want] {
			t.Errorf("300 trials never generated %s", want)
		}
	}
}

// TestFuzzDeterministicAcrossPools: the campaign summary must not
// depend on the worker-pool size (trial order and verdicts are fixed
// by the seed alone).
func TestFuzzDeterministicAcrossPools(t *testing.T) {
	opts := Options{Trials: 4, Seed: 11}
	a := Fuzz(Options{Trials: opts.Trials, Seed: opts.Seed, Parallel: 1})
	b := Fuzz(Options{Trials: opts.Trials, Seed: opts.Seed, Parallel: 4})
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("summaries differ across pool sizes:\n%s\nvs\n%s", aj, bj)
	}
}

// TestInjectedViolationCaughtShrunkReplayed is the acceptance pipeline
// end to end: a deliberately over-budget adversary must be caught by
// the corruption-budget oracle, minimized to exactly budget+1
// corruptions, emitted as JSON, and reproduced bit-identically by a
// Check of the saved file.
func TestInjectedViolationCaughtShrunkReplayed(t *testing.T) {
	sum := Fuzz(Options{Trials: 3, Seed: 1, Inject: InjectOverBudget})
	if len(sum.Failed) != 3 {
		t.Fatalf("want every injected trial to fail, got %d of 3", len(sum.Failed))
	}
	for _, ce := range sum.Failed {
		if ce.Violations[0].Oracle != OracleBudget {
			t.Fatalf("trial %d: primary oracle %q, want %q", ce.Trial, ce.Violations[0].Oracle, OracleBudget)
		}
		budget := NetworkBudget(ce.Manifest.Parties, ce.Manifest.Network.Kind)
		if c := ce.Manifest.Adversary.Corrupt(); len(c) != budget+1 {
			t.Errorf("trial %d: minimized to %d corruptions %v, want exactly budget+1 = %d",
				ce.Trial, len(c), c, budget+1)
		}

		// Save and replay: identical verdict.
		path := filepath.Join(t.TempDir(), "ce.json")
		if err := os.WriteFile(path, ce.Manifest.JSON(), 0o644); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		saved, err := scenario.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		v := Check(saved, nil)
		if !reflect.DeepEqual(v.Violations, ce.Violations) {
			t.Errorf("trial %d: replay verdict %v, want %v", ce.Trial, v.Violations, ce.Violations)
		}
	}
}

// TestShrinkIsGreedyAndDeterministic: shrinking the same failing
// manifest twice yields the identical minimized manifest, and the
// result still violates the primary oracle.
func TestShrinkIsGreedyAndDeterministic(t *testing.T) {
	m := Generate(1, 0)
	applyInject(m, InjectOverBudget)
	v := Check(m, nil)
	if v.OK() {
		t.Fatal("injected manifest unexpectedly passed")
	}
	a, aRuns := Shrink(m, v.Primary(), 200)
	b, bRuns := Shrink(m, v.Primary(), 200)
	if !bytes.Equal(a.JSON(), b.JSON()) || aRuns != bRuns {
		t.Fatalf("shrink not deterministic: %d vs %d runs\n%s\nvs\n%s", aRuns, bRuns, a.JSON(), b.JSON())
	}
	if !hasOracle(Check(a, nil), v.Primary()) {
		t.Fatalf("minimized manifest no longer violates %q:\n%s", v.Primary(), a.JSON())
	}
}

// TestCheckPassesOnBuiltins: every success-asserting builtin scenario
// must satisfy the oracle suite — the invariants are universally
// quantified over in-budget runs, and the builtins are in budget.
func TestCheckPassesOnBuiltins(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus through two evaluators; skipped with -short")
	}
	for _, m := range scenario.Builtin() {
		if m.Expect.Error != "" || m.SyncOnly {
			// Negative controls and ablations deliberately break the
			// guarantees the oracles check.
			continue
		}
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			if v := Check(m, nil); !v.OK() {
				t.Fatalf("oracle violations on builtin: %+v", v.Violations)
			}
		})
	}
}

// TestReplayParseRejectsGarbage: the replay path (`scenario fuzz
// -replay` parses the saved file with scenario.Parse) must reject
// malformed and unknown-field JSON rather than running something else.
func TestReplayParseRejectsGarbage(t *testing.T) {
	if _, err := scenario.Parse([]byte(`{"nope":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := scenario.Parse([]byte(`{]`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}
