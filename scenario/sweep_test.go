package scenario

import (
	"strings"
	"testing"
)

// TestExpandSeedsDeepCopies is the aliasing regression test: the old
// shallow copy (`c := *m`) made every derived manifest share the
// base's adversary/expect slice and map fields, so mutating one
// derived manifest corrupted its siblings and the base.
func TestExpandSeedsDeepCopies(t *testing.T) {
	base := &Manifest{
		Name:    "expand-alias-base",
		Parties: Parties{N: 8, Ts: 2, Ta: 1},
		Network: NetworkSpec{Kind: "sync", Delta: 10},
		Adversary: AdversarySpec{
			Garble:      []int{2},
			StarveFrom:  []int{8},
			StarveUntil: 6000,
			CrashAt:     map[int]int64{4: 40},
		},
		Circuit: CircuitSpec{Family: "polyeval", Coeffs: []uint64{7, 3, 2}},
		Inputs:  []uint64{1, 2, 3, 4, 5, 6, 7, 8},
		Seed:    1,
		Expect:  Expect{Consistent: true, MinAgreement: 6},
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	out := ExpandSeeds(base, []uint64{3, 9})

	// Mutate every slice/map field of the first derived manifest.
	out[0].Adversary.Garble[0] = 99
	out[0].Adversary.StarveFrom[0] = 99
	out[0].Adversary.CrashAt[4] = 9999
	out[0].Circuit.Coeffs[0] = 99
	out[0].Inputs[0] = 99

	if base.Adversary.Garble[0] != 2 || out[1].Adversary.Garble[0] != 2 {
		t.Error("adversary.garble aliased between base and derived manifests")
	}
	if base.Adversary.StarveFrom[0] != 8 || out[1].Adversary.StarveFrom[0] != 8 {
		t.Error("adversary.starveFrom aliased between base and derived manifests")
	}
	if base.Adversary.CrashAt[4] != 40 || out[1].Adversary.CrashAt[4] != 40 {
		t.Error("adversary.crashAt map aliased between base and derived manifests")
	}
	if base.Circuit.Coeffs[0] != 7 || out[1].Circuit.Coeffs[0] != 7 {
		t.Error("circuit.coeffs aliased between base and derived manifests")
	}
	if base.Inputs[0] != 1 || out[1].Inputs[0] != 1 {
		t.Error("inputs aliased between base and derived manifests")
	}
}

// TestExpandSeedsPreservesBaseOutputs: dropping the Outputs assertion
// on derived manifests must not clear the base's (nil-ing the derived
// field is fine, writing through an aliased slice is not).
func TestExpandSeedsPreservesBaseOutputs(t *testing.T) {
	m, err := Lookup("sync-boundary-n5")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]uint64(nil), m.Expect.Outputs...)
	out := ExpandSeeds(m, []uint64{1, 2, 3})
	for _, c := range out {
		if c.Expect.Outputs != nil {
			t.Fatal("derived manifest kept the exact-output assertion")
		}
	}
	if len(m.Expect.Outputs) != len(want) {
		t.Fatal("expansion mutated the base manifest's expected outputs")
	}
}

// TestSweepIsolatesPanic: a manifest whose run panics — here a nil
// manifest, which panics on the first field access inside RunWith — must
// surface as that result's Err without killing the worker pool; the
// healthy manifests around it still produce passing reports.
func TestSweepIsolatesPanic(t *testing.T) {
	good, err := Lookup("sync-boundary-n5")
	if err != nil {
		t.Fatal(err)
	}
	ms := []*Manifest{good, nil, good}
	results := Sweep(ms, 2)
	if len(results) != 3 {
		t.Fatalf("want 3 results, got %d", len(results))
	}
	if results[1].Err == nil {
		t.Fatal("panicking run did not report an error")
	}
	if !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Errorf("error does not identify the panic: %v", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("healthy manifest %d reported error: %v", i, results[i].Err)
		}
		if results[i].Report == nil || !results[i].Report.Pass {
			t.Errorf("healthy manifest %d did not pass after sibling panic", i)
		}
	}
}

// TestSweepIsolatesAssemblyError: a manifest failing validation mid-
// sweep is confined to its own result (the pre-existing error path,
// pinned here alongside the new panic isolation).
func TestSweepIsolatesAssemblyError(t *testing.T) {
	good, err := Lookup("sync-boundary-n5")
	if err != nil {
		t.Fatal(err)
	}
	bad := good.clone()
	bad.Name = "sweep-bad-family"
	bad.Circuit = CircuitSpec{Family: "no-such-family"}
	results := Sweep([]*Manifest{bad, good}, 1)
	if results[0].Err == nil {
		t.Fatal("invalid manifest did not report an error")
	}
	if results[1].Err != nil || results[1].Report == nil || !results[1].Report.Pass {
		t.Error("the manifest after the failure was not run to a passing report")
	}
}

// TestSweepEmptyAndClamp: an empty manifest list fast-returns nil for
// any pool size, and a pool larger than the list is clamped.
func TestSweepEmptyAndClamp(t *testing.T) {
	if got := Sweep(nil, 0); got != nil {
		t.Errorf("Sweep(nil, 0) = %v, want nil", got)
	}
	if got := Sweep([]*Manifest{}, 8); got != nil {
		t.Errorf("Sweep(empty, 8) = %v, want nil", got)
	}
	m, err := Lookup("sync-boundary-n5")
	if err != nil {
		t.Fatal(err)
	}
	results := Sweep([]*Manifest{m}, 64)
	if len(results) != 1 || results[0].Err != nil || !results[0].Report.Pass {
		t.Errorf("oversized pool broke a one-manifest sweep: %+v", results)
	}
}
