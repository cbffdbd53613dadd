package fuzzer

import (
	"sort"

	"repro/scenario"
)

// Shrink greedily minimizes a failing manifest while preserving the
// primary oracle violation: it repeatedly tries the candidate
// reductions in order (aggressive first — drop the whole adversary,
// collapse the circuit — then entry-by-entry), keeps the first
// candidate that still violates the same oracle, and restarts until no
// reduction survives or maxRuns oracle evaluations are spent. The
// result is the minimized manifest and the number of Check runs used.
//
// Shrinking is deterministic: candidates are enumerated in a fixed
// order and every Check is a pure function of its manifest, so the same
// failing trial always minimizes to the same counterexample.
func Shrink(m *scenario.Manifest, primary string, maxRuns int) (*scenario.Manifest, int) {
	if maxRuns <= 0 {
		maxRuns = 200
	}
	cur := clone(m)
	runs := 0
	for {
		reduced := false
		for _, cand := range candidates(cur) {
			if runs >= maxRuns {
				return cur, runs
			}
			runs++
			if hasOracle(Check(cand, nil), primary) {
				cur = cand
				reduced = true
				break
			}
		}
		if !reduced {
			return cur, runs
		}
	}
}

func hasOracle(v *Verdict, oracle string) bool {
	for _, viol := range v.Violations {
		if viol.Oracle == oracle {
			return true
		}
	}
	return false
}

// candidates enumerates the one-step reductions of m, most aggressive
// first. Every candidate is a deep copy; m is never mutated.
func candidates(m *scenario.Manifest) []*scenario.Manifest {
	var out []*scenario.Manifest
	try := func(mutate func(*scenario.Manifest) bool) {
		c := clone(m)
		if mutate(c) {
			out = append(out, c)
		}
	}

	// Whole-component reductions.
	try(func(c *scenario.Manifest) bool {
		if c.Adversary.IsZero() {
			return false
		}
		c.Adversary = scenario.AdversarySpec{}
		return true
	})
	try(func(c *scenario.Manifest) bool {
		if c.Circuit.Family == "sum" {
			return false
		}
		c.Circuit = scenario.CircuitSpec{Family: "sum"}
		return true
	})
	try(func(c *scenario.Manifest) bool {
		if c.Inputs == nil {
			return false
		}
		c.Inputs = nil
		return true
	})

	// Network simplifications.
	try(func(c *scenario.Manifest) bool {
		if c.Network.BurstPeriod == 0 {
			return false
		}
		c.Network.BurstPeriod, c.Network.BurstDown = 0, 0
		return true
	})
	try(func(c *scenario.Manifest) bool {
		if c.Network.Tail == 0 {
			return false
		}
		c.Network.Tail = 0
		return true
	})
	try(func(c *scenario.Manifest) bool {
		if c.Network.Delta == 10 {
			return false
		}
		c.Network.Delta = 10
		return true
	})

	// Adversary entry-by-entry reductions.
	a := m.Adversary
	removeFrom := func(field func(*scenario.AdversarySpec) *[]int, i int) {
		try(func(c *scenario.Manifest) bool {
			ps := field(&c.Adversary)
			*ps = append(append([]int(nil), (*ps)[:i]...), (*ps)[i+1:]...)
			return true
		})
	}
	for i := range a.Passive {
		removeFrom(func(s *scenario.AdversarySpec) *[]int { return &s.Passive }, i)
	}
	for i := range a.Silent {
		removeFrom(func(s *scenario.AdversarySpec) *[]int { return &s.Silent }, i)
	}
	for i := range a.Garble {
		removeFrom(func(s *scenario.AdversarySpec) *[]int { return &s.Garble }, i)
	}
	for i := range a.Equivocate {
		removeFrom(func(s *scenario.AdversarySpec) *[]int { return &s.Equivocate }, i)
	}
	for _, p := range sortedMapKeys(a.CrashAt) {
		p := p
		try(func(c *scenario.Manifest) bool {
			delete(c.Adversary.CrashAt, p)
			if len(c.Adversary.CrashAt) == 0 {
				c.Adversary.CrashAt = nil
			}
			return true
		})
	}
	for _, p := range sortedMapKeys(a.Drop) {
		p := p
		try(func(c *scenario.Manifest) bool {
			delete(c.Adversary.Drop, p)
			if len(c.Adversary.Drop) == 0 {
				c.Adversary.Drop = nil
			}
			return true
		})
	}
	for _, p := range sortedMapKeys(a.Delay) {
		p := p
		try(func(c *scenario.Manifest) bool {
			delete(c.Adversary.Delay, p)
			if len(c.Adversary.Delay) == 0 {
				c.Adversary.Delay = nil
			}
			return true
		})
	}
	try(func(c *scenario.Manifest) bool {
		if len(c.Adversary.StarveFrom) == 0 {
			return false
		}
		c.Adversary.StarveFrom, c.Adversary.StarveUntil = nil, 0
		return true
	})
	try(func(c *scenario.Manifest) bool {
		if c.Adversary.StarveUntil <= 1000 {
			return false
		}
		c.Adversary.StarveUntil = 1000
		return true
	})

	// Random-circuit parameter reductions.
	if m.Circuit.Family == "random" {
		shrinkInt := func(get func(*scenario.CircuitSpec) *int, to, minKeep int) {
			try(func(c *scenario.Manifest) bool {
				f := get(&c.Circuit)
				if *f <= minKeep {
					return false
				}
				if to >= minKeep {
					*f = to
				} else {
					*f--
				}
				return true
			})
		}
		shrinkInt(func(c *scenario.CircuitSpec) *int { return &c.MulPct }, 0, 0)
		shrinkInt(func(c *scenario.CircuitSpec) *int { return &c.Layers }, -1, 1)
		shrinkInt(func(c *scenario.CircuitSpec) *int { return &c.Width }, -1, 1)
		shrinkInt(func(c *scenario.CircuitSpec) *int { return &c.Outs }, 1, 1)
	}
	return out
}

func sortedMapKeys[V any](m map[int]V) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// clone deep-copies a manifest through its JSON form (a Manifest is
// fully JSON-tagged; Parse skips validation so deliberately invalid
// counterexamples clone too).
func clone(m *scenario.Manifest) *scenario.Manifest {
	c, err := scenario.Parse(m.JSON())
	if err != nil {
		panic(err) // our own marshal output always parses
	}
	return c
}
