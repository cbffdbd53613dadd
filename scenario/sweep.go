package scenario

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// SweepResult pairs a manifest with its run outcome. Exactly one of
// Report and Err is set: Err covers manifest/assembly failures and
// recovered panics, while engine errors and assertion verdicts live
// inside the Report.
type SweepResult struct {
	Manifest *Manifest
	Report   *Report
	Err      error
}

// Sweep runs the manifests on a worker pool of the given size
// (parallel < 1 uses GOMAXPROCS) and returns one result per manifest,
// in input order. Each simulation is single-threaded and deterministic,
// so results are independent of the pool size and of scheduling: only
// wall-clock time varies. A panicking run is contained to its own
// result (SweepResult.Err); the rest of the sweep proceeds.
func Sweep(ms []*Manifest, parallel int) []SweepResult {
	if len(ms) == 0 {
		return nil
	}
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(ms) {
		parallel = len(ms)
	}
	out := make([]SweepResult, len(ms))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = runIsolated(ms[i])
			}
		}()
	}
	for i := range ms {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// runIsolated runs one manifest, converting a panic anywhere in
// assembly or simulation into the result's Err so a single broken
// manifest cannot take down the worker pool mid-sweep.
func runIsolated(m *Manifest) (sr SweepResult) {
	sr.Manifest = m
	defer func() {
		if r := recover(); r != nil {
			name := "<nil>"
			if m != nil {
				name = m.Name
			}
			sr.Report = nil
			sr.Err = fmt.Errorf("scenario %q: run panicked: %v\n%s", name, r, debug.Stack())
		}
	}()
	sr.Report, sr.Err = RunWith(m, RunOptions{})
	return sr
}

// ExpandSeeds derives one manifest per seed from a base manifest,
// renaming each to "<name>-seed<s>". Expected exact outputs survive
// reseeding only when the agreement set is pinned, so seed expansion
// drops the Outputs assertion and keeps the seed-independent ones
// (consistency, agreement bounds, budgets). Each derived manifest is a
// deep copy: mutating one (or the base) never aliases another's
// adversary, input or expectation data.
func ExpandSeeds(m *Manifest, seeds []uint64) []*Manifest {
	out := make([]*Manifest, len(seeds))
	for i, s := range seeds {
		c := m.clone()
		c.Name = fmt.Sprintf("%s-seed%d", m.Name, s)
		c.Seed = s
		c.Expect.Outputs = nil
		out[i] = c
	}
	return out
}

// clone deep-copies the manifest through a JSON round trip: a Manifest
// is fully JSON-tagged (that is how manifests load in the first
// place), so the round trip copies every slice- and map-typed field —
// including ones added after this was written — and derived manifests
// share no mutable state with the base.
func (m *Manifest) clone() *Manifest {
	data, err := json.Marshal(m)
	if err != nil {
		panic(err) // a Manifest is always marshalable (see JSON)
	}
	var c Manifest
	if err := json.Unmarshal(data, &c); err != nil {
		panic(err) // our own marshal output always parses
	}
	return &c
}
