// Command fallback demonstrates the paper's headline comparison for
// n = 8 (Section 1): a single best-of-both-worlds protocol tolerates
// ts = 2 faults on a synchronous network and ta = 1 fault on an
// asynchronous one, whereas
//
//   - a purely synchronous protocol (fallback paths disabled — the
//     "existing SMPC" baseline) can lose liveness under asynchrony, and
//   - a purely asynchronous protocol must set t < n/4, i.e. tolerates
//     only 1 fault even when the network happens to be synchronous.
//
// The asynchronous-baseline row is modelled by running the engine with
// ts = ta = 1: the AMPC resilience envelope.
package main

import (
	"fmt"

	"repro/circuit"
	"repro/field"
	"repro/mpc"
)

func run(name string, cfg mpc.Config, faults []int, starve bool) {
	inputs := make([]field.Element, 8)
	for i := range inputs {
		inputs[i] = field.New(uint64(10 * (i + 1)))
	}
	adv := &mpc.Adversary{Garble: faults}
	if starve {
		adv.StarveFrom = []int{8}
		adv.StarveUntil = 6000
	}
	if len(faults) > max(cfg.Ts, cfg.Ta) {
		fmt.Printf("%-34s | %-5s | %d faults | NOT TOLERATED (exceeds threshold)\n",
			name, cfg.Network, len(faults))
		return
	}
	cfg.EventLimit = 50_000_000
	res, err := mpc.RunOpts(cfg, mpc.EngineOptions{Adversary: adv}, circuit.Sum(8), inputs)
	if err != nil {
		fmt.Printf("%-34s | %-5s | %d faults | FAILED: %v\n", name, cfg.Network, len(faults), err)
		return
	}
	want, _ := mpc.ExpectedOutputs(circuit.Sum(8), inputs, res.CS)
	status := "OK"
	if res.Outputs[0] != want[0] {
		status = "WRONG OUTPUT"
	}
	fmt.Printf("%-34s | %-5s | %d faults | %s (Σ=%v, |CS|=%d)\n",
		name, cfg.Network, len(faults), status, res.Outputs[0], len(res.CS))
}

func main() {
	bobw := func(net mpc.Network) mpc.Config {
		return mpc.Config{N: 8, Ts: 2, Ta: 1, Network: net, Seed: 5}
	}
	ampc := func(net mpc.Network) mpc.Config {
		return mpc.Config{N: 8, Ts: 1, Ta: 1, Network: net, Seed: 5}
	}
	smpc := func(net mpc.Network) mpc.Config {
		c := bobw(net)
		c.SyncOnly = true
		return c
	}

	fmt.Println("n = 8 — who survives what (paper §1, reproduced):")
	fmt.Println()
	run("best-of-both-worlds (ts=2, ta=1)", bobw(mpc.Sync), []int{2, 5}, false)
	run("best-of-both-worlds (ts=2, ta=1)", bobw(mpc.Async), []int{2}, true)
	run("sync-only baseline  (SMPC-style)", smpc(mpc.Sync), []int{2, 5}, false)
	run("sync-only baseline  (SMPC-style)", smpc(mpc.Async), []int{2}, true)
	run("async-only envelope (t<n/4)", ampc(mpc.Sync), []int{2, 5}, false)
	run("async-only envelope (t<n/4)", ampc(mpc.Async), []int{2}, true)
	fmt.Println()
	fmt.Println("Only the best-of-both-worlds protocol handles both rows of its column.")
}
