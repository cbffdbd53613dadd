// Command beacon implements a distributed randomness beacon on top of
// the MPC engine: every party contributes a private random value and
// the beacon output is their sum. As long as at least one contributor
// is honest (and the protocol guarantees |CS| ≥ n - ts contributors),
// the output is uniformly random and unbiased — the adversary fixes
// its contributions *before* learning anything about honest ones,
// because inputs are verifiably secret-shared before any opening.
//
// The beacon runs over an asynchronous network with one Byzantine
// party, producing a fresh value per epoch.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"repro/circuit"
	"repro/field"
	"repro/mpc"
)

func main() {
	const n = 8
	cfg := mpc.Config{N: n, Ts: 2, Ta: 1, Network: mpc.Async}
	adv := &mpc.Adversary{Garble: []int{2}}

	fmt.Println("epoch | beacon output (GF(2^61-1))      | contributors")
	for epoch := uint64(1); epoch <= 5; epoch++ {
		// Each party draws its contribution from its own entropy; the
		// simulation models this with per-party seeded streams.
		inputs := make([]field.Element, n)
		for i := range inputs {
			r := rand.New(rand.NewPCG(epoch, uint64(i)*0x9e3779b97f4a7c15))
			inputs[i] = field.Random(r)
		}
		cfg.Seed = epoch
		res, err := mpc.RunOpts(cfg, mpc.EngineOptions{Adversary: adv}, circuit.Sum(n), inputs)
		if err != nil {
			log.Fatalf("epoch %d: %v", epoch, err)
		}
		fmt.Printf("%5d | %-32v | %d/%d\n", epoch, res.Outputs[0], len(res.CS), n)
	}
	fmt.Println("\nEach value is the sum of ≥ n - ts secret contributions — unbiased while any one is honest.")
}
