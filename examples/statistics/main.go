// Command statistics runs the "federated statistics" scenario from the
// paper's motivation: n hospitals hold a private measurement each and
// want the cohort mean and variance without a trusted aggregator —
// and without knowing whether their WAN behaves synchronously today.
//
// The circuit reveals only Σx and Σx²; mean and variance are public
// functions of those aggregates and the public cohort size. One of the
// hospitals is Byzantine and sends garbage; the computation still
// completes and stays correct.
package main

import (
	"fmt"
	"log"

	"repro/circuit"
	"repro/field"
	"repro/mpc"
)

func main() {
	// Eight hospitals; measurements in some clinical unit.
	readings := []uint64{142, 155, 138, 149, 151, 144, 160, 147}
	inputs := make([]field.Element, len(readings))
	for i, r := range readings {
		inputs[i] = field.New(r)
	}

	cfg := mpc.Config{N: 8, Ts: 2, Ta: 1, Network: mpc.Sync, Seed: 7}
	adv := &mpc.Adversary{Garble: []int{6}} // hospital 6 is compromised

	res, err := mpc.RunOpts(cfg, mpc.EngineOptions{Adversary: adv}, circuit.SumAndVariancePieces(8), inputs)
	if err != nil {
		log.Fatal(err)
	}

	sum := res.Outputs[0].Uint64()
	sumSq := res.Outputs[1].Uint64()
	n := uint64(len(res.CS)) // inputs that entered the computation
	// In a synchronous run every honest hospital is in CS; the corrupt
	// one may or may not be. Mean/variance are computed in the clear
	// from the two public aggregates (×1000 fixed point for display).
	mean1000 := sum * 1000 / n
	var1000 := (sumSq*1000/n - sum*sum*1000/(n*n))

	fmt.Printf("cohort size (inputs counted): %d of %d\n", n, len(readings))
	fmt.Printf("Σx   = %d\n", sum)
	fmt.Printf("Σx²  = %d\n", sumSq)
	fmt.Printf("mean ≈ %d.%03d\n", mean1000/1000, mean1000%1000)
	fmt.Printf("var  ≈ %d.%03d\n", var1000/1000, var1000%1000)
	fmt.Printf("protocol terminated at tick %d (bound %d); honest traffic %d msgs\n",
		maxTime(res.TerminatedAt), res.Deadline, res.HonestMessages)
}

func maxTime(ts []int64) int64 {
	var m int64
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}
