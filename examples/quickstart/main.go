// Command quickstart is the five-minute tour of the library: eight
// parties jointly compute the sum and the product of their private
// inputs, first over a synchronous network tolerating ts = 2 Byzantine
// parties, then over an asynchronous network tolerating ta = 1 — with
// the *same* protocol, which is the paper's contribution.
package main

import (
	"fmt"
	"log"

	"repro/circuit"
	"repro/field"
	"repro/mpc"
)

func main() {
	inputs := make([]field.Element, 8)
	for i := range inputs {
		inputs[i] = field.New(uint64(i + 1)) // party i's secret: i+1
	}

	for _, network := range []mpc.Network{mpc.Sync, mpc.Async} {
		cfg := mpc.Config{
			N: 8, Ts: 2, Ta: 1, // 3·ts + ta = 7 < 8
			Network: network,
			Seed:    42,
		}

		sum, err := mpc.RunOpts(cfg, mpc.EngineOptions{}, circuit.Sum(8), inputs)
		if err != nil {
			log.Fatalf("%v run failed: %v", network, err)
		}
		prod, err := mpc.RunOpts(cfg, mpc.EngineOptions{}, circuit.Product(8), inputs)
		if err != nil {
			log.Fatalf("%v run failed: %v", network, err)
		}

		fmt.Printf("network=%-5s  Σx=%v  Πx=%v  |CS|=%d  honest traffic: %d msgs / %d bytes\n",
			network, sum.Outputs[0], prod.Outputs[0], len(prod.CS),
			prod.HonestMessages, prod.HonestBytes)
	}
	fmt.Println("\nSame binary, same protocol, both network types — that is the best-of-both-worlds guarantee.")
}
