// Command setmembership runs private set membership: party 1 holds a
// query element, parties 2..n each hold one element of a blocklist,
// and the parties jointly learn only whether the query is on the list
// — the product Π(e - s_j) is zero exactly for members, and for
// non-members it reveals nothing beyond non-membership because every
// honest run re-randomises the Beaver triples.
//
// This run happens over an *asynchronous* network with one corrupt
// list holder, exercising the fallback half of the protocol.
package main

import (
	"fmt"
	"log"

	"repro/circuit"
	"repro/field"
	"repro/mpc"
)

func main() {
	const n = 8
	blocklist := []uint64{7781, 1234, 9999, 4242, 1337, 8080, 5555}

	for _, query := range []uint64{4242, 4243} {
		inputs := make([]field.Element, n)
		inputs[0] = field.New(query)
		for i, s := range blocklist {
			inputs[i+1] = field.New(s)
		}

		cfg := mpc.Config{N: n, Ts: 2, Ta: 1, Network: mpc.Async, Seed: 99}
		adv := &mpc.Adversary{Garble: []int{8}} // holder of the last shard is Byzantine
		res, err := mpc.RunOpts(cfg, mpc.EngineOptions{Adversary: adv}, circuit.SetMembership(n), inputs)
		if err != nil {
			log.Fatal(err)
		}

		// Under asynchrony up to ta input providers may be excluded
		// (|CS| ≥ n - ts); the verdict is valid for the included list
		// shards.
		verdict := "NOT on the list"
		if res.Outputs[0].IsZero() {
			verdict = "ON the list"
		}
		fmt.Printf("query %d: %s (checked %d of %d shards, async network, 1 Byzantine holder)\n",
			query, verdict, len(res.CS)-1, len(blocklist))
	}
}
