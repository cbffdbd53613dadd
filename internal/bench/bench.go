// Package bench contains the experiment runners behind both the
// repository-root testing.B benchmarks and the cmd/benchtables table
// generator. Each runner executes one configuration of one experiment
// (E1..E13) on the simulator and returns the measured communication
// and virtual-time figures, which the tables compare against the
// paper's bounds.
package bench

import (
	"fmt"

	"repro/circuit"
	"repro/field"
	"repro/internal/aba"
	"repro/internal/acast"
	"repro/internal/acs"
	"repro/internal/ba"
	"repro/internal/bc"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/triples"
	"repro/internal/vss"
	"repro/internal/wps"
	"repro/mpc"
	"repro/poly"

	"math/rand/v2"
)

// Measure is one experiment row's observed figures.
type Measure struct {
	// HonestMsgs and HonestBytes count honest-party traffic.
	HonestMsgs, HonestBytes uint64
	// LastOutput is the virtual time of the last honest output.
	LastOutput sim.Time
	// Bound is the derived synchronous deadline for the run (0 if not
	// applicable).
	Bound sim.Time
	// Events is the number of simulator events processed.
	Events uint64
	// OK reports whether the run satisfied its correctness conditions.
	OK bool
}

// cfgFor builds a maximal-resilience BoBW config for n parties:
// ts = ⌈n/3⌉-1 adjusted to satisfy 3ts+ta<n with ta = min(ts, leftover).
func cfgFor(n int) proto.Config {
	ts := (n - 2) / 3
	if ts < 1 {
		ts = 1
	}
	ta := n - 3*ts - 1
	if ta > ts {
		ta = ts
	}
	if ta < 0 {
		ta = 0
	}
	return proto.Config{N: n, Ts: ts, Ta: ta, Delta: 10, CoinRounds: 8}
}

// Config8 is the paper's flagship (n=8, ts=2, ta=1) configuration.
func Config8() proto.Config { return proto.Config{N: 8, Ts: 2, Ta: 1, Delta: 10, CoinRounds: 8} }

// Config5 is the smallest best-of-both-worlds configuration
// (n=5, ts=1, ta=1).
func Config5() proto.Config { return proto.Config{N: 5, Ts: 1, Ta: 1, Delta: 10, CoinRounds: 8} }

// ConfigN returns cfgFor(n) for table sweeps.
func ConfigN(n int) proto.Config { return cfgFor(n) }

// Recorded per-layer baseline of the tracked mul-deep online bench
// (MulDeepCircuit on Config8, seed 1): the CI budget guard fails if
// the layered evaluator's honest-origin message count regresses above
// MulDeepLayeredMsgsBaseline. The per-gate figure is kept for the
// ratio's denominator; the acceptance floor is a ≥ 3× reduction.
const (
	MulDeepLayeredMsgsBaseline uint64 = 640
	MulDeepPerGateMsgsBaseline uint64 = 4224
)

// E1Acast measures Bracha's reliable broadcast (Lemma 2.4) with an
// honest sender and payload size l bytes.
func E1Acast(n, l int, seed uint64) Measure {
	cfg := cfgFor(n)
	w := proto.NewWorld(proto.WorldOpts{Cfg: cfg, Network: proto.Sync, Seed: seed})
	var last sim.Time
	delivered := 0
	casts := make([]*acast.Acast, n+1)
	for i := 1; i <= n; i++ {
		casts[i] = acast.New(w.Runtimes[i], "acast", 1, cfg.Ts, func(m []byte) {
			delivered++
			if w.Sched.Now() > last {
				last = w.Sched.Now()
			}
		})
	}
	casts[1].Broadcast(make([]byte, l))
	w.RunToQuiescence()
	return Measure{
		HonestMsgs:  w.Metrics().HonestMessages(),
		HonestBytes: w.Metrics().HonestBytes(),
		LastOutput:  last,
		Bound:       3 * cfg.Delta,
		Events:      w.Sched.Processed(),
		OK:          delivered == n && last <= 3*cfg.Delta,
	}
}

// E4BC measures ΠBC (Theorem 3.5) with an honest sender, sync network.
func E4BC(n, l int, seed uint64) Measure {
	cfg := cfgFor(n)
	w := proto.NewWorld(proto.WorldOpts{Cfg: cfg, Network: proto.Sync, Seed: seed})
	var last sim.Time
	good := 0
	bcs := make([]*bc.BC, n+1)
	for i := 1; i <= n; i++ {
		bcs[i] = bc.New(w.Runtimes[i], "bc", 1, cfg.Ts, cfg.Delta, 0, func(m []byte) {
			if m != nil {
				good++
			}
			if w.Sched.Now() > last {
				last = w.Sched.Now()
			}
		}, nil)
	}
	bcs[1].Broadcast(make([]byte, l))
	w.RunToQuiescence()
	bound := bc.Deadline(cfg.Ts, cfg.Delta)
	return Measure{
		HonestMsgs:  w.Metrics().HonestMessages(),
		HonestBytes: w.Metrics().HonestBytes(),
		LastOutput:  last,
		Bound:       bound,
		Events:      w.Sched.Processed(),
		OK:          good == n && last == bound,
	}
}

// E5BA measures ΠBA (Theorem 3.6) with unanimous inputs, sync network.
func E5BA(n int, seed uint64) Measure {
	cfg := cfgFor(n)
	w := proto.NewWorld(proto.WorldOpts{Cfg: cfg, Network: proto.Sync, Seed: seed})
	coin := aba.DefaultCoin(seed)
	var last sim.Time
	agreed := 0
	bas := make([]*ba.BA, n+1)
	for i := 1; i <= n; i++ {
		bas[i] = ba.New(w.Runtimes[i], "ba", cfg.Ts, cfg.Delta, 0, coin, func(v uint8) {
			if v == 1 {
				agreed++
			}
			if w.Sched.Now() > last {
				last = w.Sched.Now()
			}
		})
	}
	for i := 1; i <= n; i++ {
		bas[i].Start(1)
	}
	w.RunToQuiescence()
	bound := ba.Deadline(cfg.Ts, cfg.Delta, cfg.CoinRounds)
	return Measure{
		HonestMsgs:  w.Metrics().HonestMessages(),
		HonestBytes: w.Metrics().HonestBytes(),
		LastOutput:  last,
		Bound:       bound,
		Events:      w.Sched.Processed(),
		OK:          agreed == n && last <= bound,
	}
}

// E6WPS measures ΠWPS (Theorem 4.8) with an honest dealer and L
// polynomials, sync network.
func E6WPS(cfg proto.Config, l int, seed uint64) Measure {
	w := proto.NewWorld(proto.WorldOpts{Cfg: cfg, Network: proto.Sync, Seed: seed})
	coin := aba.DefaultCoin(seed)
	r := rand.New(rand.NewPCG(seed, 1))
	qs := make([]poly.Poly, l)
	for i := range qs {
		qs[i] = poly.Random(r, cfg.Ts, field.Random(r))
	}
	var last sim.Time
	done := 0
	insts := make([]*wps.WPS, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		insts[i] = wps.New(w.Runtimes[i], "wps", 1, l, cfg, coin, 0, func(s []field.Element) {
			done++
			if w.Sched.Now() > last {
				last = w.Sched.Now()
			}
		})
	}
	insts[1].Start(qs)
	w.RunToQuiescence()
	bound := wps.Deadline(cfg)
	return Measure{
		HonestMsgs:  w.Metrics().HonestMessages(),
		HonestBytes: w.Metrics().HonestBytes(),
		LastOutput:  last,
		Bound:       bound,
		Events:      w.Sched.Processed(),
		OK:          done == cfg.N && last <= bound,
	}
}

// E7VSS measures ΠVSS (Theorem 4.16), honest dealer, sync network.
func E7VSS(cfg proto.Config, l int, seed uint64) Measure {
	w := proto.NewWorld(proto.WorldOpts{Cfg: cfg, Network: proto.Sync, Seed: seed})
	coin := aba.DefaultCoin(seed)
	r := rand.New(rand.NewPCG(seed, 2))
	qs := make([]poly.Poly, l)
	for i := range qs {
		qs[i] = poly.Random(r, cfg.Ts, field.Random(r))
	}
	var last sim.Time
	done := 0
	insts := make([]*vss.VSS, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		insts[i] = vss.New(w.Runtimes[i], "vss", 1, l, cfg, coin, 0, func(s []field.Element) {
			done++
			if w.Sched.Now() > last {
				last = w.Sched.Now()
			}
		})
	}
	insts[1].Start(qs)
	w.RunToQuiescence()
	bound := vss.Deadline(cfg)
	return Measure{
		HonestMsgs:  w.Metrics().HonestMessages(),
		HonestBytes: w.Metrics().HonestBytes(),
		LastOutput:  last,
		Bound:       bound,
		Events:      w.Sched.Processed(),
		OK:          done == cfg.N && last <= bound,
	}
}

// E8ACS measures ΠACS (Lemma 5.1), all dealers honest, sync network.
func E8ACS(cfg proto.Config, l int, seed uint64) Measure {
	w := proto.NewWorld(proto.WorldOpts{Cfg: cfg, Network: proto.Sync, Seed: seed})
	coin := aba.DefaultCoin(seed)
	r := rand.New(rand.NewPCG(seed, 3))
	var last sim.Time
	done := 0
	insts := make([]*acs.ACS, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		insts[i] = acs.New(w.Runtimes[i], "acs", l, cfg, coin, 0, func(cs []int, _ map[int][]field.Element) {
			done++
			if w.Sched.Now() > last {
				last = w.Sched.Now()
			}
		})
	}
	for i := 1; i <= cfg.N; i++ {
		qs := make([]poly.Poly, l)
		for k := range qs {
			qs[k] = poly.Random(r, cfg.Ts, field.Random(r))
		}
		insts[i].Start(qs)
	}
	w.RunToQuiescence()
	bound := acs.Deadline(cfg)
	return Measure{
		HonestMsgs:  w.Metrics().HonestMessages(),
		HonestBytes: w.Metrics().HonestBytes(),
		LastOutput:  last,
		Bound:       bound,
		Events:      w.Sched.Processed(),
		OK:          done == cfg.N && last <= bound,
	}
}

// E9Beaver measures a single ΠBeaver multiplication (Lemma 6.1).
func E9Beaver(cfg proto.Config, seed uint64) Measure {
	w := proto.NewWorld(proto.WorldOpts{Cfg: cfg, Network: proto.Sync, Seed: seed})
	r := rand.New(rand.NewPCG(seed, 4))
	x, y, a := field.Random(r), field.Random(r), field.Random(r)
	bb := field.Random(r)
	shares := func(v field.Element) []field.Element {
		return poly.Random(r, cfg.Ts, v).Shares(cfg.N)
	}
	xs, ys, as, bs, cs := shares(x), shares(y), shares(a), shares(bb), shares(a.Mul(bb))
	var last sim.Time
	done := 0
	insts := make([]*triples.Beaver, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		insts[i] = triples.NewBeaver(w.Runtimes[i], "bv", cfg, func(z field.Element) {
			done++
			if w.Sched.Now() > last {
				last = w.Sched.Now()
			}
		})
	}
	for i := 1; i <= cfg.N; i++ {
		insts[i].Start(xs[i-1], ys[i-1], as[i-1], bs[i-1], cs[i-1])
	}
	w.RunToQuiescence()
	return Measure{
		HonestMsgs:  w.Metrics().HonestMessages(),
		HonestBytes: w.Metrics().HonestBytes(),
		LastOutput:  last,
		Bound:       cfg.Delta,
		Events:      w.Sched.Processed(),
		OK:          done == cfg.N && last <= cfg.Delta,
	}
}

// E10Preprocessing measures ΠPreProcessing (Theorem 6.5) for cM
// triples, sync network.
func E10Preprocessing(cfg proto.Config, cM int, seed uint64) Measure {
	w := proto.NewWorld(proto.WorldOpts{Cfg: cfg, Network: proto.Sync, Seed: seed})
	coin := aba.DefaultCoin(seed)
	var last sim.Time
	done := 0
	insts := make([]*triples.Preprocessing, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		insts[i] = triples.NewPreprocessing(w.Runtimes[i], "pp", cM, cfg, coin, 0, func(ts []triples.Triple) {
			done++
			if w.Sched.Now() > last {
				last = w.Sched.Now()
			}
		})
	}
	for i := 1; i <= cfg.N; i++ {
		insts[i].Start()
	}
	w.RunToQuiescence()
	bound := triples.PreprocessingDeadline(cfg)
	return Measure{
		HonestMsgs:  w.Metrics().HonestMessages(),
		HonestBytes: w.Metrics().HonestBytes(),
		LastOutput:  last,
		Bound:       bound,
		Events:      w.Sched.Processed(),
		OK:          done == cfg.N && last <= bound,
	}
}

// E11CirEval measures the full MPC engine on a circuit, via the public
// API, in the given network.
func E11CirEval(cfg proto.Config, circ *circuit.Circuit, network mpc.Network, seed uint64) Measure {
	inputs := make([]field.Element, cfg.N)
	for i := range inputs {
		inputs[i] = field.New(uint64(i + 1))
	}
	res, err := mpc.Run(mpc.Config{
		N: cfg.N, Ts: cfg.Ts, Ta: cfg.Ta,
		Network: network, Delta: int64(cfg.Delta), Seed: seed,
	}, circ, inputs, nil)
	m := Measure{}
	if err != nil {
		return m
	}
	want, err := mpc.ExpectedOutputs(circ, inputs, res.CS)
	if err != nil {
		return m
	}
	ok := true
	for i := range want {
		if res.Outputs[i] != want[i] {
			ok = false
		}
	}
	var last int64
	for _, t := range res.TerminatedAt {
		if t > last {
			last = t
		}
	}
	return Measure{
		HonestMsgs:  res.HonestMessages,
		HonestBytes: res.HonestBytes,
		LastOutput:  sim.Time(last),
		Bound:       sim.Time(res.Deadline),
		Events:      res.Events,
		OK:          ok && (network != mpc.Sync || last <= res.Deadline),
	}
}

// E13Online measures the *online phase* in isolation — shared circuit
// evaluation, output reconstruction and Bracha termination — from a
// trusted-dealer setup: input sharings and multiplication triples are
// dealt locally instead of running ΠACS/ΠPreProcessing, so the
// honest-origin traffic is exactly the evaluation-phase traffic the
// layer-batching work targets. perGate selects the retained per-gate
// reference evaluator; the default is the layered batched one. OK
// requires every party to terminate with the clear-circuit outputs.
func E13Online(cfg proto.Config, circ *circuit.Circuit, perGate bool, seed uint64) Measure {
	w := proto.NewWorld(proto.WorldOpts{Cfg: cfg, Network: proto.Sync, Seed: seed})
	r := rand.New(rand.NewPCG(seed, 13))

	inputs := make([]field.Element, cfg.N)
	cs := make([]int, cfg.N)
	inShares := make([]map[int][]field.Element, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		inShares[i] = make(map[int][]field.Element, cfg.N)
		cs[i-1] = i
	}
	for j := 1; j <= cfg.N; j++ {
		inputs[j-1] = field.New(uint64(j))
		sh := poly.Random(r, cfg.Ts, inputs[j-1]).Shares(cfg.N)
		for i := 1; i <= cfg.N; i++ {
			inShares[i][j] = []field.Element{sh[i-1]}
		}
	}
	trips := make([][]triples.Triple, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		trips[i] = make([]triples.Triple, circ.MulCount)
	}
	for k := 0; k < circ.MulCount; k++ {
		a, b := field.Random(r), field.Random(r)
		sa := poly.Random(r, cfg.Ts, a).Shares(cfg.N)
		sb := poly.Random(r, cfg.Ts, b).Shares(cfg.N)
		sc := poly.Random(r, cfg.Ts, a.Mul(b)).Shares(cfg.N)
		for i := 1; i <= cfg.N; i++ {
			trips[i][k] = triples.Triple{X: sa[i-1], Y: sb[i-1], Z: sc[i-1]}
		}
	}

	mode := core.EvalLayered
	if perGate {
		mode = core.EvalPerGate
	}
	var last sim.Time
	outs := make([][]field.Element, cfg.N+1)
	engines := make([]*core.CirEval, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		i := i
		engines[i] = core.NewOnline(w.Runtimes[i], "mpc", circ, cfg, 0, mode, func(out []field.Element) {
			outs[i] = out
			if w.Sched.Now() > last {
				last = w.Sched.Now()
			}
		})
	}
	for i := 1; i <= cfg.N; i++ {
		engines[i].StartOnline(inShares[i], cs, trips[i])
	}
	w.RunToQuiescence()

	want, err := circ.Eval(inputs)
	ok := err == nil
	for i := 1; i <= cfg.N && ok; i++ {
		if outs[i] == nil || len(outs[i]) != len(want) {
			ok = false
			break
		}
		for k := range want {
			if outs[i][k] != want[k] {
				ok = false
			}
		}
	}
	return Measure{
		HonestMsgs:  w.Metrics().HonestMessages(),
		HonestBytes: w.Metrics().HonestBytes(),
		LastOutput:  last,
		Bound:       sim.Time(circ.MulDepth+3) * cfg.Delta,
		Events:      w.Sched.Processed(),
		OK:          ok,
	}
}

// MulDeepCircuit is the tracked depth-heavy workload: an 8×8
// multiplication grid (cM = 64, DM = 8) on the flagship n = 8 config —
// every multiplicative layer holds 8 gates, the shape where per-layer
// batching collapses 2·cM reconstruction instances to 2·DM.
func MulDeepCircuit() *circuit.Circuit { return circuit.MulGrid(8, 8, 8) }

// MatrixMode identifies a protocol variant in the E12 comparison.
type MatrixMode string

// E12 matrix modes.
const (
	ModeBoBW      MatrixMode = "bobw"
	ModeSyncOnly  MatrixMode = "sync-only"
	ModeAsyncOnly MatrixMode = "async-envelope"
)

// E12Matrix runs one cell of the headline comparison: mode × network ×
// fault count (garbling corruptions; under async one link-starved
// schedule). It reports whether the run both terminated and produced
// the correct output — or whether the fault budget is structurally
// unsupportable for the mode.
func E12Matrix(mode MatrixMode, network mpc.Network, faults int, seed uint64) (ok, tolerated bool) {
	cfg := mpc.Config{N: 8, Ts: 2, Ta: 1, Network: network, Seed: seed, EventLimit: 60_000_000}
	switch mode {
	case ModeSyncOnly:
		cfg.SyncOnly = true
	case ModeAsyncOnly:
		cfg.Ts, cfg.Ta = 1, 1 // the t < n/4 AMPC envelope
	}
	budget := cfg.Ts
	if network == mpc.Async {
		budget = cfg.Ta
	}
	if faults > budget {
		return false, false
	}
	adv := &mpc.Adversary{}
	for f := 0; f < faults; f++ {
		adv.Garble = append(adv.Garble, 2+3*f)
	}
	if network == mpc.Async {
		adv.StarveFrom = []int{8}
		adv.StarveUntil = 6000
	}
	inputs := make([]field.Element, 8)
	for i := range inputs {
		inputs[i] = field.New(uint64(i + 1))
	}
	circ := circuit.Sum(8)
	res, err := mpc.Run(cfg, circ, inputs, adv)
	if err != nil {
		return false, true
	}
	want, err := mpc.ExpectedOutputs(circ, inputs, res.CS)
	if err != nil {
		return false, true
	}
	return res.Outputs[0] == want[0] && res.AllHonestTerminated(adv), true
}

// FormatRow renders a measure for the tables.
func FormatRow(label string, m Measure) string {
	status := "ok"
	if !m.OK {
		status = "VIOLATED"
	}
	return fmt.Sprintf("%-28s %10d msgs %14d bytes   t=%6d (bound %6d)  %s",
		label, m.HonestMsgs, m.HonestBytes, m.LastOutput, m.Bound, status)
}
