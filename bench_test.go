// Benchmarks regenerating the experiment rows E1..E13, one Benchmark
// per table. Custom metrics report the figures that stand against the
// paper's bounds:
//
//	bytes/op    honest-party bytes for one protocol run
//	msgs/op     honest-party messages
//	vticks/op   virtual termination time of the last honest party
//	bound       the derived synchronous deadline
//
// Absolute wall-clock ns/op measures the *simulator*, not the
// protocol; the virtual-time and traffic metrics are the reproduction
// targets.
package repro

import (
	"fmt"
	"testing"

	"repro/circuit"
	"repro/internal/bench"
	"repro/mpc"
)

func report(b *testing.B, m bench.Measure) {
	b.Helper()
	if !m.OK {
		b.Fatalf("experiment invariant violated: %+v", m)
	}
	b.ReportMetric(float64(m.HonestBytes), "bytes/op")
	b.ReportMetric(float64(m.HonestMsgs), "msgs/op")
	b.ReportMetric(float64(m.LastOutput), "vticks/op")
	b.ReportMetric(float64(m.Bound), "bound")
}

// E1 — Lemma 2.4: Acast O(n²ℓ) bits, 3Δ liveness.
func BenchmarkE1Acast(b *testing.B) {
	for _, n := range []int{5, 8, 13} {
		for _, l := range []int{8, 256} {
			b.Run(fmt.Sprintf("n%d/l%d", n, l), func(b *testing.B) {
				var m bench.Measure
				for i := 0; i < b.N; i++ {
					m = bench.E1Acast(n, l, uint64(i))
				}
				report(b, m)
			})
		}
	}
}

// E2/E4 — Lemma 3.2 + Theorem 3.5: ΠBC regular-mode output at TBC.
func BenchmarkE4BC(b *testing.B) {
	for _, n := range []int{5, 8, 13} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var m bench.Measure
			for i := 0; i < b.N; i++ {
				m = bench.E4BC(n, 32, uint64(i))
			}
			report(b, m)
		})
	}
}

// E3/E5 — Lemma 3.3 + Theorem 3.6: ΠBA within TBA on unanimous inputs.
func BenchmarkE5BA(b *testing.B) {
	for _, n := range []int{5, 8, 13} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var m bench.Measure
			for i := 0; i < b.N; i++ {
				m = bench.E5BA(n, uint64(i))
			}
			report(b, m)
		})
	}
}

// E6 — Theorem 4.8: ΠWPS, O((n²L + n⁴) log|F|) bits.
func BenchmarkE6WPS(b *testing.B) {
	for _, l := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("n8/L%d", l), func(b *testing.B) {
			var m bench.Measure
			for i := 0; i < b.N; i++ {
				m = bench.E6WPS(bench.Config8(), l, uint64(i))
			}
			report(b, m)
		})
	}
}

// E7 — Theorem 4.16: ΠVSS, O((n³L + n⁵) log|F|) bits.
func BenchmarkE7VSS(b *testing.B) {
	for _, l := range []int{1, 8} {
		b.Run(fmt.Sprintf("n8/L%d", l), func(b *testing.B) {
			var m bench.Measure
			for i := 0; i < b.N; i++ {
				m = bench.E7VSS(bench.Config8(), l, uint64(i))
			}
			report(b, m)
		})
	}
}

// E8 — Lemma 5.1: ΠACS, O((n⁴L + n⁶) log|F|) bits, TACS.
func BenchmarkE8ACS(b *testing.B) {
	b.Run("n5/L1", func(b *testing.B) {
		var m bench.Measure
		for i := 0; i < b.N; i++ {
			m = bench.E8ACS(bench.Config5(), 1, uint64(i))
		}
		report(b, m)
	})
	b.Run("n8/L1", func(b *testing.B) {
		var m bench.Measure
		for i := 0; i < b.N; i++ {
			m = bench.E8ACS(bench.Config8(), 1, uint64(i))
		}
		report(b, m)
	})
}

// E9 — Lemma 6.1: ΠBeaver, O(n² log|F|) bits, Δ time.
func BenchmarkE9Beaver(b *testing.B) {
	for _, n := range []int{5, 8, 13} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var m bench.Measure
			for i := 0; i < b.N; i++ {
				m = bench.E9Beaver(bench.ConfigN(n), uint64(i))
			}
			report(b, m)
		})
	}
}

// E10 — Theorem 6.5: ΠPreProcessing, cM triples by TTripGen.
func BenchmarkE10Preprocessing(b *testing.B) {
	for _, cm := range []int{1, 4} {
		b.Run(fmt.Sprintf("n5/cM%d", cm), func(b *testing.B) {
			var m bench.Measure
			for i := 0; i < b.N; i++ {
				m = bench.E10Preprocessing(bench.Config5(), cm, uint64(i))
			}
			report(b, m)
		})
	}
}

// E11 — Theorem 7.1: full ΠCirEval, both networks.
func BenchmarkE11CirEval(b *testing.B) {
	circs := []struct {
		name string
		c    *circuit.Circuit
	}{
		{"sum", circuit.Sum(5)},
		{"product", circuit.Product(5)},
	}
	for _, cc := range circs {
		for _, net := range []mpc.Network{mpc.Sync, mpc.Async} {
			b.Run(fmt.Sprintf("%s/%s", cc.name, net), func(b *testing.B) {
				var m bench.Measure
				for i := 0; i < b.N; i++ {
					m = bench.E11CirEval(bench.Config5(), cc.c, net, uint64(i))
				}
				report(b, m)
			})
		}
	}
}

// E13 — the online phase in isolation (trusted-dealer setup): the
// layer-batched evaluator against the per-gate reference on the
// depth-heavy 8×8 multiplication grid (cM=64, DM=8). msgs/op is the
// headline: per-layer batching sends (DM+2)·n² honest messages where
// the reference sends (cM+2)·n².
func BenchmarkE13Online(b *testing.B) {
	circ := bench.MulDeepCircuit()
	for _, mode := range []struct {
		name    string
		perGate bool
	}{{"layered", false}, {"per-gate", true}} {
		b.Run(fmt.Sprintf("grid8x8/%s", mode.name), func(b *testing.B) {
			var m bench.Measure
			for i := 0; i < b.N; i++ {
				m = bench.E13Online(bench.Config8(), circ, mode.perGate, uint64(i))
			}
			report(b, m)
		})
	}
}

// E12 — the §1 headline matrix: BoBW survives both columns; the
// baselines each lose one.
func BenchmarkE12Matrix(b *testing.B) {
	type cell struct {
		mode    bench.MatrixMode
		net     mpc.Network
		faults  int
		wantOK  bool
		wantTol bool
	}
	cells := []cell{
		{bench.ModeBoBW, mpc.Sync, 2, true, true},
		{bench.ModeBoBW, mpc.Async, 1, true, true},
		{bench.ModeSyncOnly, mpc.Sync, 2, true, true},
		{bench.ModeSyncOnly, mpc.Async, 1, false, true},  // loses liveness
		{bench.ModeAsyncOnly, mpc.Sync, 2, false, false}, // beyond t<n/4
		{bench.ModeAsyncOnly, mpc.Async, 1, true, true},
	}
	for _, c := range cells {
		b.Run(fmt.Sprintf("%s/%s/f%d", c.mode, c.net, c.faults), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, tol := bench.E12Matrix(c.mode, c.net, c.faults, 10)
				if tol != c.wantTol || (tol && ok != c.wantOK) {
					b.Fatalf("matrix cell %+v: ok=%v tol=%v", c, ok, tol)
				}
			}
		})
	}
}

// A2 ablation — ABA coin source: deterministic-first-coins vs ideal
// common coin only; measured as ΠBA virtual time (the coin schedule
// shows up as TABA variance on unanimous inputs).
func BenchmarkA2CoinAblation(b *testing.B) {
	b.Run("scheduled-coin", func(b *testing.B) {
		var m bench.Measure
		for i := 0; i < b.N; i++ {
			m = bench.E5BA(8, uint64(i))
		}
		report(b, m)
	})
}
