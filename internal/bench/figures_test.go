package bench

import (
	"testing"

	"repro/circuit"
	"repro/internal/sim"
)

// TestRecordedFigures pins the tracked experiment rows to the protocol
// figures recorded on the seed repository (seed 1): honest bytes and
// messages and the virtual tick of the last honest output are a pure
// function of the seed, so performance work may change host time but
// never these numbers. A single moved byte is a behaviour change.
func TestRecordedFigures(t *testing.T) {
	cases := []struct {
		name   string
		run    func() Measure
		bytes  uint64
		msgs   uint64
		vticks sim.Time
		bound  sim.Time
	}{
		{"E7VSS/n8/L1", func() Measure { return E7VSS(Config8(), 1, 1) }, 3449872, 86368, 843, 910},
		{"E7VSS/n8/L8", func() Measure { return E7VSS(Config8(), 8, 1) }, 3491144, 86368, 843, 910},
		{"E8ACS/n5/L1", func() Measure { return E8ACS(Config5(), 1, 1) }, 2601620, 63545, 843, 1070},
		{"E8ACS/n8/L1", func() Measure { return E8ACS(Config8(), 1, 1) }, 32782400, 729304, 1056, 1310},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.run()
			if !m.OK {
				t.Fatalf("experiment invariant violated: %+v", m)
			}
			if m.HonestBytes != c.bytes || m.HonestMsgs != c.msgs || m.LastOutput != c.vticks || m.Bound != c.bound {
				t.Errorf("figures moved: bytes %d msgs %d vticks %d bound %d, recorded %d/%d/%d/%d",
					m.HonestBytes, m.HonestMsgs, m.LastOutput, m.Bound, c.bytes, c.msgs, c.vticks, c.bound)
			}
		})
	}
}

// TestLayerBatchingRows runs each online-phase workload through the
// per-gate reference evaluator and the layered one (seed 1): both must
// terminate with the clear-circuit outputs, and layering may only
// regroup messages, never add them.
func TestLayerBatchingRows(t *testing.T) {
	cases := []struct {
		name string
		circ *circuit.Circuit
	}{
		{"grid8x8", MulDeepCircuit()},
		{"product", circuit.Product(8)},
		{"matmul", circuit.MatMul2x2()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			per := E13Online(Config8(), c.circ, true, 1)
			lay := E13Online(Config8(), c.circ, false, 1)
			if !per.OK || !lay.OK {
				t.Fatalf("outputs diverged: per-gate ok=%v, layered ok=%v", per.OK, lay.OK)
			}
			if lay.HonestMsgs > per.HonestMsgs {
				t.Errorf("layered sends more messages (%d) than per-gate (%d)", lay.HonestMsgs, per.HonestMsgs)
			}
		})
	}
}
