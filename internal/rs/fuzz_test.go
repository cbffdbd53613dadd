package rs

import (
	"math/rand/v2"
	"testing"

	"repro/field"
	"repro/poly"
)

// FuzzOECMatchesDecode drives the incremental OEC decoder and the
// naive Berlekamp–Welch reference over a fuzzer-chosen error pattern
// and point arrival order, and checks the paper's OEC contract: with
// m = d + t + 1 + r points received and at most min(r, t) of them
// corrupted, the decoder recovers exactly the committed polynomial;
// it must never output a wrong polynomial no matter the pattern.
//
// The fuzz inputs are raw knobs, reduced into a valid configuration:
// seed drives all randomness, shape picks (d, t), errBits selects
// which points are corrupted, extra is the number of points beyond
// the d + t + 1 minimum.
func FuzzOECMatchesDecode(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(0), uint8(0))
	f.Add(uint64(2), uint8(5), uint16(1), uint8(1))
	f.Add(uint64(3), uint8(9), uint16(0b101), uint8(3))
	f.Add(uint64(42), uint8(14), uint16(0xffff), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, errBits uint16, extra uint8) {
		r := rand.New(rand.NewPCG(seed, 0xfa22))
		d := int(shape % 4)      // degree 0..3
		tt := int(shape/4%4) + 1 // corruption bound 1..4
		m := d + tt + 1 + int(extra%uint8(tt+2))

		committed := poly.Random(r, d, field.Random(r))
		pts := makePoints(committed, m)

		// Corrupt at most min(m - (d+t+1), t) points, chosen by errBits.
		budget := min(m-(d+tt+1), tt)
		corrupted := 0
		for i := 0; i < m && corrupted < budget; i++ {
			if errBits&(1<<(i%16)) != 0 {
				corrupt(r, pts, i)
				corrupted++
			}
		}

		// Feed the OEC in a seed-chosen arrival order, polling as
		// points trickle in — the receiver's actual usage pattern.
		o := NewOEC(d, tt)
		var got poly.Poly
		ok := false
		for _, i := range r.Perm(m) {
			o.Add(pts[i].X, pts[i].Y)
			if q, done := o.Poll(); done {
				got, ok = q, true
				break
			}
		}

		// Contract: within the admissible error budget the committed
		// polynomial is always recovered, and never a wrong one.
		if !ok {
			t.Fatalf("OEC failed: d=%d t=%d m=%d corrupted=%d", d, tt, m, corrupted)
		}
		if !got.Equal(committed) {
			t.Fatalf("OEC decoded a wrong polynomial: d=%d t=%d m=%d corrupted=%d", d, tt, m, corrupted)
		}

		// Differential: the naive reference decoder at the same maximal
		// budget agrees on the full point set.
		if e := min(tt, (m-d-1)/2); e >= corrupted {
			ref, err := Decode(pts, d, e)
			if err != nil {
				t.Fatalf("reference Decode(d=%d, e=%d) failed on %d points with %d errors: %v",
					d, e, m, corrupted, err)
			}
			if !ref.Equal(got) {
				t.Fatalf("OEC and Decode disagree: d=%d t=%d m=%d corrupted=%d", d, tt, m, corrupted)
			}
		}
	})
}
