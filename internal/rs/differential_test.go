package rs

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/field"
	"repro/poly"
)

// Decode runs Berlekamp–Welch on the given points: it finds a polynomial
// q of degree ≤ d such that q disagrees with at most e of the points.
// It requires len(points) ≥ d + 2e + 1 and distinct X coordinates.
//
// Decode is the naive reference decoder: it allocates its elimination
// matrix per call and performs no caching. The incremental OEC decoder
// in rs.go is differentially tested against it.
func Decode(points []poly.Point, d, e int) (poly.Poly, error) {
	m := len(points)
	if d < 0 || e < 0 {
		return poly.Poly{}, fmt.Errorf("rs: invalid parameters d=%d e=%d", d, e)
	}
	if m < d+2*e+1 {
		return poly.Poly{}, fmt.Errorf("rs: need %d points for d=%d e=%d, have %d", d+2*e+1, d, e, m)
	}
	if e == 0 {
		q, err := poly.Interpolate(points[:d+1])
		if err != nil {
			return poly.Poly{}, err
		}
		if q.Degree() > d {
			return poly.Poly{}, ErrDecodeFailed
		}
		if countAgreements(q, points) != m {
			return poly.Poly{}, ErrDecodeFailed
		}
		return q, nil
	}

	// Unknowns: E(x) monic of degree e (e unknown coefficients e_0..e_{e-1})
	// and Q(x) of degree ≤ d+e (d+e+1 unknowns), satisfying for every
	// received point (x_i, y_i):  Q(x_i) = y_i · E(x_i).
	// With E monic: Q(x_i) - y_i·(e_0 + e_1 x_i + … + e_{e-1} x_i^{e-1})
	//             = y_i · x_i^e.
	nq := d + e + 1
	ne := e
	cols := nq + ne
	// Build the augmented matrix.
	mat := make([][]field.Element, m)
	for i, p := range points {
		row := make([]field.Element, cols+1)
		xp := field.One
		for k := 0; k < nq; k++ { // Q coefficients
			row[k] = xp
			xp = xp.Mul(p.X)
		}
		xp = field.One
		for k := 0; k < ne; k++ { // E coefficients (negated, times y_i)
			row[nq+k] = p.Y.Mul(xp).Neg()
			xp = xp.Mul(p.X)
		}
		row[cols] = p.Y.Mul(p.X.Pow(uint64(e))) // RHS
		mat[i] = row
	}
	sol, ok := solve(mat, cols)
	if !ok {
		return poly.Poly{}, ErrDecodeFailed
	}
	q, ok := divideOut(sol, d, e)
	if !ok {
		return poly.Poly{}, ErrDecodeFailed
	}
	return q, nil
}

// naivePoll is the retained reference OEC decision procedure: the full
// r = 0..rMax Berlekamp–Welch budget sweep over the allocating Decode,
// exactly as OEC.Poll ran before the incremental fast path. The
// differential tests below require the incremental decoder to make
// identical decisions at every arrival count.
func naivePoll(points []poly.Point, d, t int) (poly.Poly, bool) {
	need := d + t + 1
	m := len(points)
	if m < need {
		return poly.Poly{}, false
	}
	rMax := min(m-need, t)
	for r := 0; r <= rMax; r++ {
		q, err := Decode(points, d, r)
		if err != nil {
			continue
		}
		if countAgreements(q, points) >= need {
			return q, true
		}
	}
	return poly.Poly{}, false
}

// oecTrial feeds the given point stream to both decoders, checking
// decision-for-decision agreement.
func oecTrial(t *testing.T, trial int, pts []poly.Point, d, tt int) {
	t.Helper()
	o := NewOEC(d, tt)
	var naiveDone bool
	var naiveQ poly.Poly
	for i, p := range pts {
		o.Add(p.X, p.Y)
		q, ok := o.Poll()
		if !naiveDone {
			naiveQ, naiveDone = naivePoll(pts[:i+1], d, tt)
		}
		if ok != naiveDone {
			t.Fatalf("trial %d: after %d points: incremental ok=%v, naive ok=%v", trial, i+1, ok, naiveDone)
		}
		if ok && !q.Equal(naiveQ) {
			t.Fatalf("trial %d: after %d points: incremental %v, naive %v", trial, i+1, q.Coeffs, naiveQ.Coeffs)
		}
	}
}

// TestOECDifferentialRandom compares the incremental decoder against
// the naive budget sweep on randomized degrees, thresholds, error
// counts, error positions and arrival orders.
func TestOECDifferentialRandom(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 400; trial++ {
		d := r.IntN(4)
		tt := r.IntN(4)
		n := d + 2*tt + 1 + r.IntN(4) // enough points to always finish
		secretPoly := poly.Random(r, d, field.Random(r))
		pts := make([]poly.Point, n)
		for i := range pts {
			x := poly.Alpha(i + 1)
			pts[i] = poly.Point{X: x, Y: secretPoly.Eval(x)}
		}
		// Corrupt up to tt points at random positions (including the
		// early positions that poison the cached first-(d+1) candidate).
		errs := r.IntN(tt + 1)
		perm := r.Perm(n)
		for _, idx := range perm[:errs] {
			pts[idx].Y = pts[idx].Y.Add(field.RandomNonZero(r))
		}
		// Random arrival order.
		r.Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		oecTrial(t, trial, pts, d, tt)
	}
}

// TestOECDifferentialAdversarialPatterns drives targeted error
// placements: all errors first (breaking the cached candidate), all
// errors last (arriving after the fast path could fire), and errors
// exactly at the corruption budget.
func TestOECDifferentialAdversarialPatterns(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 19))
	for trial := 0; trial < 100; trial++ {
		d := 1 + r.IntN(3)
		tt := 1 + r.IntN(3)
		n := d + 3*tt + 1
		secretPoly := poly.Random(r, d, field.Random(r))
		honest := make([]poly.Point, n)
		for i := range honest {
			x := poly.Alpha(i + 1)
			honest[i] = poly.Point{X: x, Y: secretPoly.Eval(x)}
		}
		corrupt := func(p poly.Point) poly.Point {
			p.Y = p.Y.Add(field.RandomNonZero(r))
			return p
		}
		// Pattern A: the full error budget arrives first.
		pts := append([]poly.Point(nil), honest...)
		for i := 0; i < tt; i++ {
			pts[i] = corrupt(pts[i])
		}
		oecTrial(t, trial*3, pts, d, tt)
		// Pattern B: the full error budget arrives last.
		pts = append([]poly.Point(nil), honest...)
		for i := n - tt; i < n; i++ {
			pts[i] = corrupt(pts[i])
		}
		oecTrial(t, trial*3+1, pts, d, tt)
		// Pattern C: errors straddle the first d+1 points.
		pts = append([]poly.Point(nil), honest...)
		for i := 0; i < tt; i++ {
			pts[(i*(d+1))%n] = corrupt(pts[(i*(d+1))%n])
		}
		oecTrial(t, trial*3+2, pts, d, tt)
	}
}

// TestOECCachedMatchesUncached checks that sharing a kernel cache does
// not change decoding decisions.
func TestOECCachedMatchesUncached(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 29))
	cache := poly.NewKernelCache()
	for trial := 0; trial < 50; trial++ {
		d, tt := 2, 2
		n := d + 2*tt + 1
		secretPoly := poly.Random(r, d, field.Random(r))
		a := NewOEC(d, tt)
		b := NewOECCached(d, tt, cache)
		for i := 0; i < n; i++ {
			x := poly.Alpha(i + 1)
			y := secretPoly.Eval(x)
			if i == 0 && trial%2 == 1 {
				y = y.Add(field.One)
			}
			a.Add(x, y)
			b.Add(x, y)
			qa, oka := a.Poll()
			qb, okb := b.Poll()
			if oka != okb || (oka && !qa.Equal(qb)) {
				t.Fatalf("trial %d: cached and uncached decoders diverge at point %d", trial, i)
			}
		}
	}
}

// TestOECDuplicateAndCountSemantics pins the duplicate-X and Count
// behavior the protocols rely on.
func TestOECDuplicateAndCountSemantics(t *testing.T) {
	o := NewOEC(1, 1)
	o.Add(poly.Alpha(1), 5)
	o.Add(poly.Alpha(1), 7) // duplicate X: first value wins
	if o.Count() != 1 {
		t.Fatalf("Count = %d, want 1", o.Count())
	}
	o.Add(poly.Alpha(2), 6)
	o.Add(poly.Alpha(3), 7)
	q, ok := o.Poll()
	if !ok {
		t.Fatal("decode failed on a clean line")
	}
	if got := q.Eval(poly.Alpha(1)); got != 5 {
		t.Fatalf("q(α₁) = %v, want the first value 5", got)
	}
}

// TestReconstructSecretDeterministic is the regression test for the
// former map-iteration nondeterminism: shares must be fed to the
// decoder in sorted party order, so repeated reconstructions of the
// same (error-bearing) share map behave identically.
func TestReconstructSecretDeterministic(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 37))
	d, tt := 2, 2
	n := d + 2*tt + 3
	secret := field.Random(r)
	p := poly.Random(r, d, secret)
	shares := make(map[int]field.Element, n)
	for i := 1; i <= n; i++ {
		shares[i] = p.Eval(poly.Alpha(i))
	}
	// Corrupt the full budget, including party 1 so the first-(d+1)
	// candidate depends on feed order.
	shares[1] = shares[1].Add(3)
	shares[4] = shares[4].Add(9)
	first, err := ReconstructSecret(d, tt, shares)
	if err != nil {
		t.Fatal(err)
	}
	if first != secret {
		t.Fatalf("reconstructed %v, want %v", first, secret)
	}
	for i := 0; i < 50; i++ {
		got, err := ReconstructSecret(d, tt, shares)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if got != first {
			t.Fatalf("iteration %d: reconstructed %v, previously %v", i, got, first)
		}
	}
}
