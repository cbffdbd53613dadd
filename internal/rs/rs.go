// Package rs implements Reed–Solomon decoding over GF(2^61 - 1) via the
// Berlekamp–Welch algorithm, and the Online Error-Correction (OEC)
// procedure of Ben-Or, Canetti and Goldreich used by the paper
// (Section 2.1, Appendix A).
//
// OEC(d, t, P') reconstructs a d-degree polynomial q(·) for a receiver
// that obtains points q(α_i) from the parties in P', of which at most t
// are corrupt. The receiver repeatedly attempts Reed–Solomon decoding as
// points trickle in; once some candidate polynomial of degree d agrees
// with at least d + t + 1 received points, at least d + 1 of those points
// come from honest parties, so the candidate equals q(·).
package rs

import (
	"errors"
	"fmt"
	"slices"

	"repro/field"
	"repro/poly"
)

// ErrDecodeFailed indicates that no degree-d polynomial explains the
// received points within the allowed error budget.
var ErrDecodeFailed = errors.New("rs: decoding failed")

// divideOut recovers q = Q/E from a Berlekamp–Welch solution vector,
// reporting false when the division is inexact or the degree too high.
func divideOut(sol []field.Element, d, e int) (poly.Poly, bool) {
	nq := d + e + 1
	qBig := poly.NewPoly(sol[:nq]...)
	eCoeffs := make([]field.Element, e+1)
	copy(eCoeffs, sol[nq:])
	eCoeffs[e] = field.One // monic
	ePoly := poly.NewPoly(eCoeffs...)
	q, exact := qBig.Div(ePoly)
	if !exact || q.Degree() > d {
		return poly.Poly{}, false
	}
	return q, true
}

// countAgreements returns the number of points lying on q.
func countAgreements(q poly.Poly, points []poly.Point) int {
	c := 0
	for _, p := range points {
		if q.Eval(p.X) == p.Y {
			c++
		}
	}
	return c
}

// solve performs Gaussian elimination on the m×(cols+1) augmented matrix
// and returns one solution (free variables set to zero). It reports false
// if the system is inconsistent.
func solve(mat [][]field.Element, cols int) ([]field.Element, bool) {
	m := len(mat)
	pivotRow := 0
	pivotCols := make([]int, 0, cols)
	for col := 0; col < cols && pivotRow < m; col++ {
		sel := -1
		for r := pivotRow; r < m; r++ {
			if !mat[r][col].IsZero() {
				sel = r
				break
			}
		}
		if sel < 0 {
			continue
		}
		mat[pivotRow], mat[sel] = mat[sel], mat[pivotRow]
		inv := mat[pivotRow][col].MustInv()
		for k := col; k <= cols; k++ {
			mat[pivotRow][k] = mat[pivotRow][k].Mul(inv)
		}
		for r := 0; r < m; r++ {
			if r == pivotRow || mat[r][col].IsZero() {
				continue
			}
			f := mat[r][col]
			for k := col; k <= cols; k++ {
				mat[r][k] = mat[r][k].Sub(f.Mul(mat[pivotRow][k]))
			}
		}
		pivotCols = append(pivotCols, col)
		pivotRow++
	}
	// Inconsistency check: zero row with non-zero RHS.
	for r := pivotRow; r < m; r++ {
		if !mat[r][cols].IsZero() {
			return nil, false
		}
	}
	sol := make([]field.Element, cols)
	for i, col := range pivotCols {
		sol[col] = mat[i][cols]
	}
	return sol, true
}

// OEC is an incremental online error-correcting decoder for a single
// d-degree polynomial with at most t corrupted contributors.
//
// Points are added as they arrive (duplicates from the same X are
// ignored); Poll attempts reconstruction and returns the polynomial once
// some candidate polynomial of degree d agrees with at least d + t + 1
// received points.
//
// The decoder is incremental: the interpolant through the first d+1
// points is cached (built on a poly.Kernel) and each later point updates
// a running agreement count, so the common error-free case costs one
// O(d) evaluation per point and O(1) per Poll — no Gaussian elimination.
// When the cached candidate falls short, a single Berlekamp–Welch solve
// at the maximal admissible error budget replaces the former
// r = 0..rMax budget sweep (any admissible budget recovers the same
// committed polynomial once d + t + 1 agreements exist), reusing the
// elimination matrix across attempts and memoising failed attempts per
// point count.
type OEC struct {
	d, t   int
	points []poly.Point
	seen   map[field.Element]bool
	done   bool
	result poly.Poly

	// cache optionally supplies the interpolation kernel (shared per
	// run); nil means the decoder builds its own.
	cache *poly.KernelCache
	// cand is the cached interpolant through the first d+1 points;
	// agree counts received points lying on it.
	cand  poly.Poly
	agree int
	// lastFailed memoises the point count of the last failed full
	// solve: no new point, no new attempt.
	lastFailed int
	// scratch holds the reusable Berlekamp–Welch elimination matrix.
	scratch bwScratch
}

// NewOEC returns an OEC decoder for a d-degree polynomial where at most
// t of the contributing parties are corrupt.
func NewOEC(d, t int) *OEC {
	if d < 0 || t < 0 {
		panic(fmt.Sprintf("rs: invalid OEC parameters d=%d t=%d", d, t))
	}
	return &OEC{d: d, t: t, seen: make(map[field.Element]bool), lastFailed: -1}
}

// NewOECCached is NewOEC with a shared kernel cache: parallel decoders
// fed by the same provider set (e.g. the L per-polynomial decoders of
// one WPS instance) see identical point sequences and share one kernel.
func NewOECCached(d, t int, cache *poly.KernelCache) *OEC {
	o := NewOEC(d, t)
	o.cache = cache
	return o
}

// Add records the point (x, y). Later duplicates for the same x are
// ignored (the first value received wins, matching a network receiver
// that processes one message per sender).
func (o *OEC) Add(x, y field.Element) {
	if o.seen[x] {
		return
	}
	o.seen[x] = true
	o.points = append(o.points, poly.Point{X: x, Y: y})
	if o.done {
		return
	}
	switch m := len(o.points); {
	case m < o.d+1:
	case m == o.d+1:
		o.buildCandidate()
	default:
		if o.cand.Eval(x) == y {
			o.agree++
		}
	}
}

// buildCandidate interpolates the first d+1 points into the cached
// candidate; those points agree with it by construction.
func (o *OEC) buildCandidate() {
	xs := make([]field.Element, o.d+1)
	ys := make([]field.Element, o.d+1)
	for i, p := range o.points[:o.d+1] {
		xs[i], ys[i] = p.X, p.Y
	}
	var (
		kern *poly.Kernel
		err  error
	)
	if o.cache != nil {
		kern, err = o.cache.Get(xs)
	} else {
		kern, err = poly.NewKernel(xs)
	}
	if err != nil {
		// Distinct X's are guaranteed by the seen-set.
		panic(fmt.Sprintf("rs: OEC kernel: %v", err))
	}
	o.cand = kern.Interpolate(ys)
	o.agree = o.d + 1
}

// Count returns the number of distinct points received.
func (o *OEC) Count() int { return len(o.points) }

// Poll attempts reconstruction. It returns (q, true) once a degree-d
// polynomial agreeing with at least d + t + 1 received points exists.
// Subsequent calls keep returning the same result.
func (o *OEC) Poll() (poly.Poly, bool) {
	if o.done {
		return o.result, true
	}
	need := o.d + o.t + 1
	m := len(o.points)
	if m < need {
		return poly.Poly{}, false
	}
	// Error-free fast path: the cached interpolant already explains
	// d + t + 1 received points, at least d + 1 of them honest, so it
	// is the committed polynomial.
	if o.agree >= need {
		o.done = true
		o.result = o.cand
		return o.cand, true
	}
	if m == o.lastFailed {
		return poly.Poly{}, false
	}
	// With m = d + t + 1 + r points received and at most min(r, t) of
	// them erroneous, Berlekamp–Welch at the single maximal budget
	// rMax = min(r, t) recovers the committed polynomial: rMax ≤ t
	// gives m ≥ d + 2·rMax + 1, so every solution of the budget-rMax
	// system divides out to it, making the former sweep over the
	// smaller budgets redundant. (A budget-0 attempt is subsumed by the
	// fast path above: it succeeds only when all m points agree.)
	rMax := min(m-need, o.t)
	if rMax > 0 {
		q, ok := o.scratch.decode(o.points, o.d, rMax)
		if ok && countAgreements(q, o.points) >= need {
			o.done = true
			o.result = q
			return q, true
		}
	}
	o.lastFailed = m
	return poly.Poly{}, false
}

// bwScratch reuses the Berlekamp–Welch elimination matrix across decode
// attempts.
type bwScratch struct {
	rows [][]field.Element
	flat []field.Element
}

// decode runs one Berlekamp–Welch solve at error budget e ≥ 1 over the
// scratch matrix: the allocation-lean equivalent of Decode's system
// build, sharing its solve and division steps.
func (s *bwScratch) decode(points []poly.Point, d, e int) (poly.Poly, bool) {
	m := len(points)
	nq := d + e + 1
	ne := e
	cols := nq + ne
	stride := cols + 1
	if cap(s.flat) < m*stride {
		s.flat = make([]field.Element, m*stride)
		s.rows = make([][]field.Element, 0, m)
	}
	s.flat = s.flat[:m*stride]
	s.rows = s.rows[:0]
	for i, p := range points {
		row := s.flat[i*stride : (i+1)*stride : (i+1)*stride]
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
		s.rows = append(s.rows, row)
	}
	sol, ok := solve(s.rows, cols)
	if !ok {
		return poly.Poly{}, false
	}
	return divideOut(sol, d, e)
}

// ReconstructSecret is a convenience wrapper: given shares (α_i, s_i)
// indexed by 1-based party index, with at most t corrupt, it decodes the
// d-degree sharing polynomial and returns its constant term.
//
// Shares are fed to the decoder in ascending party order: map iteration
// order is randomized per run, and a random feed order would let the
// decoded representation — and, beyond the corruption budget, even
// success — vary between identically-seeded runs.
func ReconstructSecret(d, t int, shares map[int]field.Element) (field.Element, error) {
	idx := make([]int, 0, len(shares))
	for i := range shares {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	o := NewOEC(d, t)
	for _, i := range idx {
		o.Add(poly.Alpha(i), shares[i])
	}
	q, ok := o.Poll()
	if !ok {
		return 0, fmt.Errorf("rs: reconstruct secret: %w", ErrDecodeFailed)
	}
	return q.Eval(field.Zero), nil
}
