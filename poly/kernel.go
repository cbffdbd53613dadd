package poly

import (
	"fmt"

	"repro/field"
)

// Kernel is the precomputed Lagrange machinery for a fixed set of
// distinct evaluation points xs: the inverted denominators
// 1/Π_{j≠i}(x_i - x_j) (the barycentric weights) and the coefficient
// form of every Lagrange basis numerator Π_{j≠i}(x - x_j).
//
// The paper fixes the evaluation grid for a whole run (α_i = i,
// β_j = n+j), so the same point sets recur across protocol instances;
// building a Kernel once turns every later interpolation into a plain
// multiply-accumulate:
//
//   - CoeffsAt / EvalAt run in O(n) field operations via prefix/suffix
//     products, with no inversions and (for the Into/EvalAt forms) no
//     allocations;
//   - Interpolate runs in O(n²) multiply-accumulates with no inversions
//     and no basis rebuilding.
//
// The naive free functions (Interpolate, LagrangeCoeffsAt,
// InterpolateAt) are retained as the reference implementations; the
// differential tests in kernel_test.go pit the two against each other.
type Kernel struct {
	xs      []field.Element
	weights []field.Element // barycentric weights 1/Π_{j≠i}(x_i - x_j)
	basis   [][]field.Element
	// pre/suf are reusable scratch for CoeffsAt's prefix/suffix
	// products; vals is the reusable result buffer of CoeffsAt.
	pre, suf, vals []field.Element
}

// NewKernel builds the kernel for the given evaluation points, which
// must be distinct. The slice is copied.
func NewKernel(xs []field.Element) (*Kernel, error) {
	m := len(xs)
	if m == 0 {
		return nil, fmt.Errorf("poly: kernel needs at least one point")
	}
	k := &Kernel{
		xs:   append([]field.Element(nil), xs...),
		pre:  make([]field.Element, m),
		suf:  make([]field.Element, m),
		vals: make([]field.Element, m),
	}
	denoms := make([]field.Element, m)
	for i := range xs {
		d := field.One
		for j := range xs {
			if j != i {
				if xs[i] == xs[j] {
					return nil, fmt.Errorf("poly: duplicate kernel point %v", xs[i])
				}
				d = d.Mul(xs[i].Sub(xs[j]))
			}
		}
		denoms[i] = d
	}
	weights, err := field.BatchInv(denoms)
	if err != nil {
		return nil, fmt.Errorf("poly: kernel weights: %w", err)
	}
	k.weights = weights

	// Master numerator N(x) = Π_j (x - x_j), then each basis numerator
	// N_i = N / (x - x_i) by synthetic division: O(m) per basis, O(m²)
	// total, versus the naive per-call incremental rebuild.
	master := make([]field.Element, m+1)
	master[0] = field.One
	deg := 0
	for _, xj := range xs {
		master[deg+1] = master[deg]
		for t := deg; t >= 1; t-- {
			master[t] = master[t-1].Sub(master[t].Mul(xj))
		}
		master[0] = master[0].Mul(xj).Neg()
		deg++
	}
	k.basis = make([][]field.Element, m)
	flat := make([]field.Element, m*m) // one backing array for all bases
	for i, xi := range xs {
		bi := flat[i*m : (i+1)*m]
		// Divide master (monic, degree m) by (x - x_i): synthetic
		// division accumulating from the top coefficient down.
		acc := master[m]
		for t := m - 1; t >= 0; t-- {
			bi[t] = acc
			acc = master[t].MulAdd(acc, xi)
		}
		k.basis[i] = bi
	}
	return k, nil
}

// Len returns the number of kernel points.
func (k *Kernel) Len() int { return len(k.xs) }

// Points returns the kernel's evaluation points. Callers must not
// modify the returned slice.
func (k *Kernel) Points() []field.Element { return k.xs }

// CoeffsAtInto writes into dst the Lagrange coefficients c_1..c_m such
// that f(x) = Σ c_i · f(xs[i]) for any polynomial f of degree < m. dst
// must have length m. It performs no allocations and no inversions:
// c_i = w_i · Π_{j<i}(x - x_j) · Π_{j>i}(x - x_j) via prefix/suffix
// products, which also yields the exact indicator vector when x is one
// of the kernel points.
func (k *Kernel) CoeffsAtInto(dst []field.Element, x field.Element) {
	m := len(k.xs)
	if len(dst) != m {
		panic(fmt.Sprintf("poly: CoeffsAtInto dst length %d, want %d", len(dst), m))
	}
	acc := field.One
	for i := 0; i < m; i++ {
		k.pre[i] = acc
		acc = acc.Mul(x.Sub(k.xs[i]))
	}
	acc = field.One
	for i := m - 1; i >= 0; i-- {
		k.suf[i] = acc
		acc = acc.Mul(x.Sub(k.xs[i]))
	}
	for i := 0; i < m; i++ {
		dst[i] = k.weights[i].Mul(k.pre[i]).Mul(k.suf[i])
	}
}

// CoeffsAt returns the Lagrange coefficients at x in the kernel's
// internal buffer, which is overwritten by the next CoeffsAt/EvalAt
// call. Callers that retain the result must copy it.
func (k *Kernel) CoeffsAt(x field.Element) []field.Element {
	k.CoeffsAtInto(k.vals, x)
	return k.vals
}

// EvalAt evaluates, at x, the unique polynomial of degree < m through
// (xs[i], ys[i]): the dot product of the Lagrange coefficients with ys.
// It allocates nothing.
func (k *Kernel) EvalAt(ys []field.Element, x field.Element) field.Element {
	if len(ys) != len(k.xs) {
		panic(fmt.Sprintf("poly: EvalAt with %d values for %d points", len(ys), len(k.xs)))
	}
	k.CoeffsAtInto(k.vals, x)
	var acc field.Element
	for i, c := range k.vals {
		acc = acc.MulAdd(c, ys[i])
	}
	return acc
}

// Interpolate returns the unique polynomial of degree < m with
// p(xs[i]) = ys[i], by scaled accumulation of the precomputed basis
// numerators.
func (k *Kernel) Interpolate(ys []field.Element) Poly {
	m := len(k.xs)
	if len(ys) != m {
		panic(fmt.Sprintf("poly: Interpolate with %d values for %d points", len(ys), m))
	}
	out := make([]field.Element, m)
	for i := range ys {
		field.AddScaled(out, k.basis[i], ys[i].Mul(k.weights[i]))
	}
	return Poly{Coeffs: out}
}

// clone returns a kernel sharing the receiver's immutable tables (xs,
// weights, basis — never written after NewKernel) with private scratch
// buffers, so each party can own a clone of one master kernel.
func (k *Kernel) clone() *Kernel {
	m := len(k.xs)
	return &Kernel{
		xs:      k.xs,
		weights: k.weights,
		basis:   k.basis,
		pre:     make([]field.Element, m),
		suf:     make([]field.Element, m),
		vals:    make([]field.Element, m),
	}
}

// KernelRegistry is the world-wide master store of kernels: one build
// per distinct point set for the lifetime of a World, shared across
// parties, epochs and background refills. Parties do not interpolate on
// the masters directly — a Kernel carries mutable scratch — they hold
// per-party KernelCaches (NewCache) of clones that share the masters'
// O(m²) precomputed tables. A registry is not safe for concurrent use:
// a World runs one party handler at a time.
type KernelRegistry struct {
	kernels map[string]*Kernel
}

// NewKernelRegistry returns an empty registry.
func NewKernelRegistry() *KernelRegistry {
	return &KernelRegistry{kernels: make(map[string]*Kernel)}
}

// get returns the master kernel for the point set, building it on first
// use.
func (r *KernelRegistry) get(key string, xs []field.Element) (*Kernel, error) {
	if k, ok := r.kernels[key]; ok {
		return k, nil
	}
	k, err := NewKernel(xs)
	if err != nil {
		return nil, err
	}
	r.kernels[key] = k
	return k, nil
}

// NewCache returns a per-party cache backed by this registry: misses
// clone the registry's master (sharing its precomputed tables).
func (r *KernelRegistry) NewCache() *KernelCache {
	return &KernelCache{kernels: make(map[string]*Kernel), reg: r}
}

// KernelCache memoises kernels per evaluation-point set. Protocol runs
// interpolate over the same few grids (prefixes of α_1..α_n, provider
// subsets) thousands of times; the cache makes every instance after the
// first hit the precomputed path. A cache is single-goroutine — one
// party owns it — but caches created from a KernelRegistry share the
// masters' precomputed tables, so the O(m²) build cost is paid once per
// World rather than once per party.
type KernelCache struct {
	kernels map[string]*Kernel
	reg     *KernelRegistry // nil: standalone cache, builds its own kernels
}

// NewKernelCache returns an empty standalone cache.
func NewKernelCache() *KernelCache {
	return &KernelCache{kernels: make(map[string]*Kernel)}
}

// Get returns the kernel for the given point set, building and caching
// it on first use. The key is the exact point sequence (order matters:
// coefficients align with the caller's share order).
func (c *KernelCache) Get(xs []field.Element) (*Kernel, error) {
	key := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		key = x.AppendBytes(key)
	}
	if k, ok := c.kernels[string(key)]; ok {
		return k, nil
	}
	var k *Kernel
	var err error
	if c.reg != nil {
		var master *Kernel
		master, err = c.reg.get(string(key), xs)
		if err == nil {
			k = master.clone()
		}
	} else {
		k, err = NewKernel(xs)
	}
	if err != nil {
		return nil, err
	}
	c.kernels[string(key)] = k
	return k, nil
}

// Alphas returns the kernel over the first m party points α_1..α_m.
func (c *KernelCache) Alphas(m int) (*Kernel, error) {
	xs := make([]field.Element, m)
	for i := range xs {
		xs[i] = Alpha(i + 1)
	}
	return c.Get(xs)
}
