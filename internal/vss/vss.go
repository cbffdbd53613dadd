// Package vss implements ΠVSS (Fig 4, Theorem 4.16): the paper's
// best-of-both-worlds verifiable secret sharing for a dealer D with L
// polynomials of degree ts, tolerating ts corruptions in a synchronous
// and ta in an asynchronous network (3ts + ta < n).
//
// ΠVSS upgrades ΠWPS's weak commitment: the pair-wise consistency
// checks are performed on wps-shares — each party P_j re-shares the row
// polynomial it received from D through its own sub-instance Π(j)WPS —
// so that parties outside the certified set W can reconstruct their
// rows from the wps-shares of F's members, which even corrupt members
// of F are bound to (they had to share polynomials on the committed
// bivariate polynomial to make it into F). The consistency-graph,
// (W,E,F), acceptance-ΠBA and (n,ta)-star machinery is the shared core
// of package consist, anchored one WPS-deadline later than in ΠWPS.
//
// Synchronous, honest D: every party outputs {q^(ℓ)(α_i)} at
// TVSS = Δ + TWPS + 2TBC + TBA. Corrupt D: strong commitment — if any
// honest party outputs, a unique degree-ts polynomial vector is fixed
// and every honest party (eventually / within 2Δ in sync) outputs its
// points on it.
package vss

import (
	"fmt"

	"repro/field"
	"repro/internal/aba"
	"repro/internal/consist"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/wire"
	"repro/internal/wps"
	"repro/poly"
)

// MsgShare carries D's L row polynomials to one party on the VSS
// instance's own path.
const MsgShare uint8 = 1

// VSS is one party's state in a ΠVSS instance.
type VSS struct {
	rt     *proto.Runtime
	inst   string
	dealer int
	L      int
	cfg    proto.Config
	coin   aba.CoinSource
	start  sim.Time
	tb     timing.Bounds

	core *consist.Core

	// Dealer-only state.
	bivars []*poly.Symmetric

	// Row state.
	myRows  []poly.Poly
	started bool // own sub-WPS invoked

	// Sub-WPS instances: subWPS[j] is Π(j)WPS re-sharing P_j's row.
	subWPS []*wps.WPS
	// shareFrom[j] = this party's wps-shares from Π(j)WPS, i.e. the
	// supposedly common points q_j^(ℓ)(α_me).
	shareFrom map[int][]field.Element

	done   bool
	shares []field.Element

	onOutput func(shares []field.Element)
}

// Deadline returns TVSS - T0 = Δ + TWPS + 2TBC + TBA.
func Deadline(cfg proto.Config) sim.Time {
	tb := timing.New(cfg.N, cfg.Ts, cfg.Delta, cfg.CoinRounds)
	return cfg.Delta + wps.Deadline(cfg) + 2*tb.BC + tb.BA
}

// New registers a ΠVSS instance anchored at structural start time start
// (a multiple of Δ). The dealer additionally calls Start with its L
// polynomials. onOutput fires exactly once per party that computes its
// VSS-shares.
func New(rt *proto.Runtime, inst string, dealer, l int, cfg proto.Config, coin aba.CoinSource, start sim.Time, onOutput func(shares []field.Element)) *VSS {
	v := &VSS{
		rt:        rt,
		inst:      inst,
		dealer:    dealer,
		L:         l,
		cfg:       cfg,
		coin:      coin,
		start:     start,
		tb:        timing.New(cfg.N, cfg.Ts, cfg.Delta, cfg.CoinRounds),
		subWPS:    make([]*wps.WPS, cfg.N+1),
		shareFrom: make(map[int][]field.Element),
		onOutput:  onOutput,
	}
	// Register comes first so the instance's trace event precedes its
	// children's. It replays buffered traffic (a late joiner) before the
	// core exists; recheck at the end redoes what waited for the core.
	rt.Register(inst, v)
	// Sub-WPS instances are structurally anchored at T0 + Δ: with an
	// honest D in a synchronous network every party holds its rows
	// before then (Fig 4's "wait until the local time is a multiple of
	// Δ, then invoke Π(i)WPS").
	for j := 1; j <= cfg.N; j++ {
		j := j
		v.subWPS[j] = wps.New(rt, proto.Join(inst, "wps", fmt.Sprint(j)), j, l, cfg, coin, start+cfg.Delta,
			func(shares []field.Element) {
				v.shareFrom[j] = shares
				v.checkPair(j)
				v.maybeOutput()
			})
	}
	// The consistency core's result-vector slot is T0 + Δ + TWPS.
	v.core = consist.NewCore(rt, proto.Join(inst, "c"), dealer, cfg, coin, start+cfg.Delta+wps.Deadline(cfg), consist.Callbacks{
		VerifyNOK: func(i, j, idx int, val field.Element) bool {
			if v.bivars == nil || idx >= v.L {
				return false
			}
			return val == v.bivars[idx].Eval(poly.Alpha(j), poly.Alpha(i))
		},
		OnUpdate: func() { v.maybeOutput() },
	})
	v.recheck()
	return v
}

// Start provides the dealer's polynomials (each of degree ≤ ts) and
// distributes the rows of fresh random symmetric bivariate embeddings.
func (v *VSS) Start(qs []poly.Poly) {
	if v.rt.ID() != v.dealer {
		panic("vss: Start called by non-dealer")
	}
	if len(qs) != v.L {
		panic(fmt.Sprintf("vss: Start with %d polynomials, want %d", len(qs), v.L))
	}
	v.bivars = make([]*poly.Symmetric, v.L)
	for l, q := range qs {
		if q.Degree() > v.cfg.Ts {
			panic(fmt.Sprintf("vss: input polynomial %d has degree %d > ts=%d", l, q.Degree(), v.cfg.Ts))
		}
		s, err := poly.NewSymmetricRandom(v.rt.Rand(), v.cfg.Ts, q)
		if err != nil {
			panic(err)
		}
		v.bivars[l] = s
	}
	rows := make([][]poly.Poly, v.cfg.N)
	for i := 1; i <= v.cfg.N; i++ {
		rows[i-1] = make([]poly.Poly, v.L)
		for l := range rows[i-1] {
			rows[i-1][l] = v.bivars[l].RowForParty(i)
		}
	}
	v.StartRows(rows)
}

// StartRows distributes explicit per-party rows (adversarial dealers in
// tests use this to hand out inconsistent rows).
func (v *VSS) StartRows(rows [][]poly.Poly) {
	if v.rt.ID() != v.dealer {
		panic("vss: StartRows called by non-dealer")
	}
	for i := 1; i <= v.cfg.N; i++ {
		v.rt.Send(v.inst, i, MsgShare, wire.NewWriterCap(wire.PolysSize(rows[i-1])).Polys(rows[i-1]).Bytes())
	}
}

// SetBivariates equips a StartRows dealer with the underlying
// polynomials for NOK pruning.
func (v *VSS) SetBivariates(bs []*poly.Symmetric) { v.bivars = bs }

// Done reports whether this party has computed its VSS-shares.
func (v *VSS) Done() bool { return v.done }

// Shares returns the computed VSS-shares {q^(ℓ)(α_i)}; valid only
// after Done.
func (v *VSS) Shares() []field.Element { return v.shares }

// BAOutcome reports the acceptance ΠBA's decision once made: 0 selects
// the (W,E,F) path, 1 the (n,ta)-star fallback path. Exposed for the
// branch-frequency ablation (A3 in DESIGN.md).
func (v *VSS) BAOutcome() (uint8, bool) { return v.core.BAOutput() }

func (v *VSS) gridNext() sim.Time {
	now := v.rt.Now()
	d := v.cfg.Delta
	return ((now + d - 1) / d) * d
}

// Deliver implements proto.Handler for the VSS instance's own path.
func (v *VSS) Deliver(from int, msgType uint8, body []byte) {
	if msgType != MsgShare || from != v.dealer || v.myRows != nil {
		return
	}
	r := wire.NewReader(body)
	rows := r.Polys()
	if r.Done() != nil || len(rows) != v.L {
		return
	}
	for _, p := range rows {
		if p.Degree() > v.cfg.Ts {
			return
		}
	}
	v.myRows = rows
	v.rt.At(v.gridNext(), func() { v.invokeOwnWPS() })
	v.recheck()
}

// recheck runs every pair check whose inputs have arrived, then the
// output check.
func (v *VSS) recheck() {
	// Deterministic replay order: map iteration order must not leak
	// into the late-announcement send order.
	for j := 1; j <= v.cfg.N; j++ {
		if _, ok := v.shareFrom[j]; ok {
			v.checkPair(j)
		}
	}
	v.maybeOutput()
}

// invokeOwnWPS re-shares this party's rows through its own sub-WPS.
func (v *VSS) invokeOwnWPS() {
	if v.started || v.myRows == nil {
		return
	}
	v.started = true
	v.subWPS[v.rt.ID()].Start(v.myRows)
}

// checkPair publishes the pair-wise consistency result about P_j once
// both our rows and the wps-share from Π(j)WPS are available: OK iff
// q_j^(ℓ)(α_me) = q_me^(ℓ)(α_j) for every ℓ.
func (v *VSS) checkPair(j int) {
	if v.myRows == nil || v.core == nil {
		return
	}
	shares, ok := v.shareFrom[j]
	if !ok {
		return
	}
	rep := &consist.Report{OK: true}
	for l := 0; l < v.L; l++ {
		if shares[l] != v.myRows[l].Eval(poly.Alpha(j)) {
			rep.OK = false
			rep.NokIdx = l
			rep.NokVal = v.myRows[l].Eval(poly.Alpha(j))
			break
		}
	}
	v.core.SetReport(j, rep)
}

// maybeOutput drives the two output paths of Fig 4's local computation.
func (v *VSS) maybeOutput() {
	if v.done || v.core == nil {
		return
	}
	out, ok := v.core.BAOutput()
	if !ok {
		return
	}
	if out == 0 {
		wef, ok := v.core.WEFMsg()
		if !ok {
			return
		}
		if contains(wef.W, v.rt.ID()) && v.myRows != nil {
			v.outputOwn()
			return
		}
		v.tryInterpolate(wef.Star.F)
		return
	}
	star, ok := v.core.Star()
	if !ok {
		return
	}
	if contains(star.F, v.rt.ID()) && v.myRows != nil {
		v.outputOwn()
		return
	}
	v.tryInterpolate(star.F)
}

func contains(vs []int, x int) bool {
	for _, v := range vs {
		if v == x {
			return true
		}
	}
	return false
}

func (v *VSS) outputOwn() {
	shares := make([]field.Element, v.L)
	for l := range shares {
		shares[l] = v.myRows[l].Eval(field.Zero)
	}
	v.finish(shares)
}

// tryInterpolate implements the SS_i mechanism: collect wps-shares from
// ts+1 members of the provider set (F or F'), interpolate this party's
// row per polynomial, and output the constant terms.
func (v *VSS) tryInterpolate(providers []int) {
	var ss []int
	for _, j := range providers {
		if _, ok := v.shareFrom[j]; ok {
			ss = append(ss, j)
		}
	}
	if len(ss) < v.cfg.Ts+1 {
		return
	}
	// Deterministic choice: the ts+1 lowest indices (providers are
	// sorted by construction in graph.Star, but sort defensively).
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
	ss = ss[:v.cfg.Ts+1]
	// One cached kernel serves all L interpolations (and every other
	// party interpolating from the same provider prefix this run).
	xs := make([]field.Element, len(ss))
	for i, j := range ss {
		xs[i] = poly.Alpha(j)
	}
	kern, err := v.rt.Kernels().Get(xs)
	if err != nil {
		return
	}
	ys := make([]field.Element, len(ss))
	shares := make([]field.Element, v.L)
	for l := 0; l < v.L; l++ {
		for i, j := range ss {
			ys[i] = v.shareFrom[j][l]
		}
		shares[l] = kern.EvalAt(ys, field.Zero)
	}
	v.finish(shares)
}

func (v *VSS) finish(shares []field.Element) {
	if v.done {
		return
	}
	v.done = true
	v.shares = shares
	if v.onOutput != nil {
		v.onOutput(shares)
	}
}
