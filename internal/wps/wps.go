// Package wps implements ΠWPS (Fig 3, Theorem 4.8): the paper's
// best-of-both-worlds weak polynomial-sharing protocol for a dealer D
// with L polynomials of degree ts.
//
// D embeds each q^(ℓ)(·) in a random (ts,ts)-degree symmetric bivariate
// polynomial Q^(ℓ)(x,y) with Q^(ℓ)(0,y) = q^(ℓ)(y) and sends party P_i
// the row polynomials q_i^(ℓ)(x) = Q^(ℓ)(x, α_i). Parties exchange the
// supposedly common points and publish OK/NOK results through the
// consistency core (package consist), which also runs D's (W, E, F)
// announcement, the acceptance ΠBA, and the (n,ta)-star fallback path.
// Parties outside the certified sets reconstruct their rows by online
// error correction from the points of F (resp. F').
//
// In a synchronous network with an honest dealer every party holds its
// wps-shares {q^(ℓ)(α_i)} by TWPS = 2Δ + 2TBC + TBA; see DESIGN.md for
// the full property matrix and implementation notes.
package wps

import (
	"fmt"

	"repro/field"
	"repro/internal/aba"
	"repro/internal/consist"
	"repro/internal/proto"
	"repro/internal/rs"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/wire"
	"repro/poly"
)

// Message types on the instance's own path.
const (
	// MsgShare carries D's L row polynomials to one party.
	MsgShare uint8 = iota + 1
	// MsgPoints carries the L supposedly common points P_i -> P_j.
	MsgPoints
)

// WPS is one party's state in a ΠWPS instance.
type WPS struct {
	rt     *proto.Runtime
	inst   string
	dealer int
	L      int
	cfg    proto.Config
	start  sim.Time

	core *consist.Core

	// Dealer-only state.
	bivars []*poly.Symmetric

	// Row state.
	myRows     []poly.Poly
	havePoints map[int][]field.Element // sender -> L points
	sentPoints bool

	// Output path.
	oecs    []*rs.OEC
	oecFrom map[int]bool
	done    bool
	shares  []field.Element

	onOutput func(shares []field.Element)
}

// Deadline returns TWPS - T0 = 2Δ + 2·TBC + TBA.
func Deadline(cfg proto.Config) sim.Time {
	tb := timing.New(cfg.N, cfg.Ts, cfg.Delta, cfg.CoinRounds)
	return 2*cfg.Delta + 2*tb.BC + tb.BA
}

// New registers a ΠWPS instance anchored at structural start time start
// (a multiple of Δ). The dealer additionally calls Start (or StartRows)
// with its polynomials. onOutput fires exactly once per party that
// computes its wps-shares.
func New(rt *proto.Runtime, inst string, dealer, l int, cfg proto.Config, coin aba.CoinSource, start sim.Time, onOutput func(shares []field.Element)) *WPS {
	w := &WPS{
		rt:         rt,
		inst:       inst,
		dealer:     dealer,
		L:          l,
		cfg:        cfg,
		start:      start,
		havePoints: make(map[int][]field.Element),
		onOutput:   onOutput,
	}
	// Register comes first so the instance's trace event precedes its
	// children's. It replays buffered traffic (a late joiner) before the
	// core exists; recheck at the end redoes what waited for the core.
	rt.Register(inst, w)
	w.core = consist.NewCore(rt, proto.Join(inst, "c"), dealer, cfg, coin, start+2*cfg.Delta, consist.Callbacks{
		VerifyNOK: func(i, j, idx int, val field.Element) bool {
			if w.bivars == nil || idx >= w.L {
				return false
			}
			return val == w.bivars[idx].Eval(poly.Alpha(j), poly.Alpha(i))
		},
		OnUpdate: func() { w.maybeOutput() },
	})
	w.recheck()
	return w
}

// Start provides the dealer's polynomials (each of degree ≤ ts) and
// distributes rows on freshly embedded random symmetric bivariate
// polynomials. Only the dealer calls it, at the structural start time
// when honest.
func (w *WPS) Start(qs []poly.Poly) {
	if w.rt.ID() != w.dealer {
		panic("wps: Start called by non-dealer")
	}
	if len(qs) != w.L {
		panic(fmt.Sprintf("wps: Start with %d polynomials, want %d", len(qs), w.L))
	}
	w.bivars = make([]*poly.Symmetric, w.L)
	for l, q := range qs {
		if q.Degree() > w.cfg.Ts {
			panic(fmt.Sprintf("wps: input polynomial %d has degree %d > ts=%d", l, q.Degree(), w.cfg.Ts))
		}
		s, err := poly.NewSymmetricRandom(w.rt.Rand(), w.cfg.Ts, q)
		if err != nil {
			panic(err)
		}
		w.bivars[l] = s
	}
	rows := make([][]poly.Poly, w.cfg.N)
	for i := 1; i <= w.cfg.N; i++ {
		rows[i-1] = make([]poly.Poly, w.L)
		for l := range rows[i-1] {
			rows[i-1][l] = w.bivars[l].RowForParty(i)
		}
	}
	w.sendRows(rows)
}

// StartRows distributes explicit per-party rows (rows[i-1] goes to
// party i). It exists for adversarial tests handing out inconsistent
// rows; honest dealers use Start.
func (w *WPS) StartRows(rows [][]poly.Poly) {
	if w.rt.ID() != w.dealer {
		panic("wps: StartRows called by non-dealer")
	}
	if len(rows) != w.cfg.N {
		panic("wps: StartRows needs one row vector per party")
	}
	w.sendRows(rows)
}

// SetBivariates equips a StartRows dealer with the underlying symmetric
// bivariate polynomials used for NOK pruning.
func (w *WPS) SetBivariates(bs []*poly.Symmetric) { w.bivars = bs }

func (w *WPS) sendRows(rows [][]poly.Poly) {
	for i := 1; i <= w.cfg.N; i++ {
		w.rt.Send(w.inst, i, MsgShare, wire.NewWriterCap(wire.PolysSize(rows[i-1])).Polys(rows[i-1]).Bytes())
	}
}

// Done reports whether this party has computed its wps-shares.
func (w *WPS) Done() bool { return w.done }

// Shares returns the computed wps-shares; valid only after Done.
func (w *WPS) Shares() []field.Element { return w.shares }

// Rows returns this party's received row polynomials (nil before the
// dealer's share arrives). The VSS layer uses them as the input of the
// party's own sub-WPS.
func (w *WPS) Rows() []poly.Poly { return w.myRows }

// BAOutcome reports the acceptance ΠBA's decision once made: 0 selects
// the (W,E,F) path, 1 the (n,ta)-star fallback path. Exposed for the
// branch-frequency ablation (A3 in DESIGN.md).
func (w *WPS) BAOutcome() (uint8, bool) { return w.core.BAOutput() }

// gridNext returns the smallest multiple of Δ that is ≥ now.
func (w *WPS) gridNext() sim.Time {
	now := w.rt.Now()
	d := w.cfg.Delta
	return ((now + d - 1) / d) * d
}

// Deliver implements proto.Handler for the instance's own path.
func (w *WPS) Deliver(from int, msgType uint8, body []byte) {
	switch msgType {
	case MsgShare:
		if from != w.dealer || w.myRows != nil {
			return
		}
		r := wire.NewReader(body)
		rows := r.Polys()
		if r.Done() != nil || len(rows) != w.L {
			return
		}
		for _, p := range rows {
			if p.Degree() > w.cfg.Ts {
				return // oversized row: drop the whole share
			}
		}
		w.myRows = rows
		w.rt.At(w.gridNext(), func() { w.sendPoints() })
		w.recheck()
	case MsgPoints:
		if _, dup := w.havePoints[from]; dup {
			return
		}
		r := wire.NewReader(body)
		pts := r.Elements()
		if r.Done() != nil || len(pts) != w.L {
			return
		}
		w.havePoints[from] = pts
		w.checkPair(from)
		w.feedOEC(from, pts)
	}
}

// recheck runs every pair check whose inputs have arrived, then the
// output check.
func (w *WPS) recheck() {
	// Deterministic replay order: map iteration order must not leak
	// into the late-announcement send order.
	for j := 1; j <= w.cfg.N; j++ {
		if _, ok := w.havePoints[j]; ok {
			w.checkPair(j)
		}
	}
	w.maybeOutput()
}

func (w *WPS) sendPoints() {
	if w.sentPoints || w.myRows == nil {
		return
	}
	w.sentPoints = true
	for j := 1; j <= w.cfg.N; j++ {
		vals := make([]field.Element, w.L)
		for l := range vals {
			vals[l] = w.myRows[l].Eval(poly.Alpha(j))
		}
		w.rt.Send(w.inst, j, MsgPoints, wire.NewWriterCap(2+8*len(vals)).Elements(vals).Bytes())
	}
}

// checkPair evaluates the pair-wise consistency check with party j once
// both our rows and j's points are available.
func (w *WPS) checkPair(j int) {
	if w.myRows == nil || w.core == nil {
		return
	}
	pts, ok := w.havePoints[j]
	if !ok {
		return
	}
	rep := &consist.Report{OK: true}
	for l := 0; l < w.L; l++ {
		if pts[l] != w.myRows[l].Eval(poly.Alpha(j)) {
			rep.OK = false
			rep.NokIdx = l
			rep.NokVal = w.myRows[l].Eval(poly.Alpha(j))
			break
		}
	}
	w.core.SetReport(j, rep)
}

// maybeOutput drives the two output paths of Fig 3's local computation.
func (w *WPS) maybeOutput() {
	if w.done || w.core == nil {
		return
	}
	out, ok := w.core.BAOutput()
	if !ok {
		return
	}
	if out == 0 {
		wef, ok := w.core.WEFMsg()
		if !ok {
			return
		}
		if contains(wef.W, w.rt.ID()) && w.myRows != nil {
			w.outputOwn()
			return
		}
		w.ensureOEC(wef.Star.F)
		w.pollOEC()
		return
	}
	star, ok := w.core.Star()
	if !ok {
		return
	}
	if contains(star.F, w.rt.ID()) && w.myRows != nil {
		w.outputOwn()
		return
	}
	w.ensureOEC(star.F)
	w.pollOEC()
}

func contains(vs []int, x int) bool {
	for _, v := range vs {
		if v == x {
			return true
		}
	}
	return false
}

func (w *WPS) outputOwn() {
	shares := make([]field.Element, w.L)
	for l := range shares {
		shares[l] = w.myRows[l].Eval(field.Zero)
	}
	w.finish(shares)
}

// ensureOEC initialises the L online error-correcting decoders fed by
// the points of the provider set (F or F').
func (w *WPS) ensureOEC(providers []int) {
	if w.oecs != nil {
		return
	}
	w.oecs = make([]*rs.OEC, w.L)
	for l := range w.oecs {
		// The L decoders are fed identical point sequences, so they
		// share one interpolation kernel through the per-run cache.
		w.oecs[l] = rs.NewOECCached(w.cfg.Ts, w.cfg.Ts, w.rt.Kernels())
	}
	w.oecFrom = make(map[int]bool, len(providers))
	for _, p := range providers {
		w.oecFrom[p] = true
	}
	for j := 1; j <= w.cfg.N; j++ {
		pts, ok := w.havePoints[j]
		if !ok || !w.oecFrom[j] {
			continue
		}
		for l, o := range w.oecs {
			o.Add(poly.Alpha(j), pts[l])
		}
	}
}

func (w *WPS) feedOEC(j int, pts []field.Element) {
	if w.oecs == nil || !w.oecFrom[j] {
		return
	}
	for l, o := range w.oecs {
		o.Add(poly.Alpha(j), pts[l])
	}
	w.pollOEC()
}

func (w *WPS) pollOEC() {
	if w.done || w.oecs == nil {
		return
	}
	shares := make([]field.Element, w.L)
	for l, o := range w.oecs {
		q, ok := o.Poll()
		if !ok {
			return
		}
		shares[l] = q.Eval(field.Zero)
	}
	w.finish(shares)
}

func (w *WPS) finish(shares []field.Element) {
	if w.done {
		return
	}
	w.done = true
	w.shares = shares
	if w.onOutput != nil {
		w.onOutput(shares)
	}
}
