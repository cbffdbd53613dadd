package vss

import (
	"math/rand/v2"
	"testing"

	"repro/field"
	"repro/internal/aba"
	"repro/internal/adversary"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/poly"
)

func cfg8() proto.Config { return proto.Config{N: 8, Ts: 2, Ta: 1, Delta: 10, CoinRounds: 8} }
func cfg5() proto.Config { return proto.Config{N: 5, Ts: 1, Ta: 1, Delta: 10, CoinRounds: 8} }

type harness struct {
	w     *proto.World
	insts []*VSS
	outs  [][]field.Element
	outAt []sim.Time
}

func newHarness(w *proto.World, dealer, l int, seed uint64) *harness {
	h := &harness{
		w:     w,
		insts: make([]*VSS, w.Cfg.N+1),
		outs:  make([][]field.Element, w.Cfg.N+1),
		outAt: make([]sim.Time, w.Cfg.N+1),
	}
	coin := aba.DefaultCoin(seed)
	for i := 1; i <= w.Cfg.N; i++ {
		i := i
		h.insts[i] = New(w.Runtimes[i], "vss", dealer, l, w.Cfg, coin, 0, func(s []field.Element) {
			h.outs[i] = s
			h.outAt[i] = w.Sched.Now()
		})
	}
	return h
}

func randPolys(r *rand.Rand, l, d int) []poly.Poly {
	qs := make([]poly.Poly, l)
	for i := range qs {
		qs[i] = poly.Random(r, d, field.Random(r))
	}
	return qs
}

// checkCommitment verifies honest outputs lie on a single degree-ts
// polynomial per slot with at least minHolders honest holders, and
// returns the committed polynomials.
func (h *harness) checkCommitment(t *testing.T, l, minHolders int) []poly.Poly {
	t.Helper()
	var holders []int
	for i := 1; i <= h.w.Cfg.N; i++ {
		if h.w.IsCorrupt(i) || h.outs[i] == nil {
			continue
		}
		holders = append(holders, i)
	}
	if len(holders) < minHolders {
		t.Fatalf("only %d honest holders, want ≥ %d", len(holders), minHolders)
	}
	ts := h.w.Cfg.Ts
	committed := make([]poly.Poly, l)
	for slot := 0; slot < l; slot++ {
		pts := make([]poly.Point, 0, ts+1)
		for _, i := range holders[:ts+1] {
			pts = append(pts, poly.Point{X: poly.Alpha(i), Y: h.outs[i][slot]})
		}
		q, err := poly.Interpolate(pts)
		if err != nil {
			t.Fatal(err)
		}
		if q.Degree() > ts {
			t.Fatalf("slot %d: committed degree %d > ts", slot, q.Degree())
		}
		for _, i := range holders {
			if h.outs[i][slot] != q.Eval(poly.Alpha(i)) {
				t.Fatalf("slot %d: party %d off the committed polynomial", slot, i)
			}
		}
		committed[slot] = q
	}
	return committed
}

func TestHonestDealerSync(t *testing.T) {
	for _, c := range []proto.Config{cfg5(), cfg8()} {
		seed := uint64(1)
		w := proto.NewWorld(proto.WorldOpts{Cfg: c, Network: proto.Sync, Seed: seed})
		const L = 2
		h := newHarness(w, 2, L, seed)
		r := rand.New(rand.NewPCG(seed, 42))
		qs := randPolys(r, L, c.Ts)
		h.insts[2].Start(qs)
		w.RunToQuiescence()
		deadline := Deadline(c)
		for i := 1; i <= c.N; i++ {
			if h.outs[i] == nil {
				t.Fatalf("n=%d: party %d no output", c.N, i)
			}
			for l := 0; l < L; l++ {
				if h.outs[i][l] != qs[l].Eval(poly.Alpha(i)) {
					t.Fatalf("n=%d: party %d wrong share for poly %d", c.N, i, l)
				}
			}
			if h.outAt[i] > deadline {
				t.Fatalf("n=%d: party %d output at %d > TVSS=%d", c.N, i, h.outAt[i], deadline)
			}
		}
	}
}

func TestHonestDealerSyncN11(t *testing.T) {
	// A larger configuration: n=11, ts=3, ta=1 (3·3+1 = 10 < 11).
	if testing.Short() {
		t.Skip("n=11 VSS skipped in -short mode")
	}
	c := proto.Config{N: 11, Ts: 3, Ta: 1, Delta: 10, CoinRounds: 8}
	w := proto.NewWorld(proto.WorldOpts{Cfg: c, Network: proto.Sync, Seed: 17})
	h := newHarness(w, 4, 1, 17)
	r := rand.New(rand.NewPCG(17, 17))
	qs := randPolys(r, 1, c.Ts)
	h.insts[4].Start(qs)
	w.RunToQuiescence()
	for i := 1; i <= c.N; i++ {
		if h.outs[i] == nil || h.outs[i][0] != qs[0].Eval(poly.Alpha(i)) {
			t.Fatalf("party %d bad output at n=11", i)
		}
		if h.outAt[i] > Deadline(c) {
			t.Fatalf("party %d late at n=11: %d > %d", i, h.outAt[i], Deadline(c))
		}
	}
}

func TestHonestDealerSyncWithByzantine(t *testing.T) {
	// ts corrupt parties misbehave across all sub-protocols; honest
	// parties still receive correct shares by TVSS.
	for seed := uint64(0); seed < 2; seed++ {
		c := cfg8()
		ctrl := adversary.NewController().
			Set(4, adversary.GarbleMatching(adversary.InstanceContains("/c/"))).
			Set(7, adversary.GarbleMatching(adversary.InstanceContains("wps")))
		w := proto.NewWorld(proto.WorldOpts{
			Cfg: c, Network: proto.Sync, Seed: seed, Corrupt: []int{4, 7}, Interceptor: ctrl,
		})
		h := newHarness(w, 3, 1, seed)
		r := rand.New(rand.NewPCG(seed, 5))
		qs := randPolys(r, 1, c.Ts)
		h.insts[3].Start(qs)
		w.RunToQuiescence()
		for i := 1; i <= c.N; i++ {
			if w.IsCorrupt(i) {
				continue
			}
			if h.outs[i] == nil || h.outs[i][0] != qs[0].Eval(poly.Alpha(i)) {
				t.Fatalf("seed %d: party %d bad output %v", seed, i, h.outs[i])
			}
			if h.outAt[i] > Deadline(c) {
				t.Fatalf("seed %d: party %d late: %d > %d", seed, i, h.outAt[i], Deadline(c))
			}
		}
	}
}

func TestHonestDealerAsync(t *testing.T) {
	for seed := uint64(0); seed < 2; seed++ {
		c := cfg8()
		ctrl := adversary.NewController().Set(6, adversary.GarbleMatching(func(string) bool { return true }))
		w := proto.NewWorld(proto.WorldOpts{
			Cfg: c, Network: proto.Async, Seed: seed, Corrupt: []int{6}, Interceptor: ctrl,
		})
		h := newHarness(w, 1, 1, seed)
		r := rand.New(rand.NewPCG(seed, 6))
		qs := randPolys(r, 1, c.Ts)
		h.insts[1].Start(qs)
		w.RunToQuiescence()
		for i := 1; i <= c.N; i++ {
			if w.IsCorrupt(i) {
				continue
			}
			if h.outs[i] == nil || h.outs[i][0] != qs[0].Eval(poly.Alpha(i)) {
				t.Fatalf("seed %d: party %d bad output (ta-correctness)", seed, i)
			}
		}
	}
}

func TestSilentDealer(t *testing.T) {
	ctrl := adversary.NewController().Set(2, adversary.Silent())
	w := proto.NewWorld(proto.WorldOpts{
		Cfg: cfg5(), Network: proto.Sync, Seed: 3, Corrupt: []int{2}, Interceptor: ctrl,
	})
	h := newHarness(w, 2, 1, 3)
	r := rand.New(rand.NewPCG(3, 3))
	h.insts[2].Start(randPolys(r, 1, w.Cfg.Ts))
	w.RunToQuiescence()
	for i := 1; i <= w.Cfg.N; i++ {
		if !w.IsCorrupt(i) && h.outs[i] != nil {
			t.Fatalf("party %d output from silent dealer", i)
		}
	}
}

func corruptRows(r *rand.Rand, c proto.Config, l int, victims map[int]bool) ([][]poly.Poly, []*poly.Symmetric) {
	qs := randPolys(r, l, c.Ts)
	bivars := make([]*poly.Symmetric, l)
	for i := range bivars {
		s, err := poly.NewSymmetricRandom(r, c.Ts, qs[i])
		if err != nil {
			panic(err)
		}
		bivars[i] = s
	}
	rows := make([][]poly.Poly, c.N)
	for i := 1; i <= c.N; i++ {
		rows[i-1] = make([]poly.Poly, l)
		for slot := range rows[i-1] {
			if victims[i] {
				rows[i-1][slot] = poly.Random(r, c.Ts, field.Random(r))
			} else {
				rows[i-1][slot] = bivars[slot].RowForParty(i)
			}
		}
	}
	return rows, bivars
}

func TestCorruptDealerStrongCommitmentSync(t *testing.T) {
	// ts-strong commitment (Lemma 4.13): either no honest output, or a
	// unique degree-ts polynomial exists and EVERY honest party outputs
	// its point on it. This is VSS's upgrade over WPS (where only ts+1
	// holders are guaranteed).
	for seed := uint64(0); seed < 4; seed++ {
		c := cfg8()
		w := proto.NewWorld(proto.WorldOpts{
			Cfg: c, Network: proto.Sync, Seed: seed, Corrupt: []int{1},
		})
		h := newHarness(w, 1, 1, seed)
		r := rand.New(rand.NewPCG(seed, 7))
		rows, bivars := corruptRows(r, c, 1, map[int]bool{5: true, 8: true})
		h.insts[1].StartRows(rows)
		h.insts[1].SetBivariates(bivars)
		w.RunToQuiescence()
		any := false
		for i := 2; i <= c.N; i++ {
			if h.outs[i] != nil {
				any = true
			}
		}
		if !any {
			continue
		}
		// All 7 honest parties must output (strong commitment).
		h.checkCommitment(t, 1, c.N-1)
	}
}

func TestCorruptDealerStrongCommitmentAsync(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		c := cfg8()
		w := proto.NewWorld(proto.WorldOpts{
			Cfg: c, Network: proto.Async, Seed: seed, Corrupt: []int{1},
		})
		h := newHarness(w, 1, 1, seed)
		r := rand.New(rand.NewPCG(seed, 8))
		rows, bivars := corruptRows(r, c, 1, map[int]bool{3: true})
		h.insts[1].StartRows(rows)
		h.insts[1].SetBivariates(bivars)
		w.RunToQuiescence()
		any := false
		for i := 2; i <= c.N; i++ {
			if h.outs[i] != nil {
				any = true
			}
		}
		if !any {
			continue
		}
		h.checkCommitment(t, 1, c.N-1)
	}
}

func TestCorruptDealerLateDistribution(t *testing.T) {
	// A corrupt dealer that distributes (consistent) rows but far too
	// late: the regular path must not accept; the fallback (n,ta)-star
	// path should still commit a polynomial eventually, or no one
	// outputs. Either way the commitment structure must hold.
	c := cfg8()
	ctrl := adversary.NewController().Set(2, adversary.DelayMatching(
		func(inst string) bool { return inst == "vss" }, 100*c.Delta))
	w := proto.NewWorld(proto.WorldOpts{
		Cfg: c, Network: proto.Sync, Seed: 5, Corrupt: []int{2}, Interceptor: ctrl,
	})
	h := newHarness(w, 2, 1, 5)
	r := rand.New(rand.NewPCG(5, 9))
	qs := randPolys(r, 1, c.Ts)
	h.insts[2].Start(qs)
	w.RunToQuiescence()
	any := false
	for i := 1; i <= c.N; i++ {
		if !w.IsCorrupt(i) && h.outs[i] != nil {
			any = true
		}
	}
	if any {
		committed := h.checkCommitment(t, 1, c.N-1)
		// With consistent-but-late rows the committed polynomial is q.
		if !committed[0].Equal(qs[0]) {
			t.Fatalf("committed polynomial differs from dealt one")
		}
	}
}

func TestStragglerGapSync(t *testing.T) {
	// Theorem 4.16: with a corrupt dealer in sync, output times differ
	// by at most 2Δ across honest parties (when outputs happen after
	// TVSS), or all land at TVSS.
	for seed := uint64(0); seed < 3; seed++ {
		c := cfg8()
		w := proto.NewWorld(proto.WorldOpts{
			Cfg: c, Network: proto.Sync, Seed: seed, Corrupt: []int{1},
		})
		h := newHarness(w, 1, 1, seed)
		r := rand.New(rand.NewPCG(seed, 10))
		rows, bivars := corruptRows(r, c, 1, map[int]bool{7: true})
		h.insts[1].StartRows(rows)
		h.insts[1].SetBivariates(bivars)
		w.RunToQuiescence()
		var minT, maxT sim.Time
		count := 0
		for i := 2; i <= c.N; i++ {
			if h.outs[i] == nil {
				continue
			}
			count++
			if minT == 0 || h.outAt[i] < minT {
				minT = h.outAt[i]
			}
			if h.outAt[i] > maxT {
				maxT = h.outAt[i]
			}
		}
		if count == 0 {
			continue
		}
		if maxT-minT > 2*c.Delta {
			t.Fatalf("seed %d: straggler gap %d > 2Δ (min %d max %d)", seed, maxT-minT, minT, maxT)
		}
	}
}

func TestDealerEquivocatingRowsAsync(t *testing.T) {
	// Corrupt dealer + async: hands different bivariate rows to two
	// halves. Strong commitment: if anyone outputs, everyone outputs on
	// one committed polynomial.
	for seed := uint64(0); seed < 3; seed++ {
		c := cfg8()
		w := proto.NewWorld(proto.WorldOpts{
			Cfg: c, Network: proto.Async, Seed: seed, Corrupt: []int{4},
		})
		h := newHarness(w, 4, 1, seed)
		r := rand.New(rand.NewPCG(seed, 11))
		rowsA, bivars := corruptRows(r, c, 1, nil)
		rowsB, _ := corruptRows(r, c, 1, nil)
		mixed := make([][]poly.Poly, c.N)
		for i := 0; i < c.N; i++ {
			if i%2 == 0 {
				mixed[i] = rowsA[i]
			} else {
				mixed[i] = rowsB[i]
			}
		}
		h.insts[4].StartRows(mixed)
		h.insts[4].SetBivariates(bivars)
		w.RunToQuiescence()
		any := false
		for i := 1; i <= c.N; i++ {
			if !w.IsCorrupt(i) && h.outs[i] != nil {
				any = true
			}
		}
		if any {
			h.checkCommitment(t, 1, c.N-1)
		}
	}
}

// TestLateJoinerBuffersDealerShare covers delayed participation (the
// proto package's buffered replay): party 2 builds its instance only
// after the dealer's share reached it, so the share replays inside New.
// Every party, the late one included, must still output its share.
func TestLateJoinerBuffersDealerShare(t *testing.T) {
	c := cfg5()
	w := proto.NewWorld(proto.WorldOpts{Cfg: c, Network: proto.Sync, Seed: 1})
	coin := aba.DefaultCoin(1)
	insts := make([]*VSS, c.N+1)
	outs := make([][]field.Element, c.N+1)
	build := func(i int) {
		insts[i] = New(w.Runtimes[i], "vss", 1, 1, c, coin, 0, func(s []field.Element) { outs[i] = s })
	}
	for _, i := range []int{1, 3, 4, 5} {
		build(i)
	}
	qs := randPolys(rand.New(rand.NewPCG(1, 7)), 1, c.Ts)
	insts[1].Start(qs)
	w.RunUntil(c.Delta)
	build(2)
	w.RunToQuiescence()
	for i := 1; i <= c.N; i++ {
		if outs[i] == nil || outs[i][0] != qs[0].Eval(poly.Alpha(i)) {
			t.Fatalf("party %d: share %v, want q(α_%d)", i, outs[i], i)
		}
	}
}
