package wps

import (
	"fmt"
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
	insts []*WPS
	outs  [][]field.Element
	outAt []sim.Time
}

func newHarness(w *proto.World, dealer, l int, seed uint64) *harness {
	h := &harness{
		w:     w,
		insts: make([]*WPS, w.Cfg.N+1),
		outs:  make([][]field.Element, w.Cfg.N+1),
		outAt: make([]sim.Time, w.Cfg.N+1),
	}
	coin := aba.DefaultCoin(seed)
	for i := 1; i <= w.Cfg.N; i++ {
		i := i
		h.insts[i] = New(w.Runtimes[i], "wps", dealer, l, w.Cfg, coin, 0, func(s []field.Element) {
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

// checkCommitment verifies the weak/strong commitment structure: honest
// outputs lie on a single degree-ts polynomial per slot, and at least
// minHolders honest parties have output.
func (h *harness) checkCommitment(t *testing.T, l, minHolders int) []poly.Poly {
	t.Helper()
	committed := make([]poly.Poly, l)
	var holders []int
	for i := 1; i <= h.w.Cfg.N; i++ {
		if h.w.IsCorrupt(i) || h.outs[i] == nil {
			continue
		}
		holders = append(holders, i)
		if len(h.outs[i]) != l {
			t.Fatalf("party %d output %d shares, want %d", i, len(h.outs[i]), l)
		}
	}
	if len(holders) < minHolders {
		t.Fatalf("only %d honest holders, want at least %d", len(holders), minHolders)
	}
	ts := h.w.Cfg.Ts
	if len(holders) < ts+1 {
		t.Fatalf("cannot interpolate with %d holders", len(holders))
	}
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
			t.Fatalf("slot %d: committed polynomial degree %d > ts", slot, q.Degree())
		}
		for _, i := range holders {
			if h.outs[i][slot] != q.Eval(poly.Alpha(i)) {
				t.Fatalf("slot %d: party %d share off the committed polynomial", slot, i)
			}
		}
		committed[slot] = q
	}
	return committed
}

func TestHonestDealerSync(t *testing.T) {
	for _, c := range []proto.Config{cfg5(), cfg8()} {
		for seed := uint64(0); seed < 3; seed++ {
			w := proto.NewWorld(proto.WorldOpts{Cfg: c, Network: proto.Sync, Seed: seed})
			const L = 3
			h := newHarness(w, 2, L, seed)
			r := rand.New(rand.NewPCG(seed, 42))
			qs := randPolys(r, L, c.Ts)
			h.insts[2].Start(qs)
			w.RunToQuiescence()
			deadline := Deadline(c)
			for i := 1; i <= c.N; i++ {
				if h.outs[i] == nil {
					t.Fatalf("n=%d seed=%d: party %d no output", c.N, seed, i)
				}
				for l := 0; l < L; l++ {
					if h.outs[i][l] != qs[l].Eval(poly.Alpha(i)) {
						t.Fatalf("n=%d seed=%d: party %d wrong share for poly %d", c.N, seed, i, l)
					}
				}
				// ts-correctness: output at time ≤ TWPS.
				if h.outAt[i] > deadline {
					t.Fatalf("n=%d seed=%d: party %d output at %d > TWPS=%d", c.N, seed, i, h.outAt[i], deadline)
				}
			}
		}
	}
}

func TestHonestDealerAsync(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		c := cfg8()
		w := proto.NewWorld(proto.WorldOpts{Cfg: c, Network: proto.Async, Seed: seed})
		const L = 2
		h := newHarness(w, 1, L, seed)
		r := rand.New(rand.NewPCG(seed, 7))
		qs := randPolys(r, L, c.Ts)
		h.insts[1].Start(qs)
		w.RunToQuiescence()
		for i := 1; i <= c.N; i++ {
			if h.outs[i] == nil {
				t.Fatalf("seed %d: party %d never output (ta-correctness)", seed, i)
			}
			for l := 0; l < L; l++ {
				if h.outs[i][l] != qs[l].Eval(poly.Alpha(i)) {
					t.Fatalf("seed %d: party %d wrong share", seed, i)
				}
			}
		}
	}
}

func TestHonestDealerAsyncWithCorruption(t *testing.T) {
	// ta = 1 corruption under asynchrony; corrupt party garbles all its
	// WPS traffic. Honest parties must still converge on q.
	for seed := uint64(0); seed < 3; seed++ {
		c := cfg8()
		ctrl := adversary.NewController().Set(5, adversary.GarbleMatching(func(string) bool { return true }))
		w := proto.NewWorld(proto.WorldOpts{
			Cfg: c, Network: proto.Async, Seed: seed, Corrupt: []int{5}, Interceptor: ctrl,
		})
		h := newHarness(w, 1, 1, seed)
		r := rand.New(rand.NewPCG(seed, 9))
		qs := randPolys(r, 1, c.Ts)
		h.insts[1].Start(qs)
		w.RunToQuiescence()
		for i := 1; i <= c.N; i++ {
			if w.IsCorrupt(i) {
				continue
			}
			if h.outs[i] == nil || h.outs[i][0] != qs[0].Eval(poly.Alpha(i)) {
				t.Fatalf("seed %d: party %d bad output %v", seed, i, h.outs[i])
			}
		}
	}
}

func TestHonestDealerSyncWithByzantineParties(t *testing.T) {
	// ts = 2 corruptions in sync; corrupt parties send wrong points and
	// bogus NOKs. Honest parties must all get correct shares by TWPS.
	for seed := uint64(0); seed < 3; seed++ {
		c := cfg8()
		ctrl := adversary.NewController().
			Set(4, adversary.GarbleMatching(adversary.InstanceContains("res"))).
			Set(7, adversary.Mutate(adversary.MutateSpec{
				Match: func(env sim.Envelope) bool { return env.Inst == "wps" && env.Type == MsgPoints },
				Rewrite: func(env sim.Envelope) []byte {
					// Flip a byte inside the points payload.
					b := append([]byte(nil), env.Body...)
					if len(b) > 3 {
						b[len(b)-1] ^= 1
					}
					return b
				},
			}))
		w := proto.NewWorld(proto.WorldOpts{
			Cfg: c, Network: proto.Sync, Seed: seed, Corrupt: []int{4, 7}, Interceptor: ctrl,
		})
		h := newHarness(w, 3, 1, seed)
		r := rand.New(rand.NewPCG(seed, 11))
		qs := randPolys(r, 1, c.Ts)
		h.insts[3].Start(qs)
		w.RunToQuiescence()
		deadline := Deadline(c)
		for i := 1; i <= c.N; i++ {
			if w.IsCorrupt(i) {
				continue
			}
			if h.outs[i] == nil || h.outs[i][0] != qs[0].Eval(poly.Alpha(i)) {
				t.Fatalf("seed %d: party %d bad output", seed, i)
			}
			if h.outAt[i] > deadline {
				t.Fatalf("seed %d: party %d late output %d > %d", seed, i, h.outAt[i], deadline)
			}
		}
	}
}

func TestSilentDealerNoOutput(t *testing.T) {
	ctrl := adversary.NewController().Set(2, adversary.Silent())
	w := proto.NewWorld(proto.WorldOpts{
		Cfg: cfg8(), Network: proto.Sync, Seed: 1, Corrupt: []int{2}, Interceptor: ctrl,
	})
	h := newHarness(w, 2, 1, 1)
	r := rand.New(rand.NewPCG(1, 1))
	h.insts[2].Start(randPolys(r, 1, w.Cfg.Ts))
	w.RunToQuiescence()
	for i := 1; i <= w.Cfg.N; i++ {
		if !w.IsCorrupt(i) && h.outs[i] != nil {
			t.Fatalf("party %d computed output from a silent dealer", i)
		}
	}
}

// corruptRows builds a dealer input where the named victims receive
// random garbage rows instead of rows on the bivariate polynomials.
func corruptRows(r *rand.Rand, c proto.Config, l int, victims map[int]bool) ([][]poly.Poly, []*poly.Symmetric, []poly.Poly) {
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
	return rows, bivars, qs
}

func TestCorruptDealerInconsistentRowsSync(t *testing.T) {
	// D (corrupt) hands two parties garbage rows. ts-weak commitment:
	// either no honest output, or ≥ ts+1 honest parties hold shares of
	// a fixed degree-ts polynomial and every honest output lies on it.
	for seed := uint64(0); seed < 4; seed++ {
		c := cfg8()
		w := proto.NewWorld(proto.WorldOpts{
			Cfg: c, Network: proto.Sync, Seed: seed, Corrupt: []int{1},
		})
		h := newHarness(w, 1, 2, seed)
		r := rand.New(rand.NewPCG(seed, 21))
		rows, bivars, _ := corruptRows(r, c, 2, map[int]bool{3: true, 6: true})
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
			continue // "no honest party computes any output" branch
		}
		h.checkCommitment(t, 2, c.Ts+1)
	}
}

func TestCorruptDealerInconsistentRowsAsync(t *testing.T) {
	// ta-strong commitment: under asynchrony, if any honest party
	// outputs, *every* honest party eventually outputs shares of the
	// same polynomial.
	for seed := uint64(0); seed < 4; seed++ {
		c := cfg8()
		w := proto.NewWorld(proto.WorldOpts{
			Cfg: c, Network: proto.Async, Seed: seed, Corrupt: []int{1},
		})
		h := newHarness(w, 1, 1, seed)
		r := rand.New(rand.NewPCG(seed, 22))
		rows, bivars, _ := corruptRows(r, c, 1, map[int]bool{4: true})
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
		// Strong commitment: all honest must output.
		h.checkCommitment(t, 1, c.N-1)
	}
}

func TestPrivacyAdversaryPointCount(t *testing.T) {
	// Structural privacy check (Lemma 4.1): with an honest dealer, the
	// ts corrupt parties learn exactly their own rows plus the points
	// honest parties send them — all of which are determined by the
	// corrupt rows themselves (q_i(α_j) = q_j(α_i)). We verify the
	// latter identity holds for every honest→corrupt point, i.e. the
	// adversary receives nothing beyond its own rows.
	c := cfg8()
	w := proto.NewWorld(proto.WorldOpts{Cfg: c, Network: proto.Sync, Seed: 5, Corrupt: []int{2, 6}})
	h := newHarness(w, 1, 1, 5)
	r := rand.New(rand.NewPCG(5, 5))
	qs := randPolys(r, 1, c.Ts)
	h.insts[1].Start(qs)
	w.RunToQuiescence()
	for _, corrupt := range []int{2, 6} {
		inst := h.insts[corrupt]
		rows := inst.Rows()
		if rows == nil {
			t.Fatal("corrupt party missing rows")
		}
		for from, pts := range inst.havePoints {
			if w.IsCorrupt(from) {
				continue
			}
			if pts[0] != rows[0].Eval(poly.Alpha(from)) {
				t.Fatalf("honest party %d leaked a point not derivable from corrupt rows", from)
			}
		}
	}
}

func TestDeterministicRun(t *testing.T) {
	run := func() string {
		c := cfg5()
		w := proto.NewWorld(proto.WorldOpts{Cfg: c, Network: proto.Async, Seed: 31})
		h := newHarness(w, 1, 1, 31)
		r := rand.New(rand.NewPCG(31, 31))
		h.insts[1].Start(randPolys(r, 1, c.Ts))
		w.RunToQuiescence()
		s := ""
		for i := 1; i <= c.N; i++ {
			s += fmt.Sprintf("%v@%d;", h.outs[i], h.outAt[i])
		}
		return s
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic WPS run:\n%s\n%s", a, b)
	}
}

func TestNonDealerStartPanics(t *testing.T) {
	w := proto.NewWorld(proto.WorldOpts{Cfg: cfg5(), Network: proto.Sync, Seed: 1})
	h := newHarness(w, 1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Start by non-dealer should panic")
		}
	}()
	h.insts[2].Start(randPolys(rand.New(rand.NewPCG(1, 2)), 1, w.Cfg.Ts))
}

// TestLateJoinerBuffersDealerShare covers delayed participation (the
// proto package's buffered replay): party 2 builds its instance only
// after the dealer's rows reached it, so the rows replay inside New.
// Every party, the late one included, must still output its share.
func TestLateJoinerBuffersDealerShare(t *testing.T) {
	c := cfg5()
	w := proto.NewWorld(proto.WorldOpts{Cfg: c, Network: proto.Sync, Seed: 1})
	coin := aba.DefaultCoin(1)
	insts := make([]*WPS, c.N+1)
	outs := make([][]field.Element, c.N+1)
	build := func(i int) {
		insts[i] = New(w.Runtimes[i], "wps", 1, 1, c, coin, 0, func(s []field.Element) { outs[i] = s })
	}
	for _, i := range []int{1, 3, 4, 5} {
		build(i)
	}
	q := poly.Random(rand.New(rand.NewPCG(1, 7)), c.Ts, field.New(42))
	insts[1].Start([]poly.Poly{q})
	w.RunUntil(c.Delta)
	build(2)
	w.RunToQuiescence()
	for i := 1; i <= c.N; i++ {
		if outs[i] == nil || outs[i][0] != q.Eval(poly.Alpha(i)) {
			t.Fatalf("party %d: share %v, want q(α_%d)", i, outs[i], i)
		}
	}
}
