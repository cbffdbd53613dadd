package sim

import (
	"math/rand/v2"
	"testing"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 99)) }

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(10, func() { order = append(order, 2) })
	s.At(5, func() { order = append(order, 1) })
	s.At(10, func() { order = append(order, 3) }) // same time: FIFO by seq
	s.At(20, func() { order = append(order, 4) })
	s.RunToQuiescence()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 20 {
		t.Fatalf("Now = %d, want 20", s.Now())
	}
}

func TestSchedulerNestedEvents(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	s.At(1, func() {
		s.After(4, func() { fired = append(fired, s.Now()) })
	})
	s.RunToQuiescence()
	if len(fired) != 1 || fired[0] != 5 {
		t.Fatalf("nested event fired at %v, want [5]", fired)
	}
	// StepTick drains one tick, including events pushed onto it while it
	// runs, and leaves later ticks queued.
	s = NewScheduler()
	fired = nil
	s.At(3, func() {
		fired = append(fired, s.Now())
		s.After(0, func() { fired = append(fired, s.Now()) })
		s.After(1, func() { fired = append(fired, s.Now()) })
	})
	if !s.StepTick() || len(fired) != 2 || s.Pending() != 1 {
		t.Fatalf("StepTick fired %v with %d pending, want [3 3] with 1", fired, s.Pending())
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i*10), func() { count++ })
	}
	s.RunUntil(50)
	if count != 5 {
		t.Fatalf("ran %d events by t=50, want 5", count)
	}
	if s.Now() != 50 {
		t.Fatalf("Now = %d, want 50", s.Now())
	}
	s.RunToQuiescence()
	if count != 10 {
		t.Fatalf("ran %d events total, want 10", count)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {})
	s.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	s.At(5, func() {})
}

func TestSchedulerLimit(t *testing.T) {
	s := NewScheduler()
	s.Limit = 3
	count := 0
	var loop func()
	loop = func() { count++; s.After(1, loop) }
	s.At(0, loop)
	s.RunToQuiescence()
	if count != 3 {
		t.Fatalf("limit ignored: ran %d events", count)
	}
	// StepTick stops mid-tick at the limit, leaving the rest queued.
	s = NewScheduler()
	s.Limit = 2
	for i := 0; i < 3; i++ {
		s.At(7, func() {})
	}
	if !s.StepTick() || s.Processed() != 2 || s.Pending() != 1 {
		t.Fatalf("StepTick under Limit 2: processed %d, %d pending, want 2 and 1", s.Processed(), s.Pending())
	}
}

type capture struct {
	got []Envelope
}

func (c *capture) Dispatch(env Envelope) { c.got = append(c.got, env) }

func TestSyncPolicyBound(t *testing.T) {
	p := SyncPolicy{Delta: 10}
	r := rng(1)
	for i := 0; i < 1000; i++ {
		d := p.Delay(r, 1, 2, 0)
		if d < 1 || d >= 10 {
			t.Fatalf("sync delay %d outside [1, Δ)", d)
		}
	}
	if d := p.Delay(r, 3, 3, 0); d != 1 {
		t.Fatalf("loopback delay = %d, want 1", d)
	}
}

func TestAsyncPolicyFiniteAndUnbounded(t *testing.T) {
	p := AsyncPolicy{Delta: 10}
	r := rng(2)
	sawBeyondDelta := false
	for i := 0; i < 2000; i++ {
		d := p.Delay(r, 1, 2, 0)
		if d < 1 {
			t.Fatalf("async delay %d < 1", d)
		}
		if d > 10 {
			sawBeyondDelta = true
		}
	}
	if !sawBeyondDelta {
		t.Fatal("async policy never exceeded Δ; not modelling asynchrony")
	}
}

func TestStarvePolicy(t *testing.T) {
	base := SyncPolicy{Delta: 5}
	p := StarvePolicy{
		Base:   base,
		Until:  1000,
		Starve: func(from, to int) bool { return from == 1 && to == 2 },
	}
	r := rng(3)
	if d := p.Delay(r, 1, 2, 0); d <= 1000 {
		t.Fatalf("starved link delivered at +%d, want beyond 1000", d)
	}
	if d := p.Delay(r, 2, 1, 0); d > 5 {
		t.Fatalf("unstarved link delayed %d", d)
	}
	// After the horizon the base policy applies.
	if d := p.Delay(r, 1, 2, 2000); d > 5 {
		t.Fatalf("post-horizon delay %d", d)
	}
}

func TestNetworkDelivery(t *testing.T) {
	s := NewScheduler()
	nw := NewNetwork(3, s, SyncPolicy{Delta: 10}, rng(4))
	c2 := &capture{}
	nw.Attach(2, c2)
	nw.Send(Envelope{From: 1, To: 2, Inst: "x", Type: 7, Body: []byte{1, 2, 3}})
	s.RunToQuiescence()
	if len(c2.got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(c2.got))
	}
	got := c2.got[0]
	if got.From != 1 || got.Type != 7 || string(got.Body) != "\x01\x02\x03" {
		t.Fatalf("wrong envelope: %+v", got)
	}
	m := nw.Metrics()
	if m.Honest.Messages != 1 {
		t.Fatalf("metrics messages = %d, want 1", m.Honest.Messages)
	}
	wantBytes := uint64(3 + 1 + 6)
	if m.Honest.Bytes != wantBytes {
		t.Fatalf("metrics bytes = %d, want %d", m.Honest.Bytes, wantBytes)
	}
}

type dropAll struct{}

func (dropAll) Intercept(_ Time, _ Envelope) []Delivery { return nil }

func TestNetworkInterceptorAppliesOnlyToCorrupt(t *testing.T) {
	s := NewScheduler()
	nw := NewNetwork(3, s, SyncPolicy{Delta: 10}, rng(5))
	c3 := &capture{}
	nw.Attach(3, c3)
	nw.SetCorrupt([]int{1}, dropAll{})
	nw.Send(Envelope{From: 1, To: 3, Inst: "x"})
	nw.Send(Envelope{From: 2, To: 3, Inst: "x"})
	s.RunToQuiescence()
	if len(c3.got) != 1 || c3.got[0].From != 2 {
		t.Fatalf("interceptor misapplied: got %+v", c3.got)
	}
	if !nw.IsCorrupt(1) || nw.IsCorrupt(2) {
		t.Fatal("corrupt set wrong")
	}
	if got := nw.CorruptSet(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("CorruptSet = %v", got)
	}
}

type duplicator struct{}

func (duplicator) Intercept(_ Time, env Envelope) []Delivery {
	return []Delivery{{Env: env}, {Env: env, DelayExtra: 100}}
}

func TestNetworkInterceptorDuplication(t *testing.T) {
	s := NewScheduler()
	nw := NewNetwork(2, s, SyncPolicy{Delta: 5}, rng(6))
	c2 := &capture{}
	nw.Attach(2, c2)
	nw.SetCorrupt([]int{1}, duplicator{})
	nw.Send(Envelope{From: 1, To: 2, Inst: "x"})
	s.RunToQuiescence()
	if len(c2.got) != 2 {
		t.Fatalf("duplicated delivery count = %d, want 2", len(c2.got))
	}
	if s.Now() <= 100 {
		t.Fatalf("extra delay not applied; finished at %d", s.Now())
	}
}

func TestMetricsByFamily(t *testing.T) {
	m := NewMetrics(4)
	m.Record(Envelope{From: 1, To: 2, Inst: "vss/3/wps/1", Body: make([]byte, 10)}, false, 3)
	m.Record(Envelope{From: 1, To: 2, Inst: "ba/7", Body: make([]byte, 5)}, false, 7)
	m.Record(Envelope{From: 2, To: 1, Inst: "vss/9", Body: make([]byte, 2)}, true, 5)
	if m.Honest.Messages != 2 || m.Corrupt.Messages != 1 {
		t.Fatalf("honest/corrupt split wrong: %+v", m)
	}
	if m.ByFamily["vss"].Messages != 1 || m.ByFamily["ba"].Messages != 1 {
		t.Fatalf("family breakdown wrong: %v", m.ByFamily)
	}
	if m.String() == "" {
		t.Fatal("String should render")
	}
}

func TestTopLabel(t *testing.T) {
	if got := TopLabel("vss/3/wps"); got != "vss" {
		t.Fatalf("TopLabel = %q", got)
	}
	if got := TopLabel("plain"); got != "plain" {
		t.Fatalf("TopLabel = %q", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := NewScheduler()
		nw := NewNetwork(4, s, AsyncPolicy{Delta: 10}, rng(42))
		c := &capture{}
		var times []Time
		nw.Attach(2, DispatcherFunc(func(env Envelope) {
			c.Dispatch(env)
			times = append(times, s.Now())
		}))
		for i := 0; i < 50; i++ {
			nw.Send(Envelope{From: 1, To: 2, Inst: "x", Body: []byte{byte(i)}})
		}
		s.RunToQuiescence()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 50 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// DispatcherFunc adapts a function to Dispatcher for tests.
type DispatcherFunc func(Envelope)

func (f DispatcherFunc) Dispatch(env Envelope) { f(env) }

func TestBurstPolicyAvoidsOutages(t *testing.T) {
	// Down=98 leaves only a 2-tick live window: the release jitter must
	// not wrap the delivery into the next window's outage prefix.
	for _, down := range []Time{30, 98} {
		r := rng(4)
		p := BurstPolicy{Base: SyncPolicy{Delta: 10}, Period: 100, Down: down}
		for now := Time(0); now < 500; now += 7 {
			d := p.Delay(r, 1, 2, now)
			if d < 1 {
				t.Fatalf("down=%d: non-positive delay %d at t=%d", down, d, now)
			}
			if phase := (now + d) % 100; phase < down {
				t.Fatalf("down=%d: delivery at t=%d lands at phase %d, inside the outage", down, now+d, phase)
			}
		}
	}
}

func TestBurstPolicyZeroDownIsTransparent(t *testing.T) {
	base := SyncPolicy{Delta: 10}
	p := BurstPolicy{Base: base, Period: 100, Down: 0}
	ra, rb := rng(9), rng(9)
	for now := Time(0); now < 200; now += 13 {
		if got, want := p.Delay(ra, 1, 2, now), base.Delay(rb, 1, 2, now); got != want {
			t.Fatalf("t=%d: burst with Down=0 changed delay %d -> %d", now, want, got)
		}
	}
}
