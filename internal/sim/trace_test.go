package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// nopDispatcher swallows deliveries without touching envelopes.
type nopDispatcher struct{}

func (nopDispatcher) Dispatch(Envelope) {}

// TestNilTracerZeroAllocDeliverPath is the hot-path guard required by
// the acceptance criteria: with no tracer installed, the full
// send→schedule→deliver path must not allocate per message in steady
// state (lane recycling + family memoisation make the loop
// allocation-free after warm-up).
func TestNilTracerZeroAllocDeliverPath(t *testing.T) {
	s := NewScheduler()
	nw := NewNetwork(1, s, SyncPolicy{Delta: 4}, rng(7))
	nw.Attach(1, nopDispatcher{})
	env := Envelope{From: 1, To: 1, Inst: "acs/vote", Type: 3, Body: make([]byte, 32)}
	send := func() {
		nw.Send(env)
		for s.Step() {
		}
	}
	for i := 0; i < 64; i++ {
		send() // warm up lane/spare recycling and the metrics family memo
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("nil-tracer deliver path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestTracedDeliverEmitsEvents checks the scheduler/network emission
// sites: send, tick, deliver, timer, with correct latency accounting.
func TestTracedDeliverEmitsEvents(t *testing.T) {
	s := NewScheduler()
	nw := NewNetwork(2, s, SyncPolicy{Delta: 8}, rng(7))
	nw.Attach(1, nopDispatcher{})
	nw.Attach(2, nopDispatcher{})
	col := obs.NewCollector()
	s.SetTracer(col)
	nw.SetTracer(col)

	fired := false
	s.At(2, func() { fired = true })
	nw.Send(Envelope{From: 1, To: 2, Inst: "acs/vote", Type: 3, Body: make([]byte, 10)})
	s.RunToQuiescence()
	if !fired {
		t.Fatal("timer did not fire")
	}

	var send, deliver, timer, tick *obs.Event
	for i := range col.Events() {
		ev := &col.Events()[i]
		switch ev.Kind {
		case obs.KSend:
			send = ev
		case obs.KDeliver:
			deliver = ev
		case obs.KTimer:
			timer = ev
		case obs.KTick:
			tick = ev
		}
	}
	if send == nil || deliver == nil || timer == nil || tick == nil {
		t.Fatalf("missing event kinds; got %+v", col.Events())
	}
	if send.Party != 1 || send.Peer != 2 || send.Inst != "acs/vote" || send.Type != 3 {
		t.Fatalf("send event = %+v", send)
	}
	if deliver.Party != 2 || deliver.Peer != 1 {
		t.Fatalf("deliver event = %+v", deliver)
	}
	// The send was at tick 0, so latency == delivery tick == scheduled
	// delay.
	if deliver.A != deliver.Tick || deliver.A != send.A {
		t.Fatalf("latency accounting wrong: deliver=%+v send=%+v", deliver, send)
	}
	if deliver.Bytes != int64((Envelope{Inst: "acs/vote", Body: make([]byte, 10)}).WireSize()) {
		t.Fatalf("deliver bytes = %d", deliver.Bytes)
	}
}

// TestTracedOffIsBitIdentical pins that installing a tracer does not
// perturb the simulation: same seed, same delivery schedule.
func TestTracedOffIsBitIdentical(t *testing.T) {
	run := func(trace bool) []Time {
		s := NewScheduler()
		nw := NewNetwork(3, s, AsyncPolicy{Delta: 10}, rng(42))
		if trace {
			col := obs.NewCollector()
			s.SetTracer(col)
			nw.SetTracer(col)
		}
		var times []Time
		nw.Attach(1, nopDispatcher{})
		nw.Attach(2, DispatcherFunc(func(env Envelope) { times = append(times, s.Now()) }))
		nw.Attach(3, nopDispatcher{})
		for i := 0; i < 20; i++ {
			nw.Send(Envelope{From: 1, To: 2, Inst: "x", Body: make([]byte, 4)})
			nw.Send(Envelope{From: 3, To: 2, Inst: "y", Body: make([]byte, 4)})
		}
		s.RunToQuiescence()
		return times
	}
	off, on := run(false), run(true)
	if len(off) != len(on) {
		t.Fatalf("delivery counts differ: %d vs %d", len(off), len(on))
	}
	for i := range off {
		if off[i] != on[i] {
			t.Fatalf("delivery %d at %d traced vs %d untraced", i, on[i], off[i])
		}
	}
}

func TestCountsSub(t *testing.T) {
	a := Counts{Messages: 10, Bytes: 500}
	if !(Counts{}).IsZero() || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestMetricsSnapshotSub(t *testing.T) {
	m := NewMetrics(4)
	m.Record(Envelope{From: 1, To: 2, Inst: "vss/1", Body: make([]byte, 10)}, false, 5)
	pre := m.Snapshot()
	if pre.N != 4 || pre.LastTick != 5 || pre.Honest.Messages != 1 {
		t.Fatalf("snapshot = %+v", pre)
	}
	m.Record(Envelope{From: 1, To: 2, Inst: "vss/1", Body: make([]byte, 10)}, false, 9)
	m.Record(Envelope{From: 1, To: 2, Inst: "ba/1", Body: make([]byte, 6)}, false, 11)
	m.Record(Envelope{From: 3, To: 2, Inst: "vss/1", Body: make([]byte, 2)}, true, 12)
	// A snapshot is a copy: advancing the live counter must not move it.
	if pre.Honest.Messages != 1 {
		t.Fatalf("snapshot aliased live counters: %+v", pre)
	}
}

func TestMetricsMarshalJSONAndString(t *testing.T) {
	m := NewMetrics(3)
	m.Record(Envelope{From: 1, To: 2, Inst: "acs/1", Body: make([]byte, 8)}, false, 17)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N != 3 || back.LastTick != 17 || back.Honest.Messages != 1 {
		t.Fatalf("marshalled snapshot = %+v", back)
	}
	if back.ByFamily["acs"].Messages != 1 {
		t.Fatalf("marshalled families = %+v", back.ByFamily)
	}
	str := m.String()
	if !strings.Contains(str, "n=3 parties") || !strings.Contains(str, "last send at tick 17") {
		t.Fatalf("String missing run context:\n%s", str)
	}
}
