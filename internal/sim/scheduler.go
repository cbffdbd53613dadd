// Package sim provides the deterministic discrete-event simulation
// substrate on which every protocol in this repository runs: a
// virtual-time scheduler, message-delivery policies modelling the
// paper's synchronous and asynchronous networks, an adversarial
// message-interception layer, and communication metrics.
//
// Virtual time is measured in abstract ticks; the synchronous network
// bound Δ is a configurable number of ticks. Using virtual time makes
// the paper's exact termination bounds (e.g. T_BC = 3Δ + T_SBA)
// machine-checkable, which a wall-clock implementation could only
// approximate.
package sim

import (
	"fmt"

	"repro/internal/obs"
)

// Time is a point in virtual time, in ticks.
type Time int64

// Event kinds. Timer events carry a callback; delivery events carry the
// envelope and target inline, so the per-message hot path allocates no
// closure and the scheduler dispatches directly.
const (
	kindTimer uint8 = iota
	kindDeliver
)

// DeliverSink receives typed delivery events at their scheduled tick.
// The in-memory Network is the reference implementation; a real
// transport backend implements it to rendezvous the delivery with the
// physical frame. tag is the opaque value the sink passed to
// AfterDeliver (the Network ignores it; real transports use it to match
// the scheduled delivery to its frame on the socket).
type DeliverSink interface {
	DispatchDelivered(env Envelope, tag uint64)
}

// event is a scheduled occurrence: either a timer callback or a typed
// message delivery.
type event struct {
	at   Time
	seq  uint64 // FIFO tie-break within a class; keeps runs deterministic
	prio uint8  // same-tick ordering class: lower runs first
	kind uint8
	fn   func()      // kindTimer
	env  Envelope    // kindDeliver
	sink DeliverSink // kindDeliver
	tag  uint64      // kindDeliver: opaque sink cookie
	sent Time        // kindDeliver: send time, for traced delivery latency
}

// Priority classes for same-tick ordering.
const (
	// PrioDeliver is the default class: message deliveries and ordinary
	// protocol timers.
	PrioDeliver uint8 = 0
	// PrioProcess runs after every same-tick delivery/timer: protocol
	// steps that must observe all outputs landing at exactly this tick
	// (e.g. "at time T, based on the broadcasts received by time T...").
	PrioProcess uint8 = 1
)

// window is the calendar-queue span in ticks: events scheduled within
// window ticks of the queue base go into O(1) per-tick buckets; farther
// events wait in the overflow heap and migrate as the base advances.
// Power of two so the slot index is a mask.
const window = 1 << 11

// lane is one priority class of one tick's bucket: a FIFO slice with a
// consumed-prefix head. Since seq increases monotonically with every
// push, append order equals seq order within a lane.
type lane struct {
	evs  []event
	head int
}

func (l *lane) empty() bool { return l.head >= len(l.evs) }

// bucket holds one tick's pending events, split by priority class.
type bucket struct {
	lanes [2]lane
}

func (b *bucket) empty() bool { return b.lanes[0].empty() && b.lanes[1].empty() }

// Scheduler is a single-threaded discrete-event loop. All protocol code
// runs inside scheduler callbacks; there is no concurrency, so runs are
// fully deterministic given the seeds.
//
// Events execute in strict (time, priority, push-sequence) order,
// implemented as a calendar queue: a ring of per-tick FIFO buckets
// covering [base, base+window) plus an overflow heap for events farther
// out. Push and pop are O(1) on the hot path (protocol delays are short
// relative to the window), and bucket storage is reused across ring
// wraps, so steady-state scheduling does not allocate.
type Scheduler struct {
	now  Time
	seq  uint64
	base Time // ring covers ticks [base, base+window)
	ring [window]bucket
	// ringCount and overflow partition the pending events: everything in
	// the ring is strictly before base+window; everything in the overflow
	// heap is at base+window or later.
	ringCount int
	overflow  overflowHeap
	// spare recycles drained bucket storage: a run rarely wraps the
	// ring, so without it every tick's bucket would grow from nil.
	spare [][]event
	// processed counts executed events, as a runaway-loop guard.
	processed uint64
	// Limit aborts Run after this many events (0 = unlimited).
	Limit uint64
	// tracer receives scheduler trace events; nil (the default) means
	// tracing is off and every emission site reduces to one branch.
	tracer obs.Tracer
}

// grab appends e to the lane, drawing recycled storage for the first
// event of an empty lane.
func (s *Scheduler) grab(l *lane, e event) {
	if l.evs == nil && len(s.spare) > 0 {
		l.evs = s.spare[len(s.spare)-1]
		s.spare = s.spare[:len(s.spare)-1]
	}
	l.evs = append(l.evs, e)
}

// release returns a drained lane's storage to the spare pool.
func (s *Scheduler) release(l *lane) {
	if l.evs == nil {
		l.head = 0
		return
	}
	clear(l.evs) // release Body/closure references for the GC
	s.spare = append(s.spare, l.evs[:0])
	l.evs = nil
	l.head = 0
}

// NewScheduler returns an empty scheduler at time 0.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// SetTracer installs tr as the scheduler's trace sink (nil disables
// tracing). Tracing must be configured before the run starts; switching
// tracers mid-run would make the event stream misleading.
func (s *Scheduler) SetTracer(tr obs.Tracer) { s.tracer = tr }

// Tracer returns the installed trace sink (nil when tracing is off).
func (s *Scheduler) Tracer() obs.Tracer { return s.tracer }

// Processed returns the number of events executed so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// push enqueues e, which must not be in the past.
func (s *Scheduler) push(e event) {
	if e.at < s.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: %d < %d", e.at, s.now))
	}
	if e.prio > PrioProcess {
		// The ring has exactly two lanes; an undefined class would order
		// inconsistently between the ring and the overflow heap.
		panic(fmt.Sprintf("sim: undefined priority class %d", e.prio))
	}
	s.seq++
	e.seq = s.seq
	if e.at-s.base < window {
		s.grab(&s.ring[e.at&(window-1)].lanes[e.prio], e)
		s.ringCount++
		return
	}
	s.overflow.push(e)
}

// At schedules fn at absolute time t, which must not be in the past.
func (s *Scheduler) At(t Time, fn func()) { s.AtPrio(t, PrioDeliver, fn) }

// AtPrio schedules fn at absolute time t in the given priority class.
func (s *Scheduler) AtPrio(t Time, prio uint8, fn func()) {
	s.push(event{at: t, prio: prio, kind: kindTimer, fn: fn})
}

// After schedules fn d ticks from now; d must be non-negative.
func (s *Scheduler) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	s.At(s.now+d, fn)
}

// AfterDeliver schedules the typed delivery of env through sink d ticks
// from now, without allocating a callback closure. The scheduler emits
// the KDeliver trace event and hands (env, tag) to the sink at the
// scheduled tick; delivery events order exactly like same-priority
// timers (strict (time, priority, push-sequence) order), so a transport
// that schedules through AfterDeliver replays the simulator's event
// order bit-identically.
func (s *Scheduler) AfterDeliver(d Time, sink DeliverSink, tag uint64, env Envelope) {
	s.push(event{at: s.now + d, prio: PrioDeliver, kind: kindDeliver, env: env, sink: sink, tag: tag, sent: s.now})
}

// migrate moves overflow events that now fall inside the ring window
// into their buckets. The heap pops in (at, prio, seq) order, so lane
// FIFO order is preserved.
func (s *Scheduler) migrate() {
	for len(s.overflow) > 0 && s.overflow[0].at-s.base < window {
		e := s.overflow.pop()
		s.grab(&s.ring[e.at&(window-1)].lanes[e.prio], e)
		s.ringCount++
	}
}

// peekTime returns the earliest pending tick without mutating state:
// base may only advance in pop, where now immediately catches up to it,
// otherwise an event pushed between now and an advanced base would land
// in a bucket the ring has already passed.
func (s *Scheduler) peekTime() (Time, bool) {
	if s.ringCount > 0 {
		// All ring events are in [base, base+window), and everything in
		// the overflow heap is later, so the first non-empty bucket from
		// base is the global minimum.
		for t := s.base; ; t++ {
			if !s.ring[t&(window-1)].empty() {
				return t, true
			}
		}
	}
	if len(s.overflow) > 0 {
		return s.overflow[0].at, true
	}
	return 0, false
}

// pop removes and returns the earliest pending event, advancing base to
// its tick (the caller sets now to that tick before running anything).
func (s *Scheduler) pop() event {
	if s.ringCount == 0 {
		if len(s.overflow) == 0 {
			panic("sim: pop from empty scheduler")
		}
		s.base = s.overflow[0].at
		s.migrate()
	}
	for {
		b := &s.ring[s.base&(window-1)]
		if !b.empty() {
			break
		}
		s.release(&b.lanes[0])
		s.release(&b.lanes[1])
		s.base++
		s.migrate()
	}
	b := &s.ring[s.base&(window-1)]
	ln := &b.lanes[0]
	if ln.empty() {
		ln = &b.lanes[1]
	}
	e := ln.evs[ln.head]
	ln.evs[ln.head] = event{} // release references
	ln.head++
	s.ringCount--
	return e
}

// run executes one event, emitting its own trace record
// (KDeliver/KTimer) first when tracing is on.
func (s *Scheduler) run(e event) {
	if e.kind == kindDeliver {
		if s.tracer != nil {
			s.tracer.Emit(obs.Event{
				Kind: obs.KDeliver, Tick: int64(s.now),
				Party: e.env.To, Peer: e.env.From,
				Inst: e.env.Inst, Type: e.env.Type,
				Bytes: int64(e.env.WireSize()),
				A:     int64(s.now - e.sent),
			})
		}
		e.sink.DispatchDelivered(e.env, e.tag)
		return
	}
	if s.tracer != nil {
		s.tracer.Emit(obs.Event{Kind: obs.KTimer, Tick: int64(s.now), A: int64(e.prio)})
	}
	e.fn()
}

// pending returns the number of queued events.
func (s *Scheduler) pending() int { return s.ringCount + len(s.overflow) }

// Step executes the next event. It reports whether an event was run.
func (s *Scheduler) Step() bool {
	if s.pending() == 0 {
		return false
	}
	e := s.pop()
	if s.tracer != nil && e.at != s.now {
		// New tick: report queue depth at entry (pending() was already
		// decremented by pop, so add the event about to run back in).
		s.tracer.Emit(obs.Event{Kind: obs.KTick, Tick: int64(e.at), A: int64(s.pending() + 1)})
	}
	s.now = e.at
	s.processed++
	s.run(e)
	return true
}

// StepTick executes every event of the earliest pending tick — including
// events pushed onto that same tick while it runs — and returns whether
// any event ran. A Limit hit stops mid-tick, leaving the rest queued.
func (s *Scheduler) StepTick() bool {
	t, ok := s.peekTime()
	if !ok {
		return false
	}
	ran := false
	for {
		tt, ok := s.peekTime()
		if !ok || tt != t {
			return ran
		}
		if s.Limit > 0 && s.processed >= s.Limit {
			return ran
		}
		s.Step()
		ran = true
	}
}

// RunUntil processes events until the queue is empty or the next event
// is strictly after the horizon. It returns the number of events run.
func (s *Scheduler) RunUntil(horizon Time) uint64 {
	start := s.processed
	for {
		t, ok := s.peekTime()
		if !ok || t > horizon {
			break
		}
		if s.Limit > 0 && s.processed >= s.Limit {
			break
		}
		s.Step()
	}
	if s.now < horizon {
		s.now = horizon
	}
	return s.processed - start
}

// RunToQuiescence processes events until none remain (or Limit hits).
// It returns the number of events run.
func (s *Scheduler) RunToQuiescence() uint64 {
	start := s.processed
	for s.pending() > 0 {
		if s.Limit > 0 && s.processed >= s.Limit {
			break
		}
		s.Step()
	}
	return s.processed - start
}

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return s.pending() }

// SchedulerState is the scheduler's serializable clock state: the
// virtual time, the push-sequence counter (the FIFO tie-break — two
// runs only replay bit-identically if restored pushes keep numbering
// where the original left off) and the executed-event count (so the
// Limit budget keeps meaning "lifetime events" across a restore).
type SchedulerState struct {
	Now       int64  `json:"now"`
	Seq       uint64 `json:"seq"`
	Processed uint64 `json:"processed"`
}

// Checkpoint captures the clock state. It refuses while events are
// pending: a pending event holds a live closure (or a network
// reference), which cannot be serialized — run to quiescence first.
func (s *Scheduler) Checkpoint() (SchedulerState, error) {
	if n := s.pending(); n > 0 {
		return SchedulerState{}, fmt.Errorf("sim: checkpoint with %d events pending (run to quiescence first)", n)
	}
	return SchedulerState{Now: int64(s.now), Seq: s.seq, Processed: s.processed}, nil
}

// Restore loads a checkpointed clock state into a fresh scheduler,
// which must not have run or queued anything yet. The ring base snaps
// to the restored time, so bucket indexing continues seamlessly.
func (s *Scheduler) Restore(st SchedulerState) error {
	if st.Now < 0 {
		return fmt.Errorf("sim: restore to negative time %d", st.Now)
	}
	if s.pending() > 0 || s.processed > 0 {
		return fmt.Errorf("sim: restore into a used scheduler (%d pending, %d processed)", s.pending(), s.processed)
	}
	s.now = Time(st.Now)
	s.base = Time(st.Now)
	s.seq = st.Seq
	s.processed = st.Processed
	return nil
}

// overflowHeap is a hand-rolled binary min-heap over (at, prio, seq),
// holding events scheduled beyond the calendar window.
type overflowHeap []event

func (h overflowHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}

func (h *overflowHeap) push(e event) {
	*h = append(*h, e)
	a := *h
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (h *overflowHeap) pop() event {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = event{} // release references
	a = a[:n]
	*h = a
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && a.less(l, smallest) {
			smallest = l
		}
		if r < n && a.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		a[i], a[smallest] = a[smallest], a[i]
		i = smallest
	}
	return top
}
