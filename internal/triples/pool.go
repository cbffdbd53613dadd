package triples

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/aba"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
)

// ErrPoolExhausted is the sentinel wrapped by every Reserve failure: the
// pool holds fewer unreserved triples than the request. It is a typed,
// recoverable condition — the caller refills the pool (Fill) and
// retries; nothing about the party's World is damaged.
var ErrPoolExhausted = errors.New("triples: pool exhausted")

// ExhaustedError reports a failed reservation with its accounting, and
// matches ErrPoolExhausted under errors.Is.
type ExhaustedError struct {
	// Need is the requested triple count, Have the unreserved triples
	// available at the time of the request.
	Need, Have int
	// Pending is the triple count an in-flight Fill will add when it
	// completes (0 = no fill in flight). It distinguishes "empty — the
	// caller must Fill" from "refilling — the caller should let the
	// batch land and retry".
	Pending int
}

func (e *ExhaustedError) Error() string {
	if e.Pending > 0 {
		return fmt.Sprintf("triples: pool exhausted: need %d triples, have %d, refill of %d in flight (retry once it lands)",
			e.Need, e.Have, e.Pending)
	}
	return fmt.Sprintf("triples: pool exhausted: need %d triples, have %d (refill with Fill)", e.Need, e.Have)
}

// Unwrap lets errors.Is(err, ErrPoolExhausted) succeed.
func (e *ExhaustedError) Unwrap() error { return ErrPoolExhausted }

// PoolStats is the pool's cumulative reservation/consume accounting,
// JSON-tagged so engine stats and checkpoint inspection can report pool
// depth without reaching into internals.
type PoolStats struct {
	// Batches is the number of ΠPreProcessing fills spawned so far.
	Batches int `json:"batches"`
	// Generated counts every triple a completed fill produced;
	// Reserved counts triples handed out through Reserve (net of
	// releases); Available = Generated - Reserved.
	Generated int `json:"generated"`
	Reserved  int `json:"reserved"`
	Available int `json:"available"`
	// Filling is the triple count of the in-flight fill batch (0 = no
	// fill in flight).
	Filling int `json:"filling"`
}

// Pool is one party's budgeted multiplication-triple store: a
// ΠPreProcessing front-end decoupled from any single circuit's cM.
//
// Where Preprocessing generates exactly the triples one evaluation
// consumes, a Pool is filled by *budget* — each Fill spawns one
// ΠPreProcessing batch in its own instance namespace ("<inst>/b<k>"),
// rounded up to whole extraction batches so nothing Fig 9 produces is
// discarded — and drained by *reservation*: an evaluation reserves the
// cM triples it needs and consumes them, and the next evaluation
// reserves the following cM, until the pool is exhausted
// (ErrPoolExhausted) and a refill batch tops it up. All parties of a
// World drive their pools through the same deterministic sequence of
// fills and reservations, so slot k of every party's pool holds that
// party's share of the same ts-shared triple.
type Pool struct {
	rt   *proto.Runtime
	inst string
	cfg  proto.Config
	coin aba.CoinSource

	batches int
	filling *Preprocessing
	// fillPending is the triple count the in-flight fill will add (0
	// when filling == nil). Kept separately because a restored pool
	// records that a fill was in flight (see PoolState.FillPending)
	// without holding a live Preprocessing.
	fillPending int

	avail []Triple
	// seqs[k] is the generation sequence number of avail[k]. The pool
	// hands triples out strictly in generation order, and Release
	// reinserts at the reservation's original offset, so seqs (and
	// therefore avail) is always sorted ascending. Without the ordering,
	// two overlapping epochs releasing out of order would permute the
	// pool against generation order and break bit-identical replay.
	seqs      []int64
	nextSeq   int64
	generated int
	reserved  int
}

// NewPool creates an empty pool rooted at instance namespace inst.
func NewPool(rt *proto.Runtime, inst string, cfg proto.Config, coin aba.CoinSource) *Pool {
	return &Pool{rt: rt, inst: inst, cfg: cfg, coin: coin}
}

// trace emits a pool event through the owning runtime's tracer. inst
// carries the batch namespace for fill events and is "" elsewhere; a
// and b are the kind-specific slots documented on the obs kinds.
func (p *Pool) trace(kind obs.Kind, inst string, a, b int) {
	if tr := p.rt.Tracer(); tr != nil {
		tr.Emit(obs.Event{
			Kind: kind, Tick: int64(p.rt.Now()), Party: p.rt.ID(),
			Inst: inst, A: int64(a), B: int64(b),
		})
	}
}

// BatchSize returns the number of triples one Fill(budget) batch
// actually generates: budget rounded up to whole ΠTripExt extractions
// (L·(d+1-ts), Fig 9/10 geometry), so no extracted triple is wasted.
func BatchSize(cfg proto.Config, budget int) int {
	_, yield, l := ExtractParams(cfg, budget)
	return l * yield
}

// Fill spawns one budgeted ΠPreProcessing batch anchored at start and
// returns the number of triples it will add (BatchSize(cfg, budget)).
// Every party must call Fill with the same budget at the same
// structural time; when the batch's protocol completes, the new triples
// are appended to the pool and onDone (optional) fires with the batch
// yield. launch=false registers the batch instance without starting
// this party's dealer contribution (a party the adversary silenced
// from the start still receives and processes the others' traffic). A
// second Fill may not start while one is in flight.
func (p *Pool) Fill(budget int, start sim.Time, launch bool, onDone func(got int)) (int, error) {
	if budget < 1 {
		return 0, fmt.Errorf("triples: pool fill budget must be >= 1, have %d", budget)
	}
	if p.filling != nil {
		return 0, fmt.Errorf("triples: pool %q already has a fill in flight", p.inst)
	}
	cM := BatchSize(p.cfg, budget)
	inst := p.NextBatch()
	p.batches++
	p.trace(obs.KPoolFill, inst, cM, len(p.avail))
	p.fillPending = cM
	p.filling = NewPreprocessing(p.rt, inst, cM, p.cfg, p.coin, start, func(ts []Triple) {
		p.filling = nil
		p.fillPending = 0
		p.avail = append(p.avail, ts...)
		for range ts {
			p.seqs = append(p.seqs, p.nextSeq)
			p.nextSeq++
		}
		p.generated += len(ts)
		p.trace(obs.KPoolFillDone, inst, len(ts), len(p.avail))
		if onDone != nil {
			onDone(len(ts))
		}
	})
	if launch {
		// Launch the dealer contribution at the structural anchor, not
		// at call time: a refill batch is requested mid-session, but the
		// synchronous sub-protocols assume sends begin at start.
		pp := p.filling
		if start > p.rt.Now() {
			p.rt.At(start, func() { pp.Start() })
		} else {
			pp.Start()
		}
	}
	return cM, nil
}

// NextBatch returns the instance namespace the next Fill's batch runs
// in ("<inst>/b<k>"). The owner retires a batch's namespace
// (Runtime.DropPrefix) once the batch has landed — the engine does so
// when the last honest party's batch lands — but never the pool's own
// namespace, which every later batch lives under.
func (p *Pool) NextBatch() string { return proto.Join(p.inst, fmt.Sprintf("b%d", p.batches)) }

// Filling reports whether a fill batch is still in flight.
func (p *Pool) Filling() bool { return p.filling != nil }

// Available returns the number of unreserved triples.
func (p *Pool) Available() int { return len(p.avail) }

// Stats returns the cumulative accounting.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Batches:   p.batches,
		Generated: p.generated,
		Reserved:  p.reserved,
		Available: len(p.avail),
		Filling:   p.fillPending,
	}
}

// Reserve hands out the next k triples in generation order. On
// exhaustion it returns an *ExhaustedError (errors.Is-matching
// ErrPoolExhausted) and leaves the pool untouched: the caller can Fill
// and retry. k = 0 is a valid empty reservation (a linear circuit).
func (p *Pool) Reserve(k int) (*Reservation, error) {
	if k < 0 {
		return nil, fmt.Errorf("triples: reserve of %d triples", k)
	}
	if k > len(p.avail) {
		p.trace(obs.KPoolExhaust, "", k, len(p.avail))
		return nil, &ExhaustedError{Need: k, Have: len(p.avail), Pending: p.fillPending}
	}
	r := &Reservation{pool: p, trips: p.avail[:k:k], seqs: p.seqs[:k:k]}
	p.avail = p.avail[k:]
	p.seqs = p.seqs[k:]
	p.reserved += k
	p.trace(obs.KPoolReserve, "", k, len(p.avail))
	return r, nil
}

// Reservation is a claim on a contiguous run of pool triples, handed to
// exactly one evaluation. Triples returns the shares; Release returns
// an unconsumed reservation to the pool at its original generation
// offset (the error path where a sibling party's reservation failed and
// the evaluation never started).
type Reservation struct {
	pool     *Pool
	trips    []Triple
	seqs     []int64
	released bool
}

// Count returns the number of reserved triples.
func (r *Reservation) Count() int { return len(r.trips) }

// Triples returns this party's shares of the reserved triples, in
// generation order.
func (r *Reservation) Triples() []Triple { return r.trips }

// Release puts the reservation back into the pool at its original
// generation offset, undoing Reserve. Reinsertion is by sequence
// number, not at the pool front: overlapping epochs may release out of
// order, and a front-prepend would permute the pool against generation
// order, silently diverging a replay of the same call sequence.
// Releasing twice is a no-op.
func (r *Reservation) Release() {
	if r.released || len(r.trips) == 0 {
		r.released = true
		return
	}
	r.released = true
	p := r.pool
	// The reservation's seqs are a contiguous run no live pool entry
	// falls inside (Reserve takes prefixes; releases restore sorted
	// order), so the whole run splices in at one point.
	at := sort.Search(len(p.seqs), func(k int) bool { return p.seqs[k] > r.seqs[0] })
	avail := make([]Triple, 0, len(p.avail)+len(r.trips))
	avail = append(avail, p.avail[:at]...)
	avail = append(avail, r.trips...)
	avail = append(avail, p.avail[at:]...)
	seqs := make([]int64, 0, len(p.seqs)+len(r.seqs))
	seqs = append(seqs, p.seqs[:at]...)
	seqs = append(seqs, r.seqs...)
	seqs = append(seqs, p.seqs[at:]...)
	p.avail, p.seqs = avail, seqs
	p.reserved -= len(r.trips)
	p.trace(obs.KPoolRelease, "", len(r.trips), len(p.avail))
}
