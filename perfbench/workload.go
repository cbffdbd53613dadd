package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"time"

	"repro/circuit"
	"repro/field"
	"repro/mpc"
)

// The smallest configuration at the paper's 3ts+ta<n boundary.
const (
	parties = 5
	ts      = 1
	ta      = 1
	delta   = 10
)

// workload is one named serving configuration.
type workload struct {
	name    string
	network mpc.Network
	// garble lists the Byzantine parties (garbled traffic), ≤ ta.
	garble []int
	// depth is the number of requests kept outstanding through
	// EvaluateAsync/Wait; 0 drives the sequential Evaluate path.
	depth int
	// initial, when > 0, is the deliberately small initial Preprocess
	// budget; 0 sizes the initial Preprocess to the whole stream.
	initial, lowWater, refillBudget int
}

var workloads = []workload{
	{name: "serve-sync", network: mpc.Sync},
	{name: "serve-async-byz", network: mpc.Async, garble: []int{parties}},
	// Refill sizing: a 30-triple start with a 24-triple low-water mark
	// and 60-triple refills lands two or three background ΠPreProcessing
	// batches during a 60-request pass (~3 triples per request). Evaluations in flight while a batch runs share the
	// serving thread with it; with smaller, more frequent refills most
	// evaluations overlapped one, and the latency median sat on the
	// cliff between the two modes.
	{name: "pipeline-refill", network: mpc.Sync, depth: 4, initial: 30, lowWater: 24, refillBudget: 60},
}

// A run makes passes passes, each over its own request stream on a
// freshly set-up engine. Distinct streams matter for the tail: a slow
// request repeated in every pass would fill p90 with copies of itself.
// Four passes let a per-pass median shrug off one that ran through a
// noisy stretch of a shared host.
const passes = 4

// passSeed derives pass i's workload seed; pass 0 uses the run's seed.
func passSeed(seed uint64, i int) uint64 { return seed ^ uint64(i)*0x9e3779b97f4a7c15 }

// minEvals pooled latency samples give eval_ms_p90 ten samples beyond
// it.
const minEvals = 100

// evalsPerSecond sizes a pass's stream from the run length: a pass
// serves evalsPerSecond × seconds requests, never so few that the
// pooled samples fall below minEvals.
const evalsPerSecond = 4

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// streamLen is the number of requests in one pass of a run of the
// given length.
func streamLen(seconds int) int {
	return max((minEvals+passes-1)/passes, evalsPerSecond*seconds)
}

func (w workload) config(seed uint64) mpc.Config {
	return mpc.Config{
		N: parties, Ts: ts, Ta: ta, Delta: delta, Network: w.network, Seed: seed,
		RefillLowWater: w.lowWater, RefillBudget: w.refillBudget,
	}
}

func (w workload) adversary() *mpc.Adversary {
	if len(w.garble) == 0 {
		return nil
	}
	return &mpc.Adversary{Garble: w.garble}
}

// request is one evaluation of the stream.
type request struct {
	circ   *circuit.Circuit
	inputs []field.Element
}

// makeStream derives k requests from seed. Each block of five holds
// every gadget once in a seeded order, so the circuit mix is the same
// on every seed and only order and inputs vary.
func makeStream(seed uint64, k int) []request {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	elem := func() field.Element { return field.New(r.Uint64N(field.Modulus)) }
	fixed := []*circuit.Circuit{
		circuit.Sum(parties),
		circuit.Product(parties),
		circuit.SumAndVariancePieces(parties),
		circuit.SetMembership(parties),
		nil, // PolyEval, with fresh public coefficients per request
	}
	out := make([]request, 0, k)
	for len(out) < k {
		for _, g := range r.Perm(len(fixed)) {
			if len(out) == k {
				break
			}
			inputs := make([]field.Element, parties)
			for i := range inputs {
				inputs[i] = elem()
			}
			c := fixed[g]
			switch {
			case c == nil:
				c = circuit.PolyEval(parties, []field.Element{elem(), elem(), elem(), elem()})
			case g == 3 && r.IntN(2) == 0:
				// Half the membership queries hit, so both outputs occur.
				inputs[0] = inputs[1+r.IntN(parties-1)]
			}
			out = append(out, request{circ: c, inputs: inputs})
		}
	}
	return out
}

func triplesNeeded(reqs []request) int {
	n := 0
	for _, rq := range reqs {
		n += rq.circ.MulCount
	}
	return n
}

// exact holds the figures that are a pure function of the workload,
// seed and stream length: protocol traffic, virtual time, events and a
// fingerprint of every output, common subset and virtual latency.
type exact struct {
	Evals       int    `json:"evals"`
	Msgs        uint64 `json:"msgs"`
	Bytes       uint64 `json:"bytes"`
	Events      uint64 `json:"events"`
	VticksP50   int64  `json:"vticksP50"`
	Span        int64  `json:"span"`
	Fingerprint uint64 `json:"fingerprint"`
}

// passOpts selects how one engine is set up and driven.
type passOpts struct {
	tracer    *layerTracer
	transport *mpc.TransportSpec
	profile   bool
}

// pass is the outcome of one engine's set-up and measured loop.
type pass struct {
	// Host times are read from the serving thread's CPU clock (cpuNow).
	setupS, ppMs            float64
	latMs, submitMs, waitMs []float64
	loopS                   float64

	generated int
	ex        exact
	vticks    []float64 // per evaluation, start to last honest termination
	failed    int
	// lifetimeEvents counts the engine's events from set-up on.
	lifetimeEvents uint64

	heapLive, heapBefore          uint64
	mallocs, allocBytes, gcCycles uint64
	wireFrames, wireBytes         uint64
	cpu                           map[string]float64
}

// runPass sets up a fresh engine and drives it through reqs in a
// closed loop, checking every result.
func runPass(w workload, seed uint64, reqs []request, o passOpts) (*pass, error) {
	if o.tracer != nil && w.config(seed).Workers != 0 {
		return nil, fmt.Errorf("%s: the layer tracer needs Workers == 0", w.name)
	}
	budget := w.initial
	if budget == 0 {
		budget = triplesNeeded(reqs)
	}
	opts := mpc.EngineOptions{Adversary: w.adversary(), Transport: o.transport}
	if o.tracer != nil {
		opts.Tracer = o.tracer
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := &pass{}
	// Return freed memory first: allocating into the spans an earlier
	// pass's engine left behind made a timed phase about a quarter slower.
	debug.FreeOSMemory()
	t0 := cpuNow()
	eng, err := mpc.NewEngineOpts(w.config(seed), opts)
	if err != nil {
		return nil, fmt.Errorf("new engine: %w", err)
	}
	defer eng.Close()
	t1 := cpuNow()
	out.generated, err = eng.Preprocess(budget)
	t2 := cpuNow()
	if err != nil {
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	out.setupS = (t2 - t0).Seconds()
	out.ppMs = ms(t2 - t1)

	var m0, m1, m2 runtime.MemStats
	debug.FreeOSMemory()
	runtime.ReadMemStats(&m0)
	s0, wire0 := eng.Stats(), eng.WireStats()
	var prof bytes.Buffer
	if o.profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	o.tracer.startLoop()
	loop0 := cpuNow()
	var results []*mpc.Result
	var errs []error
	if w.depth == 0 {
		results, errs = out.sequential(eng, reqs, o.tracer)
	} else {
		results, errs = out.pipelined(eng, reqs, w.depth, o.tracer)
	}
	out.loopS = (cpuNow() - loop0).Seconds()
	o.tracer.endLoop()
	if o.profile {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	// Land a refill still in flight, so its traffic is counted.
	if err := eng.Flush(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m2)
	s1, wire1 := eng.Stats(), eng.WireStats()

	out.heapBefore, out.heapLive = m0.HeapAlloc, m2.HeapAlloc
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	out.gcCycles = uint64(m1.NumGC - m0.NumGC)
	out.wireFrames = wire1.FramesOut - wire0.FramesOut
	out.wireBytes = wire1.BytesOut - wire0.BytesOut
	if o.profile {
		shares, err := cpuShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
		out.cpu = shares
	}

	out.ex = exact{
		Evals:  len(reqs),
		Msgs:   s1.EvalMessages + s1.PreprocessMessages - s0.EvalMessages - s0.PreprocessMessages,
		Bytes:  s1.EvalBytes + s1.PreprocessBytes - s0.EvalBytes - s0.PreprocessBytes,
		Events: s1.Events - s0.Events,
	}
	out.lifetimeEvents = s1.Events
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:]) // a hash.Hash Write never fails
	}
	first, last := int64(-1), int64(0)
	for i, rq := range reqs {
		res, err := results[i], errs[i]
		if err == nil {
			err = w.check(rq, res)
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "%s: request %d (%d muls): %v\n", w.name, i, rq.circ.MulCount, err)
			continue
		}
		end := w.lastHonest(res)
		out.vticks = append(out.vticks, float64(end-res.StartedAt))
		if first < 0 || res.StartedAt < first {
			first = res.StartedAt
		}
		last = max(last, end)
		for _, v := range res.Outputs {
			put(uint64(v))
		}
		for _, p := range res.CS {
			put(uint64(p))
		}
		put(uint64(end - res.StartedAt))
	}
	out.ex.VticksP50 = int64(median(out.vticks))
	out.ex.Span = last - max(first, 0)
	out.ex.Fingerprint = h.Sum64()
	return out, nil
}

// sequential serves reqs one Evaluate at a time.
func (p *pass) sequential(eng *mpc.Engine, reqs []request, tr *layerTracer) ([]*mpc.Result, []error) {
	results := make([]*mpc.Result, len(reqs))
	errs := make([]error, len(reqs))
	for i, rq := range reqs {
		tr.enter()
		t := cpuNow()
		results[i], errs[i] = eng.Evaluate(rq.circ, rq.inputs)
		d := cpuNow() - t
		tr.leave()
		if errs[i] == nil {
			p.latMs = append(p.latMs, ms(d))
		}
	}
	return results, errs
}

// pipelined serves reqs with depth requests outstanding: a new request
// is submitted only when the oldest outstanding one has replied.
func (p *pass) pipelined(eng *mpc.Engine, reqs []request, depth int, tr *layerTracer) ([]*mpc.Result, []error) {
	type outstanding struct {
		p   *mpc.PendingEval
		idx int
		t   time.Duration
	}
	results := make([]*mpc.Result, len(reqs))
	errs := make([]error, len(reqs))
	q := make([]outstanding, 0, depth)
	next := 0
	for next < len(reqs) || len(q) > 0 {
		if next < len(reqs) && len(q) < depth {
			tr.enter()
			t := cpuNow()
			pe, err := eng.EvaluateAsync(reqs[next].circ, reqs[next].inputs)
			d := cpuNow() - t
			tr.leave()
			p.submitMs = append(p.submitMs, ms(d))
			if err != nil {
				errs[next] = err
			} else {
				q = append(q, outstanding{pe, next, t})
			}
			next++
			continue
		}
		o := q[0]
		q = q[1:]
		tr.enter()
		tw := cpuNow()
		results[o.idx], errs[o.idx] = o.p.Wait()
		now := cpuNow()
		tr.leave()
		p.waitMs = append(p.waitMs, ms(now-tw))
		if errs[o.idx] == nil {
			p.latMs = append(p.latMs, ms(now-o.t))
		}
	}
	return results, errs
}

// check is the per-evaluation oracle.
func (w workload) check(rq request, res *mpc.Result) error {
	want, err := mpc.ExpectedOutputs(rq.circ, rq.inputs, res.CS)
	if err != nil {
		return fmt.Errorf("expected outputs: %w", err)
	}
	if !slices.Equal(res.Outputs, want) {
		return fmt.Errorf("outputs %v, want %v on CS %v", res.Outputs, want, res.CS)
	}
	if len(res.CS) < parties-ts {
		return fmt.Errorf("|CS| = %d < n - ts = %d", len(res.CS), parties-ts)
	}
	if !res.AllHonestTerminated(w.adversary()) {
		return fmt.Errorf("an honest party did not terminate: %v", res.TerminatedAt)
	}
	if w.network == mpc.Sync {
		if end := w.lastHonest(res); end > res.Deadline {
			return fmt.Errorf("terminated at tick %d after the synchronous deadline %d", end, res.Deadline)
		}
	}
	return nil
}

// lastHonest is the virtual time of the evaluation's last honest
// termination.
func (w workload) lastHonest(res *mpc.Result) int64 {
	end := res.StartedAt
	for i := 1; i < len(res.TerminatedAt); i++ {
		if !slices.Contains(w.garble, i) {
			end = max(end, res.TerminatedAt[i])
		}
	}
	return end
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
