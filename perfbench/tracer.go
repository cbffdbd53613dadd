package main

import (
	"strings"
	"time"

	"repro/internal/obs"
)

// Modules are the protocol layers host time and traffic are attributed
// to. A delivery belongs to the leaf of its instance path (the last
// component that is not a plain number); a timer head carries no
// instance and counts as modTimer. modOther collects leaves outside the
// named set, so the coverage check sees any that appear.
const (
	modSBA = iota
	modAcast
	modABA
	modWPS
	modVSS
	modRecon
	modEngine
	modTimer
	modOther
	numMods
)

// moduleNames are the metric prefixes of the named modules (modOther is
// never reported).
var moduleNames = [numMods - 1]string{"sba", "acast", "aba", "wps", "vss", "recon", "engine", "timer"}

// Phases split deliveries by instance-path prefix: mpc/e<k>/in is the
// input ΠACS, pool/b<k> the ΠPreProcessing batches, and the rest of an
// epoch (mpc/e<k> itself, mpc/e<k>/lay, mpc/e<k>/out) the online phase.
const (
	phInput = iota
	phPreprocess
	phOnline
	phNone
	numPhases
)

var phaseNames = [phNone]string{"input", "preprocess", "online"}

// class is the cached classification of one instance path.
type class struct{ mod, phase uint8 }

// classify maps a delivered instance path to its module and phase.
func classify(inst string) class {
	return class{mod: moduleOf(inst), phase: phaseOf(inst)}
}

func moduleOf(inst string) uint8 {
	end := len(inst)
	for end > 0 {
		start := end - 1
		for start >= 0 && inst[start] != '/' {
			start--
		}
		leaf := inst[start+1 : end]
		if !isNumber(leaf) {
			switch leaf {
			case "sba":
				return modSBA
			case "acast", "late", "star":
				// consist's per-pair late reports (c/late/<i>/<j>) and its
				// star broadcast (c/star) are Acast instances.
				return modAcast
			case "aba":
				return modABA
			case "wps":
				return modWPS
			case "vss":
				return modVSS
			case "rec", "g":
				return modRecon
			case "out":
				return modEngine
			}
			if start == 3 && inst[:4] == "mpc/" && isEpoch(leaf) {
				// The evaluator itself, registered at mpc/e<k>
				// (termination "ready" traffic).
				return modEngine
			}
			return modOther
		}
		end = start
	}
	return modOther
}

func phaseOf(inst string) uint8 {
	if strings.HasPrefix(inst, "pool/b") {
		return phPreprocess
	}
	if !strings.HasPrefix(inst, "mpc/e") {
		return phNone
	}
	i := 5
	for i < len(inst) && inst[i] >= '0' && inst[i] <= '9' {
		i++
	}
	if i == 5 {
		return phNone
	}
	rest := inst[i:]
	switch {
	case rest == "", rest == "/out", strings.HasPrefix(rest, "/out/"), rest == "/lay", strings.HasPrefix(rest, "/lay/"):
		return phOnline
	case rest == "/in", strings.HasPrefix(rest, "/in/"):
		return phInput
	}
	return phNone
}

func isNumber(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func isEpoch(s string) bool { return len(s) > 1 && s[0] == 'e' && isNumber(s[1:]) }

// acc accumulates attributed host time and traffic over one window.
type acc struct {
	selfNs     [numMods]int64
	deliveries [numMods]uint64
	bytes      [numMods]uint64
	phaseNs    [numPhases]int64
	phaseDel   [numPhases]uint64
	phaseBytes [numPhases]uint64
	timers     uint64
}

// idle marks host time that belongs to no module: the client's own
// work between engine calls.
const idle = -1

// maxCached bounds the path cache: epoch paths never recur once their
// evaluation retires, so the cache is simply emptied when it is full.
const maxCached = 1 << 14

// layerTracer is the benchmark's obs.Tracer. It folds the event stream
// online into fixed counters (nothing is retained per event) and
// attributes host time by heads: the interval from one KDeliver/KTimer
// head to the next is the first head's module's self time. Engine
// lifecycle events switch attribution to the engine module, and the
// client marks its own calls with enter/leave so time between them is
// attributed to nobody.
//
// Two windows are kept: session (set-up and the measured loop, for the
// amortized phase figures) and loop (the measured loop only). The
// tracer must only be installed on an engine with Workers == 0: under
// the worker pool the heads are emitted at the merge barrier, not when
// their handlers run.
type layerTracer struct {
	corrupt map[int]bool
	cache   map[string]class
	base    time.Time

	last     int64
	cur      int
	curPhase uint8
	inLoop   bool
	// loopNs is the wall-clock length of the loop window.
	loopNs int64

	session, loop acc

	// Loop-window counters.
	depthHist         []uint64
	instances         uint64
	instancesDropped  uint64
	refills           int
	exhaust           int
	poolMin           int64
	depthSum          int64
	depthTick, depthV int64
	depthFirst        int64
	depthSeen         bool

	// Session-window fill durations in virtual ticks.
	fillTicks, fills int64
}

func newLayerTracer(corrupt []int) *layerTracer {
	t := &layerTracer{
		corrupt: map[int]bool{},
		cache:   make(map[string]class),
		base:    time.Now(),
		cur:     idle,
		poolMin: -1,
	}
	for _, p := range corrupt {
		t.corrupt[p] = true
	}
	return t
}

func (t *layerTracer) now() int64 { return int64(time.Since(t.base)) }

// attribute closes the running interval and starts a new one charged
// to mod/phase.
func (t *layerTracer) attribute(mod int, phase uint8) {
	now := t.now()
	if t.cur != idle {
		d := now - t.last
		t.session.selfNs[t.cur] += d
		t.session.phaseNs[t.curPhase] += d
		if t.inLoop {
			t.loop.selfNs[t.cur] += d
			t.loop.phaseNs[t.curPhase] += d
		}
	}
	t.last = now
	t.cur = mod
	t.curPhase = phase
}

// enter marks the start of a client call into the engine; leave its
// return. Both are no-ops on a nil tracer.
func (t *layerTracer) enter() {
	if t != nil {
		t.attribute(modEngine, phNone)
	}
}

func (t *layerTracer) leave() {
	if t != nil {
		t.attribute(idle, phNone)
	}
}

func (t *layerTracer) startLoop() {
	if t != nil {
		t.attribute(idle, phNone)
		t.inLoop = true
		t.loopNs = -t.last
	}
}

func (t *layerTracer) endLoop() {
	if t != nil {
		t.attribute(idle, phNone)
		t.inLoop = false
		t.loopNs += t.last
	}
}

// Emit implements obs.Tracer.
func (t *layerTracer) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KDeliver:
		c, ok := t.cache[ev.Inst]
		if !ok {
			if len(t.cache) >= maxCached {
				clear(t.cache)
			}
			c = classify(ev.Inst)
			t.cache[ev.Inst] = c
		}
		t.attribute(int(c.mod), c.phase)
		t.count(&t.session, c, ev.Bytes)
		if t.inLoop {
			t.count(&t.loop, c, ev.Bytes)
		}
	case obs.KTimer:
		t.attribute(modTimer, phNone)
		t.session.timers++
		if t.inLoop {
			t.loop.timers++
		}
	case obs.KTick:
		if t.inLoop {
			d := int(ev.A)
			if d >= len(t.depthHist) {
				t.depthHist = append(t.depthHist, make([]uint64, d+1-len(t.depthHist))...)
			}
			t.depthHist[d]++
		}
	case obs.KInstance:
		if t.inLoop {
			t.instances++
		}
	case obs.KInstanceDrop:
		t.attribute(modEngine, phNone)
		if t.inLoop {
			t.instancesDropped += uint64(ev.A)
		}
	case obs.KPhaseBegin:
		t.attribute(modEngine, phNone)
		if t.inLoop && ev.Inst == "refill" {
			t.refills++
		}
	case obs.KPhaseEnd:
		t.attribute(modEngine, phNone)
		if ev.Inst == "preprocess" || ev.Inst == "refill" {
			t.fillTicks += ev.A
			t.fills++
		}
	case obs.KEpochRetire:
		t.attribute(modEngine, phNone)
	case obs.KPipelineDepth:
		t.attribute(modEngine, phNone)
		if t.inLoop {
			if t.depthSeen {
				t.depthSum += t.depthV * (ev.Tick - t.depthTick)
			} else {
				t.depthSeen = true
				t.depthFirst = ev.Tick
			}
			t.depthTick, t.depthV = ev.Tick, ev.A
		}
	case obs.KPoolReserve:
		if t.inLoop && !t.corrupt[ev.Party] && (t.poolMin < 0 || ev.B < t.poolMin) {
			t.poolMin = ev.B
		}
	case obs.KPoolExhaust:
		if t.inLoop && !t.corrupt[ev.Party] {
			t.exhaust++
		}
	}
}

func (t *layerTracer) count(a *acc, c class, bytes int64) {
	a.deliveries[c.mod]++
	a.bytes[c.mod] += uint64(bytes)
	a.phaseDel[c.phase]++
	a.phaseBytes[c.phase] += uint64(bytes)
}

// queueDepthP50 is the median queue depth at tick entry over the loop.
func (t *layerTracer) queueDepthP50() float64 {
	var n uint64
	for _, c := range t.depthHist {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := (n + 1) / 2
	for d, c := range t.depthHist {
		if rank <= c {
			return float64(d)
		}
		rank -= c
	}
	return 0
}

// inflightMean is the virtual-time-weighted mean pipeline occupancy
// between the loop's first and last KPipelineDepth points (0 on the
// sequential path, which emits none).
func (t *layerTracer) inflightMean() float64 {
	if span := t.depthTick - t.depthFirst; span > 0 {
		return float64(t.depthSum) / float64(span)
	}
	return 0
}
