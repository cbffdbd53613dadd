// Command perfbench is the repository's served-evaluation benchmark: it
// drives mpc.Engine through its public API on one named workload,
// checks every evaluation, and prints one JSON result line.
//
//	perfbench -workload serve-sync -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// repeats the run with its own obs.Tracer installed and a CPU profile
// taken, and prints the per-layer metrics. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"

	"repro/mpc"
)

// unixEvals is the length of the stream prefix the serve-sync traced
// run also serves over unix sockets.
const unixEvals = 6

// heldOutSeed is reserved for confirming a claimed gain on a seed not
// used while the change was written.
const heldOutSeed = 7919

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "nominal run length in seconds (sizes the request stream)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	sockDir := flag.String("sockdir", ".", "directory for the unix sockets of the traced serve-sync run")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	ctx := map[string]any{
		"workload": w.name, "seed": *seed, "evalsPerPass": streamLen(*seconds), "trace": *trace,
		"goVersion": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpuModel": cpuModel(), "commit": commit(), "heldOutSeed": heldOutSeed,
	}
	line, err := json.Marshal(map[string]any{"context": ctx})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))

	r, err := run(w, *seed, streamLen(*seconds), *trace == 1, *sockDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "%-40s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	line, err = json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.Correct || r.Failed > 0 {
		os.Exit(1)
	}
}

// run executes one workload run. An error means the run could not
// complete; a failed evaluation or cross-check is reported in the
// result (Correct false, Failed > 0).
func run(w workload, seed uint64, evals int, trace bool, sockDir string) (*result, error) {
	r := &result{Correct: true, Metrics: map[string]metric{}}
	var faults []error
	if !trace {
		var ps []*pass
		for i := range passes {
			seed := passSeed(seed, i)
			p, err := runPass(w, seed, makeStream(seed, evals), passOpts{})
			if err != nil {
				return nil, err
			}
			r.Attempted += evals
			r.Failed += p.failed
			ps = append(ps, p)
		}
		if err := endToEnd(r.Metrics, ps); err != nil {
			return nil, err
		}
	} else {
		reqs := makeStream(seed, evals)
		plain, err := runPass(w, seed, reqs, passOpts{profile: true})
		if err != nil {
			return nil, err
		}
		repeat, err := runPass(w, seed, reqs, passOpts{})
		if err != nil {
			return nil, err
		}
		tr := newLayerTracer(w.garble)
		traced, err := runPass(w, seed, reqs, passOpts{tracer: tr})
		if err != nil {
			return nil, err
		}
		r.Attempted += 3 * evals
		r.Failed += plain.failed + repeat.failed + traced.failed
		if plain.ex != repeat.ex {
			faults = append(faults, fmt.Errorf("same-seed repeat differs: %+v, first run %+v", repeat.ex, plain.ex))
		}
		if plain.ex != traced.ex {
			faults = append(faults, fmt.Errorf("tracing perturbed the run: untraced %+v, traced %+v", plain.ex, traced.ex))
		}
		faults = append(faults, reconcile(tr, traced)...)
		var wire *pass
		if w.name == "serve-sync" {
			prefix := reqs[:min(unixEvals, len(reqs))]
			sim, sock, err := unixCrossCheck(w, seed, prefix, sockDir)
			if err != nil {
				return nil, err
			}
			r.Attempted += 2 * len(prefix)
			r.Failed += sim.failed + sock.failed
			if sim.ex != sock.ex {
				faults = append(faults, fmt.Errorf("unix sockets changed the exact figures: %+v, simulator %+v", sock.ex, sim.ex))
			}
			wire = sock
		}
		perLayer(r.Metrics, tr, plain, traced, wire)
	}
	for _, f := range faults {
		fmt.Fprintln(os.Stderr, "perfbench:", f)
		r.Correct = false
	}
	return r, nil
}

// unixCrossCheck serves a stream prefix on the simulator and over unix
// sockets, whose exact figures must be identical; the socket pass
// supplies the transport metrics.
func unixCrossCheck(w workload, seed uint64, reqs []request, sockDir string) (sim, sock *pass, err error) {
	sim, err = runPass(w, seed, reqs, passOpts{})
	if err != nil {
		return nil, nil, err
	}
	dir, err := socketDir(sockDir)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	sock, err = runPass(w, seed, reqs, passOpts{transport: &mpc.TransportSpec{Kind: "unix", Dir: dir}})
	if err != nil {
		return nil, nil, err
	}
	return sim, sock, nil
}

// socketDir makes a fresh directory under parent for the parties'
// sockets, as a path relative to the working directory where possible:
// unix socket paths are limited to about a hundred bytes.
func socketDir(parent string) (string, error) {
	dir, err := os.MkdirTemp(parent, "sock-")
	if err != nil {
		return "", fmt.Errorf("socket dir: %w", err)
	}
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, dir); err == nil && len(rel) < len(dir) {
			return rel, nil
		}
	}
	return dir, nil
}

// reconcile checks the traced run's attribution against its own
// totals.
func reconcile(tr *layerTracer, traced *pass) []error {
	var errs []error
	s := tr.session
	var phases, deliveries uint64
	for p := range phNone {
		phases += s.phaseDel[p]
	}
	for _, d := range s.deliveries {
		deliveries += d
	}
	// Every scheduler event is one head: a delivery or a timer.
	if events := traced.lifetimeEvents; deliveries+s.timers != events || phases != deliveries {
		errs = append(errs, fmt.Errorf("phase deliveries %d, all deliveries %d, timers %d, events %d: phases must sum to events minus timers",
			phases, deliveries, s.timers, events))
	}
	var covered int64
	for m := range modOther {
		covered += tr.loop.selfNs[m]
	}
	if float64(covered) < 0.9*float64(tr.loopNs) {
		errs = append(errs, fmt.Errorf("module self time covers %.1f%% of the traced loop, want >= 90%%", 100*float64(covered)/float64(tr.loopNs)))
	}
	return errs
}

// endToEnd fills the end-to-end metrics from a run's untraced passes.
// Host figures measured per pass are combined by their median, so one
// pass that ran through a noisy stretch of the host does not move them;
// p90 and the exact figures pool the evaluations of all passes.
func endToEnd(m map[string]metric, ps []*pass) error {
	var lat, vticks, p50, rate, setup, growth, live []float64
	var evals, failed int
	var msgs, bytes uint64
	var span int64
	for _, p := range ps {
		lat = append(lat, p.latMs...)
		vticks = append(vticks, p.vticks...)
		p50 = append(p50, median(p.latMs))
		rate = append(rate, float64(p.ex.Evals)/p.loopS)
		setup = append(setup, p.setupS)
		live = append(live, float64(p.heapLive)/(1<<20))
		growth = append(growth, (float64(p.heapLive)-float64(p.heapBefore))/1024/float64(p.ex.Evals))
		evals += p.ex.Evals
		failed += p.failed
		msgs += p.ex.Msgs
		bytes += p.ex.Bytes
		span += p.ex.Span
	}
	p90, ok := tailQuantile(lat, 0.9)
	if !ok {
		return fmt.Errorf("%d latency samples leave fewer than %d beyond p90", len(lat), minBeyond)
	}
	n := float64(evals)
	m["setup_s"] = metric{median(setup), "s"}
	m["eval_ms_p50"] = metric{median(p50), "ms"}
	m["eval_ms_p90"] = metric{p90, "ms"}
	m["evals_per_s"] = metric{median(rate), "1/s"}
	m["eval_vticks_p50"] = metric{median(vticks), "ticks"}
	m["vticks_per_eval"] = metric{float64(span) / n, "ticks"}
	m["msgs_per_eval"] = metric{float64(msgs) / n, "msgs"}
	m["bytes_per_eval"] = metric{float64(bytes) / n, "B"}
	m["ok_frac"] = metric{float64(evals-failed) / n, "ratio"}
	m["heap_live_mb"] = metric{median(live), "MB"}
	m["heap_growth_kb_per_eval"] = metric{median(growth), "KB"}
	m["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	return nil
}

// perLayer fills the per-layer metrics of a traced run. wire is the
// unix-socket leg (nil on workloads without one).
func perLayer(m map[string]metric, tr *layerTracer, plain, traced, wire *pass) {
	n := float64(traced.ex.Evals)
	for i, name := range moduleNames {
		m[name+".host_ms_per_eval"] = metric{float64(tr.loop.selfNs[i]) / 1e6 / n, "ms"}
		m[name+".deliveries_per_eval"] = metric{float64(tr.loop.deliveries[i]) / n, "count"}
		m[name+".bytes_per_eval"] = metric{float64(tr.loop.bytes[i]) / n, "B"}
	}
	for i, name := range phaseNames {
		m["phase."+name+".host_ms_per_eval"] = metric{float64(tr.session.phaseNs[i]) / 1e6 / n, "ms"}
		m["phase."+name+".deliveries_per_eval"] = metric{float64(tr.session.phaseDel[i]) / n, "count"}
		m["phase."+name+".bytes_per_eval"] = metric{float64(tr.session.phaseBytes[i]) / n, "B"}
	}
	m["sim.events_per_eval"] = metric{float64(traced.ex.Events) / n, "count"}
	m["sim.timers_per_eval"] = metric{float64(tr.loop.timers) / n, "count"}
	m["sim.queue_depth_p50"] = metric{tr.queueDepthP50(), "count"}
	m["proto.instances_per_eval"] = metric{float64(tr.instances) / n, "count"}
	m["proto.instances_dropped_per_eval"] = metric{float64(tr.instancesDropped) / n, "count"}
	m["triples.fill_ms_per_triple"] = metric{plain.ppMs / float64(plain.generated), "ms"}
	m["triples.refills"] = metric{float64(tr.refills), "count"}
	m["triples.pool_min_available"] = metric{float64(max(tr.poolMin, 0)), "count"}
	m["triples.exhaust_events"] = metric{float64(tr.exhaust), "count"}
	m["triples.fill_vticks"] = metric{float64(tr.fillTicks) / float64(max(tr.fills, 1)), "ticks"}
	m["mpc.inflight_mean"] = metric{tr.inflightMean(), "count"}
	m["mpc.submit_ms_p50"] = metric{median(plain.submitMs), "ms"}
	m["mpc.wait_ms_p50"] = metric{median(plain.waitMs), "ms"}
	var frames, bytes float64
	if wire != nil {
		frames = float64(wire.wireFrames) / float64(wire.ex.Evals)
		bytes = float64(wire.wireBytes) / float64(wire.ex.Evals)
	}
	m["transport.wire_frames_per_eval"] = metric{frames, "count"}
	m["transport.wire_bytes_per_eval"] = metric{bytes, "B"}
	m["alloc.objects_per_eval"] = metric{float64(plain.mallocs) / n, "count"}
	m["alloc.mb_per_eval"] = metric{float64(plain.allocBytes) / (1 << 20) / n, "MB"}
	m["gc.cycles_per_eval"] = metric{float64(plain.gcCycles) / n, "count"}
	for _, b := range cpuBuckets {
		m["cpu_share."+b] = metric{plain.cpu[b], "ratio"}
	}
	m["obs.trace_overhead_x"] = metric{median(traced.latMs) / median(plain.latMs), "x"}
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, as the go
// command stamped it ("unknown" outside a git checkout).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+dirty"
			}
		}
	}
	return rev + modified
}
