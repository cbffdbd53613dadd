// Command scenario names, validates and batch-runs declarative MPC
// scenarios: JSON manifests describing parties, network, adversary,
// circuit, seed and expected outcome (see docs/scenarios.md).
//
// Subcommands:
//
//	scenario list     [-json]
//	scenario validate [-f file.json] [name ...]
//	scenario run      [-f file.json] [-parallel N] [-json] [-trace] [-trace-out dir] [--all | name ...]
//	scenario sweep    [-seeds A..B] [-parallel N] [-json] [--all | name ...]
//	scenario workload [-f file.json] [-json] [-compare] [-require-savings] [-trace] [-trace-out dir]
//	                  [-checkpoint file] [-resume file] [-stop-after k] [-pipeline n] [--all | name ...]
//	scenario checkpoint [-json] file
//	scenario fuzz     [-trials N] [-seed S] [-parallel N] [-json] [-out dir]
//	scenario fuzz     -crash -trials N [-seed S] [-json]
//	scenario fuzz     -replay counterexample.json [-trace] [-trace-out dir]
//	scenario trace    [-f file.json] [-out chrome.json] [-jsonl events.jsonl] [name]
//	scenario trace    -validate chrome.json
//	scenario deploy   [-f set.json] [-backend sim|unix|tcp] [-json] [-out report.json] [name]
//	scenario serve    [-f set.json] [-backend sim|unix|tcp] [-rounds N] [-json] [name]
//
// Examples:
//
//	scenario run --all -parallel 4
//	scenario deploy deploy-unix-n5
//	scenario deploy -backend sim -out /tmp/sim.json deploy-unix-n5
//	scenario serve -rounds 2 deploy-unix-n5-workload
//	scenario run sync-garble-ts async-starved-links
//	scenario validate -f examples/scenarios/async-starvation.json
//	scenario sweep -seeds 1..16 sync-sum-honest
//	scenario workload --all -require-savings
//	scenario workload workload-amortize-sync -json
//	scenario workload -checkpoint /tmp/wl.ckpt -stop-after 3 workload-amortize-sync
//	scenario checkpoint /tmp/wl.ckpt
//	scenario workload -resume /tmp/wl.ckpt workload-amortize-sync
//	scenario fuzz -trials 200 -seed 1 -out /tmp/ce
//	scenario fuzz -crash -trials 20 -seed 1
//	scenario fuzz -replay /tmp/ce/fuzz-s1-t4-min.json
//	scenario trace -out /tmp/trace.json workload-amortize-sync
//	scenario trace -validate /tmp/trace.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/fuzzer"
	"repro/internal/obs"
	"repro/mpc"
	"repro/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		cmdList(os.Args[2:])
	case "validate":
		cmdValidate(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	case "sweep":
		cmdSweep(os.Args[2:])
	case "workload":
		cmdWorkload(os.Args[2:])
	case "checkpoint":
		cmdCheckpoint(os.Args[2:])
	case "fuzz":
		cmdFuzz(os.Args[2:])
	case "trace":
		cmdTrace(os.Args[2:])
	case "deploy":
		cmdDeploy(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fatal("unknown subcommand %q (want list, validate, run, sweep, workload, checkpoint, fuzz, trace, deploy or serve)", os.Args[1])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: scenario <list|validate|run|sweep|workload|checkpoint|fuzz|trace|deploy|serve> [flags] [--all | name ...]")
	fmt.Fprintln(os.Stderr, "run 'scenario <subcommand> -h' for subcommand flags")
	os.Exit(2)
}

// traceDelta returns the manifest's Δ for trace annotation (the
// engine's default when unset).
func traceDelta(m *scenario.Manifest) int64 {
	if m.Network.Delta != 0 {
		return m.Network.Delta
	}
	return 10
}

// writeTraceFiles exports a collected event stream: Chrome trace JSON
// to chromePath and/or raw JSONL to jsonlPath ("" skips either).
func writeTraceFiles(col *obs.Collector, n int, chromePath, jsonlPath string) {
	write := func(path string, fn func(io.Writer) error) {
		f, err := os.Create(path)
		if err != nil {
			fatal("%v", err)
		}
		if err := fn(f); err != nil {
			f.Close()
			fatal("%s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			fatal("%s: %v", path, err)
		}
	}
	if chromePath != "" {
		write(chromePath, func(w io.Writer) error { return obs.WriteChromeTrace(w, col.Events(), n) })
	}
	if jsonlPath != "" {
		write(jsonlPath, func(w io.Writer) error { return obs.WriteJSONL(w, col.Events()) })
	}
}

// traceOutPaths derives the per-manifest export paths under dir ("" =
// no file export requested).
func traceOutPaths(dir, name string) (chromePath, jsonlPath string) {
	if dir == "" {
		return "", ""
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal("%v", err)
	}
	return filepath.Join(dir, name+".trace.json"), filepath.Join(dir, name+".jsonl")
}

// cmdTrace runs one builtin scenario or workload (or a single-manifest
// file) with tracing on and renders the text timeline summary:
// per-family round-latency histograms, pool-depth timeline, phase
// spans. -out/-jsonl additionally export the trace; -validate instead
// checks an existing Chrome trace file and exits.
func cmdTrace(args []string) {
	fs := flag.NewFlagSet("scenario trace", flag.ExitOnError)
	file := fs.String("f", "", "trace the manifest in a JSON `file` (exactly one) instead of a builtin")
	out := fs.String("out", "", "write Chrome trace-event JSON (Perfetto-loadable) to `file`")
	jsonl := fs.String("jsonl", "", "write the raw event stream as JSONL to `file`")
	validate := fs.String("validate", "", "validate an existing Chrome trace `file` and exit (runs nothing)")
	fs.Parse(args)

	if *validate != "" {
		if *file != "" || *out != "" || *jsonl != "" || fs.NArg() > 0 {
			fatal("-validate takes no other flags or arguments")
		}
		data, err := os.ReadFile(*validate)
		if err != nil {
			fatal("%v", err)
		}
		if err := obs.ValidateChromeTrace(data); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%s: valid Chrome trace\n", *validate)
		return
	}

	var m *scenario.Manifest
	switch {
	case *file != "":
		if fs.NArg() > 0 {
			fatal("-f cannot be combined with a builtin name")
		}
		ms, err := scenario.LoadFile(*file)
		if err != nil {
			fatal("%v", err)
		}
		if len(ms) != 1 {
			fatal("trace runs exactly one manifest; %s holds %d", *file, len(ms))
		}
		m = ms[0]
	case fs.NArg() == 1:
		name := fs.Arg(0)
		var err error
		if m, err = scenario.Lookup(name); err != nil {
			var werr error
			if m, werr = scenario.LookupWorkload(name); werr != nil {
				fatal("no builtin scenario or workload named %q", name)
			}
		}
	default:
		fs.Usage()
		os.Exit(2)
	}

	col := obs.NewCollector()
	pass := true
	if m.Workload != nil {
		rep, err := scenario.RunWorkloadTraced(m, false, col)
		if err != nil {
			fatal("%v", err)
		}
		pass = rep.Pass
		fmt.Printf("workload %s: %d evals, pool %d/%d used\n",
			rep.Name, len(rep.Steps), rep.TriplesConsumed, rep.TriplesGenerated)
	} else {
		rep, err := scenario.RunTraced(m, col)
		if err != nil {
			fatal("%v", err)
		}
		pass = rep.Pass
		fmt.Printf("scenario %s: t=%d |CS|=%d\n", rep.Name, rep.LastTick, len(rep.CS))
	}
	fmt.Print(obs.Summarize(col.Events(), traceDelta(m)).String())
	writeTraceFiles(col, m.Parties.N, *out, *jsonl)
	if *out != "" {
		fmt.Printf("chrome trace: %s (load at ui.perfetto.dev)\n", *out)
	}
	if *jsonl != "" {
		fmt.Printf("jsonl trace: %s\n", *jsonl)
	}
	if !pass {
		fatal("%s: assertions failed (trace still written)", m.Name)
	}
}

// cmdWorkload runs session-engine workload manifests: one mpc.Engine
// per manifest, one amortized preprocessing, the steps' evaluations in
// sequence, with per-evaluation and amortized message/tick costs (see
// docs/architecture.md).
func cmdWorkload(args []string) {
	fs := flag.NewFlagSet("scenario workload", flag.ExitOnError)
	file := fs.String("f", "", "run workload manifests from a JSON `file` instead of builtins")
	all := fs.Bool("all", false, "run every builtin workload")
	compare := fs.Bool("compare", true, "also run each step as an independent one-shot mpc.Run and report the amortization ratio")
	requireSavings := fs.Bool("require-savings", false, "fail unless amortized msgs/eval beats the one-shot msgs/eval (implies -compare)")
	jsonOut := fs.Bool("json", false, "emit reports as JSON")
	trace := fs.Bool("trace", false, "trace each workload and print its timeline summary")
	traceOut := fs.String("trace-out", "", "write per-workload Chrome trace + JSONL files into `dir` (implies tracing)")
	ckptPath := fs.String("checkpoint", "", "write a crash-safe resume checkpoint to `file` after every completed step (single workload only)")
	resumePath := fs.String("resume", "", "resume the workload from a checkpoint `file` instead of starting fresh (single workload only)")
	stopAfter := fs.Int("stop-after", 0, "stop after `k` completed steps — a simulated crash for checkpoint testing (single workload only)")
	pipeline := fs.Int("pipeline", 0, "override the manifest's serving depth: `n` > 0 pipelines n in-flight evaluations, -1 forces sequential serving, 0 keeps the manifest's")
	fs.Parse(args)
	var ms []*scenario.Manifest
	switch {
	case *file != "":
		if *all || fs.NArg() > 0 {
			fatal("-f cannot be combined with --all or workload names")
		}
		loaded, err := scenario.LoadFile(*file)
		if err != nil {
			fatal("%v", err)
		}
		ms = loaded
	case *all:
		if fs.NArg() > 0 {
			fatal("--all cannot be combined with workload names")
		}
		ms = scenario.BuiltinWorkloads()
	case fs.NArg() == 0:
		fs.Usage()
		os.Exit(2)
	default:
		for _, name := range fs.Args() {
			m, err := scenario.LookupWorkload(name)
			if err != nil {
				fatal("%v", err)
			}
			ms = append(ms, m)
		}
	}
	doCompare := *compare || *requireSavings
	doTrace := *trace || *traceOut != ""
	checkpointing := *ckptPath != "" || *resumePath != "" || *stopAfter > 0
	if checkpointing && len(ms) != 1 {
		fatal("-checkpoint/-resume/-stop-after operate on exactly one workload, have %d", len(ms))
	}
	var resume *scenario.WorkloadCheckpoint
	if *resumePath != "" {
		ck, err := scenario.LoadWorkloadCheckpoint(*resumePath)
		if err != nil {
			fatal("%s: %v", *resumePath, err)
		}
		resume = ck
	}
	var reps []*scenario.WorkloadReport
	failed := 0
	for _, m := range ms {
		var col *obs.Collector
		var tr obs.Tracer
		if doTrace {
			col = obs.NewCollector()
			tr = col
		}
		rep, err := scenario.RunWorkloadOpts(m, scenario.WorkloadRunOptions{
			Compare:        doCompare,
			Tracer:         tr,
			CheckpointPath: *ckptPath,
			StopAfter:      *stopAfter,
			Resume:         resume,
			Pipeline:       *pipeline,
		})
		if err != nil {
			fatal("%s: %v", m.Name, err)
		}
		if *stopAfter > 0 && len(rep.Steps) < len(m.Workload.Steps) {
			// Simulated crash: report where we stopped and skip the
			// summary/assertion gates — the run is intentionally partial.
			if *jsonOut {
				emitJSON(rep)
			} else {
				fmt.Printf("STOP %-28s %d/%d evals done (resume with -resume %s)\n",
					rep.Name, len(rep.Steps), len(m.Workload.Steps), *ckptPath)
			}
			return
		}
		if doTrace {
			if *trace && !*jsonOut {
				fmt.Print(obs.Summarize(col.Events(), traceDelta(m)).String())
			}
			chromePath, jsonlPath := traceOutPaths(*traceOut, m.Name)
			writeTraceFiles(col, m.Parties.N, chromePath, jsonlPath)
		}
		reps = append(reps, rep)
		bad := !rep.Pass
		if *requireSavings && rep.Savings <= 1 {
			bad = true
			fmt.Fprintf(os.Stderr, "%s: amortized %.0f msgs/eval is not below the one-shot %.0f msgs/eval\n",
				rep.Name, rep.AmortizedMsgsPerEval, rep.OneShotMsgsPerEval)
		}
		if bad {
			failed++
		}
	}
	if *jsonOut {
		emitJSON(reps)
	} else {
		for _, rep := range reps {
			status := "PASS"
			if !rep.Pass {
				status = "FAIL"
			}
			fmt.Printf("%-4s %-28s %d evals  pool %d/%d used  amortized %.0f msgs/eval",
				status, rep.Name, len(rep.Steps), rep.TriplesConsumed, rep.TriplesGenerated, rep.AmortizedMsgsPerEval)
			if doCompare {
				fmt.Printf("  one-shot %.0f (%.2fx)", rep.OneShotMsgsPerEval, rep.Savings)
			}
			fmt.Println()
			for _, s := range rep.Steps {
				fmt.Printf("     step %d %-12s t=%-6d %8d msgs |CS|=%d\n",
					s.Index, s.Circuit, s.Ticks, s.HonestMessages, len(s.CS))
				for _, f := range s.Failures {
					fmt.Printf("         assertion failed: %s\n", f)
				}
			}
		}
	}
	if failed > 0 {
		fatal("%d workload(s) failed", failed)
	}
	if !*jsonOut {
		fmt.Printf("%d workload(s) passed\n", len(reps))
	}
}

// cmdCheckpoint inspects a checkpoint file — either a workload
// checkpoint written by `scenario workload -checkpoint` or a bare
// engine checkpoint from mpc.Engine.Snapshot — and prints the resume
// position, config summary and pool depth without rebuilding an engine.
func cmdCheckpoint(args []string) {
	fs := flag.NewFlagSet("scenario checkpoint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the summary as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal("checkpoint inspects exactly one file, have %d arguments", fs.NArg())
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fatal("%v", err)
	}
	printEngine := func(prefix string, ei *mpc.CheckpointInfo) {
		fmt.Printf("%sformat:        engine checkpoint v%d\n", prefix, ei.Version)
		fmt.Printf("%sconfig:        n=%d ts=%d ta=%d seed=%d net=%s\n",
			prefix, ei.Config.N, ei.Config.Ts, ei.Config.Ta, ei.Config.Seed, ei.Config.Network)
		if ei.Adversary != nil {
			adv, _ := json.Marshal(ei.Adversary)
			fmt.Printf("%sadversary:     %s\n", prefix, adv)
		}
		fmt.Printf("%sclock:         t=%d, %d epochs, %d evaluations\n", prefix, ei.Now, ei.Epochs, ei.Evaluations)
		fmt.Printf("%spool:          %d available, %d reserved, %d generated over %d batches\n",
			prefix, ei.Pool.Available, ei.Pool.Reserved, ei.Pool.Generated, ei.Pool.Batches)
	}
	if scenario.IsWorkloadCheckpoint(data) {
		ck, err := scenario.ReadWorkloadCheckpoint(bytes.NewReader(data))
		if err != nil {
			fatal("%s: %v", fs.Arg(0), err)
		}
		info, err := ck.Inspect()
		if err != nil {
			fatal("%s: %v", fs.Arg(0), err)
		}
		if *jsonOut {
			emitJSON(info)
			return
		}
		fmt.Printf("workload checkpoint v%d: %s\n", scenario.WorkloadCheckpointVersion, info.Name)
		fmt.Printf("  position:      %d/%d steps done\n", info.StepsDone, info.StepsTotal)
		fmt.Printf("  options:       compare=%v perGateEval=%v\n", info.Compare, info.PerGateEval)
		printEngine("  ", info.Engine)
		return
	}
	ei, err := mpc.InspectCheckpoint(bytes.NewReader(data))
	if err != nil {
		fatal("%s: %v", fs.Arg(0), err)
	}
	if *jsonOut {
		emitJSON(ei)
		return
	}
	printEngine("", ei)
}

// cmdFuzz runs a property-based fuzzing campaign (or replays one saved
// counterexample): N seeded random scenarios checked against the
// invariant-oracle suite, failures minimized and emitted as replayable
// manifests. See docs/fuzzing.md.
func cmdFuzz(args []string) {
	fs := flag.NewFlagSet("scenario fuzz", flag.ExitOnError)
	trials := fs.Int("trials", 100, "number of generated trials")
	seed := fs.Uint64("seed", 1, "campaign seed; trials are a pure function of (seed, index)")
	parallel := fs.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS); never affects verdicts")
	shrink := fs.Int("shrink", 200, "max oracle evaluations spent minimizing one counterexample")
	jsonOut := fs.Bool("json", false, "emit the campaign summary as JSON")
	outDir := fs.String("out", "", "write minimized counterexample manifests into `dir`")
	inject := fs.String("inject", "", `plant a deliberate violation in every trial ("over-budget"; pipeline self-test)`)
	crash := fs.Bool("crash", false, "run kill-and-resume checkpoint differentials instead of oracle trials (see docs/checkpointing.md)")
	replay := fs.String("replay", "", "replay a saved counterexample manifest `file` instead of fuzzing")
	trace := fs.Bool("trace", false, "with -replay: trace the primary run and print its timeline summary")
	traceOut := fs.String("trace-out", "", "with -replay: write Chrome trace + JSONL files into `dir`")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fatal("fuzz takes no positional arguments, got %v", fs.Args())
	}
	if (*trace || *traceOut != "") && *replay == "" {
		fatal("-trace/-trace-out require -replay (campaign trials run in parallel and are not traced)")
	}

	if *replay != "" {
		var col *obs.Collector
		var tr obs.Tracer
		if *trace || *traceOut != "" {
			col = obs.NewCollector()
			tr = col
		}
		data, err := os.ReadFile(*replay)
		if err != nil {
			fatal("%v", err)
		}
		m, err := scenario.Parse(data)
		if err != nil {
			fatal("%v", err)
		}
		v := fuzzer.ReplayTraced(m, tr)
		if col != nil {
			if *trace && !*jsonOut {
				fmt.Print(obs.Summarize(col.Events(), traceDelta(m)).String())
			}
			chromePath, jsonlPath := traceOutPaths(*traceOut, v.Name)
			writeTraceFiles(col, m.Parties.N, chromePath, jsonlPath)
		}
		if *jsonOut {
			emitJSON(v)
		} else if v.OK() {
			fmt.Printf("replay %s: ok (t=%d |CS|=%d)\n", v.Name, v.LastTick, len(v.CS))
		} else {
			fmt.Printf("replay %s: FAIL\n", v.Name)
			for _, viol := range v.Violations {
				fmt.Printf("     %s: %s\n", viol.Oracle, viol.Detail)
			}
		}
		if !v.OK() {
			os.Exit(1)
		}
		return
	}

	if *crash {
		if *inject != "" || *outDir != "" {
			fatal("-crash cannot be combined with -inject or -out (crash trials shrink nothing)")
		}
		sum, err := fuzzer.CrashCampaign(fuzzer.Options{Trials: *trials, Seed: *seed, Parallel: *parallel})
		if err != nil {
			fatal("%v", err)
		}
		if *jsonOut {
			emitJSON(sum)
		} else {
			fmt.Printf("crash fuzz seed=%d: %d/%d kill-and-resume trials bit-identical\n", sum.Seed, sum.Passed, sum.Trials)
			for _, v := range sum.Failed {
				fmt.Printf("FAIL %s (killed after %d/%d steps, perGateEval=%v)\n", v.Name, v.KillAfter, v.Steps, v.PerGateEval)
				for _, viol := range v.Violations {
					fmt.Printf("     %s: %s\n", viol.Oracle, viol.Detail)
				}
			}
		}
		if len(sum.Failed) > 0 {
			os.Exit(1)
		}
		return
	}

	switch fuzzer.Inject(*inject) {
	case fuzzer.InjectNone, fuzzer.InjectOverBudget:
	default:
		fatal("unknown -inject mode %q (want %q)", *inject, fuzzer.InjectOverBudget)
	}
	sum := fuzzer.Fuzz(fuzzer.Options{
		Trials:        *trials,
		Seed:          *seed,
		Parallel:      *parallel,
		MaxShrinkRuns: *shrink,
		Inject:        fuzzer.Inject(*inject),
	})
	for _, ce := range sum.Failed {
		if *outDir == "" {
			continue
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal("%v", err)
		}
		path := filepath.Join(*outDir, ce.Manifest.Name+".json")
		if err := os.WriteFile(path, append(ce.Manifest.JSON(), '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
	}
	if *jsonOut {
		emitJSON(sum)
	} else {
		fmt.Printf("fuzz seed=%d: %d/%d trials passed\n", sum.Seed, sum.Passed, sum.Trials)
		for _, ce := range sum.Failed {
			fmt.Printf("FAIL trial %d (%s, %d shrink runs)\n", ce.Trial, ce.Manifest.Name, ce.ShrinkRuns)
			for _, viol := range ce.Violations {
				fmt.Printf("     %s: %s\n", viol.Oracle, viol.Detail)
			}
			if *outDir != "" {
				fmt.Printf("     minimized manifest: %s\n", filepath.Join(*outDir, ce.Manifest.Name+".json"))
			} else {
				fmt.Printf("     minimized manifest: %s\n", ce.Manifest.JSON())
			}
		}
	}
	if len(sum.Failed) > 0 {
		os.Exit(1)
	}
}

// resolvePartySet loads the deploy/serve verbs' party set: a manifest
// file via -f, or a builtin by name.
func resolvePartySet(fs *flag.FlagSet, file string) *scenario.PartySet {
	switch {
	case file != "":
		if fs.NArg() > 0 {
			fatal("-f cannot be combined with a builtin party-set name")
		}
		s, err := scenario.LoadPartySetFile(file)
		if err != nil {
			fatal("%v", err)
		}
		return s
	case fs.NArg() == 1:
		s, err := scenario.LookupPartySet(fs.Arg(0))
		if err != nil {
			fatal("%v", err)
		}
		return s
	default:
		fs.Usage()
		os.Exit(2)
		return nil
	}
}

// cmdDeploy reifies a party-set manifest and executes its referenced
// scenario or workload over the real transport backend: parties as
// goroutine processes, honest traffic physically crossing CRC-framed
// sockets. -backend sim runs the same deployment on the in-memory
// simulator — the differential reference `make deploy-smoke` cmp's
// against (see docs/deployment.md).
func cmdDeploy(args []string) {
	fs := flag.NewFlagSet("scenario deploy", flag.ExitOnError)
	file := fs.String("f", "", "deploy a party-set manifest from a JSON `file` instead of a builtin")
	backend := fs.String("backend", "", "override the set's backend (`kind` sim, unix or tcp; sim is the differential reference)")
	jsonOut := fs.Bool("json", false, "emit the full deploy report (wall clock, wire bytes) as JSON")
	out := fs.String("out", "", "write the backend-invariant inner report as JSON to `file` (byte-identical across backends on one seed)")
	fs.Parse(args)
	set := resolvePartySet(fs, *file)
	dep, err := set.Reify()
	if err != nil {
		fatal("%v", err)
	}
	if err := dep.UseBackend(*backend); err != nil {
		fatal("%v", err)
	}
	rep, err := dep.Execute()
	if err != nil {
		fatal("%v", err)
	}
	if *out != "" {
		inner, err := json.MarshalIndent(rep.Inner(), "", "  ")
		if err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(*out, append(inner, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
	}
	if *jsonOut {
		emitJSON(rep)
	} else {
		status := "PASS"
		if !rep.Pass {
			status = "FAIL"
		}
		fmt.Printf("%-4s %-28s backend=%-4s %8.1f ms  wire %d frames / %d bytes\n",
			status, rep.Name, rep.Backend, rep.WallMs, rep.Wire.FramesOut, rep.Wire.BytesOut)
		if rep.Scenario != nil {
			fmt.Printf("     scenario %s: t=%d |CS|=%d %d msgs %d bytes\n",
				rep.Scenario.Name, rep.Scenario.LastTick, len(rep.Scenario.CS),
				rep.Scenario.HonestMessages, rep.Scenario.HonestBytes)
			for _, f := range rep.Scenario.Failures {
				fmt.Printf("     assertion failed: %s\n", f)
			}
		}
		if rep.Workload != nil {
			fmt.Printf("     workload %s: %d evals, pool %d/%d used, amortized %.0f msgs/eval\n",
				rep.Workload.Name, len(rep.Workload.Steps), rep.Workload.TriplesConsumed,
				rep.Workload.TriplesGenerated, rep.Workload.AmortizedMsgsPerEval)
			for _, s := range rep.Workload.Steps {
				for _, f := range s.Failures {
					fmt.Printf("     step %d assertion failed: %s\n", s.Index, f)
				}
			}
		}
	}
	if !rep.Pass {
		fatal("%s: deployment assertions failed", rep.Name)
	}
}

// cmdServe reifies a party set referencing a workload and serves it as
// a long-lived session: one engine, one amortized preprocessing, the
// workload's evaluations round after round over the real transport,
// with a row per evaluation and the resolved listen addresses.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("scenario serve", flag.ExitOnError)
	file := fs.String("f", "", "serve a party-set manifest from a JSON `file` instead of a builtin")
	backend := fs.String("backend", "", "override the set's backend (`kind` sim, unix or tcp)")
	rounds := fs.Int("rounds", 1, "serve the workload's steps this many times over")
	jsonOut := fs.Bool("json", false, "additionally emit the serve summary as JSON")
	fs.Parse(args)
	set := resolvePartySet(fs, *file)
	dep, err := set.Reify()
	if err != nil {
		fatal("%v", err)
	}
	if err := dep.UseBackend(*backend); err != nil {
		fatal("%v", err)
	}
	rep, err := dep.Serve(os.Stdout, *rounds)
	if err != nil {
		fatal("%v", err)
	}
	if *jsonOut {
		emitJSON(rep)
	}
	if rep.Failures > 0 {
		fatal("%s: %d of %d served evaluations failed", rep.Name, rep.Failures, rep.Evals)
	}
}

// select resolves the manifests a subcommand operates on: an explicit
// manifest file, the full builtin corpus, or named builtins.
func selectManifests(fs *flag.FlagSet, file string, all bool, args []string) []*scenario.Manifest {
	if file != "" {
		if all || len(args) > 0 {
			fatal("-f cannot be combined with --all or scenario names")
		}
		ms, err := scenario.LoadFile(file)
		if err != nil {
			fatal("%v", err)
		}
		return ms
	}
	if all {
		if len(args) > 0 {
			fatal("--all cannot be combined with scenario names")
		}
		return scenario.Builtin()
	}
	if len(args) == 0 {
		fs.Usage()
		os.Exit(2)
	}
	var ms []*scenario.Manifest
	for _, name := range args {
		m, err := scenario.Lookup(name)
		if err != nil {
			fatal("%v", err)
		}
		ms = append(ms, m)
	}
	return ms
}

func cmdList(args []string) {
	fs := flag.NewFlagSet("scenario list", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the manifests as JSON")
	fs.Parse(args)
	ms := scenario.Builtin()
	if *jsonOut {
		emitJSON(ms)
		return
	}
	fmt.Printf("%-32s %-10s %-7s %-12s %-24s %s\n", "NAME", "PARTIES", "NET", "CIRCUIT", "ADVERSARY", "DESCRIPTION")
	for _, m := range ms {
		parties := fmt.Sprintf("n=%d,%d/%d", m.Parties.N, m.Parties.Ts, m.Parties.Ta)
		if m.Parties.AtBoundary() {
			parties += "*"
		}
		net := m.Network.Kind
		if m.SyncOnly {
			net += "!"
		}
		fmt.Printf("%-32s %-10s %-7s %-12s %-24s %s\n",
			m.Name, parties, net, m.Circuit, m.Adversary.Summary(), m.Description)
	}
	fmt.Printf("\n%d scenarios; * marks threshold-boundary configs (3ts+ta=n-1), ! marks the SyncOnly ablation\n", len(ms))
	wl := scenario.BuiltinWorkloads()
	fmt.Printf("\n%-32s %-10s %-7s %-6s %s\n", "WORKLOAD", "PARTIES", "NET", "STEPS", "DESCRIPTION")
	for _, m := range wl {
		parties := fmt.Sprintf("n=%d,%d/%d", m.Parties.N, m.Parties.Ts, m.Parties.Ta)
		fmt.Printf("%-32s %-10s %-7s %-6d %s\n",
			m.Name, parties, m.Network.Kind, len(m.Workload.Steps), m.Description)
	}
	fmt.Printf("\n%d workloads (run with 'scenario workload')\n", len(wl))
	sets := scenario.BuiltinPartySets()
	fmt.Printf("\n%-32s %-10s %-6s %-28s %s\n", "PARTY SET", "PARTIES", "NET", "EXECUTES", "DESCRIPTION")
	for _, s := range sets {
		parties := fmt.Sprintf("n=%d,%d/%d", s.Parties.N, s.Parties.Ts, s.Parties.Ta)
		ref := s.Scenario
		if ref == "" {
			ref = s.Workload
		}
		fmt.Printf("%-32s %-10s %-6s %-28s %s\n", s.Name, parties, s.Transport.Kind, ref, s.Description)
	}
	fmt.Printf("\n%d party sets (run with 'scenario deploy' / 'scenario serve')\n", len(sets))
}

func cmdValidate(args []string) {
	fs := flag.NewFlagSet("scenario validate", flag.ExitOnError)
	file := fs.String("f", "", "validate manifests from a JSON `file` instead of builtins")
	all := fs.Bool("all", true, "validate the whole builtin corpus when no names are given")
	fs.Parse(args)
	useAll := *file == "" && len(fs.Args()) == 0 && *all
	ms := selectManifests(fs, *file, useAll, fs.Args())
	bad := 0
	for _, m := range ms {
		// LoadFile and Lookup already validate; re-validate so the
		// subcommand reports every manifest, not just the first error.
		if err := m.Validate(); err != nil {
			fmt.Printf("FAIL %s\n     %v\n", m.Name, err)
			bad++
			continue
		}
		fmt.Printf("ok   %s\n", m.Name)
	}
	if bad > 0 {
		fatal("%d of %d manifests invalid", bad, len(ms))
	}
	fmt.Printf("%d manifests valid\n", len(ms))
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("scenario run", flag.ExitOnError)
	file := fs.String("f", "", "run manifests from a JSON `file` instead of builtins")
	all := fs.Bool("all", false, "run the whole builtin corpus")
	parallel := fs.Int("parallel", 1, "worker-pool size (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit reports as JSON")
	trace := fs.Bool("trace", false, "trace each run and print its timeline summary (forces serial execution)")
	traceOut := fs.String("trace-out", "", "write per-run Chrome trace + JSONL files into `dir` (implies tracing)")
	fs.Parse(args)
	ms := selectManifests(fs, *file, *all, fs.Args())
	if *trace || *traceOut != "" {
		results := make([]scenario.SweepResult, 0, len(ms))
		for _, m := range ms {
			col := obs.NewCollector()
			rep, err := scenario.RunTraced(m, col)
			results = append(results, scenario.SweepResult{Manifest: m, Report: rep, Err: err})
			if err != nil {
				continue
			}
			if *trace && !*jsonOut {
				fmt.Print(obs.Summarize(col.Events(), traceDelta(m)).String())
			}
			chromePath, jsonlPath := traceOutPaths(*traceOut, m.Name)
			writeTraceFiles(col, m.Parties.N, chromePath, jsonlPath)
		}
		report(results, *jsonOut)
		return
	}
	results := scenario.Sweep(ms, *parallel)
	report(results, *jsonOut)
}

func cmdSweep(args []string) {
	fs := flag.NewFlagSet("scenario sweep", flag.ExitOnError)
	file := fs.String("f", "", "sweep manifests from a JSON `file` instead of builtins")
	all := fs.Bool("all", false, "sweep the whole builtin corpus")
	seeds := fs.String("seeds", "1..8", "seed `range` A..B (inclusive) each scenario is re-run over")
	parallel := fs.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit reports as JSON")
	fs.Parse(args)
	lo, hi, err := parseSeedRange(*seeds)
	if err != nil {
		fatal("%v", err)
	}
	seedList := make([]uint64, 0, hi-lo+1)
	for s := lo; ; s++ {
		seedList = append(seedList, s)
		if s == hi {
			break
		}
	}
	var ms []*scenario.Manifest
	for _, m := range selectManifests(fs, *file, *all, fs.Args()) {
		ms = append(ms, scenario.ExpandSeeds(m, seedList)...)
	}
	results := scenario.Sweep(ms, *parallel)
	report(results, *jsonOut)
}

func parseSeedRange(s string) (lo, hi uint64, err error) {
	a, b, ok := strings.Cut(s, "..")
	if !ok {
		a, b = s, s
	}
	if lo, err = strconv.ParseUint(a, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad seed range %q: %v", s, err)
	}
	if hi, err = strconv.ParseUint(b, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad seed range %q: %v", s, err)
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("bad seed range %q: %d > %d", s, lo, hi)
	}
	const maxSeeds = 1 << 20
	if hi-lo+1 > maxSeeds || hi-lo+1 == 0 {
		return 0, 0, fmt.Errorf("seed range %q spans more than %d seeds", s, maxSeeds)
	}
	return lo, hi, nil
}

func report(results []scenario.SweepResult, jsonOut bool) {
	if jsonOut {
		reps := make([]*scenario.Report, 0, len(results))
		for _, r := range results {
			if r.Err != nil {
				fatal("%s: %v", r.Manifest.Name, r.Err)
			}
			reps = append(reps, r.Report)
		}
		emitJSON(reps)
	}
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			fatal("%s: %v", r.Manifest.Name, r.Err)
		}
		rep := r.Report
		if !jsonOut {
			status := "PASS"
			if !rep.Pass {
				status = "FAIL"
			}
			fmt.Printf("%-4s %-32s t=%-7d |CS|=%-2d %9d msgs %12d bytes\n",
				status, rep.Name, rep.LastTick, len(rep.CS), rep.HonestMessages, rep.HonestBytes)
			for _, f := range rep.Failures {
				fmt.Printf("     assertion failed: %s\n", f)
			}
		}
		if !rep.Pass {
			failed++
		}
	}
	if failed > 0 {
		fatal("%d of %d scenarios failed", failed, len(results))
	}
	if !jsonOut {
		fmt.Printf("%d scenarios passed\n", len(results))
	}
}

func emitJSON(v any) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	os.Stdout.Write(append(out, '\n'))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
