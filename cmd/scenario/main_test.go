package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The CLI is tested end to end by re-executing the test binary as the
// scenario command: TestMain diverts to main() when the marker
// environment variable is set, so every table entry below exercises
// the real verb dispatch, flag parsing and exit codes.
const cliMarker = "SCENARIO_CLI_UNDER_TEST"

func TestMain(m *testing.M) {
	if os.Getenv(cliMarker) == "1" {
		main()
		os.Exit(0) // a main() that returns means success
	}
	os.Exit(m.Run())
}

// runCLI invokes the test binary as the scenario CLI.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, exitCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), cliMarker+"=1")
	var out, errBuf strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return out.String(), errBuf.String(), code
}

func TestVerbDispatch(t *testing.T) {
	badManifest := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badManifest, []byte(`{"name":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name     string
		args     []string
		wantCode int
		wantOut  string // substring of stdout
		wantErr  string // substring of stderr
	}{
		{"no verb", nil, 2, "", "usage: scenario"},
		{"help", []string{"help"}, 2, "", "usage: scenario"},
		{"unknown verb", []string{"frobnicate"}, 1, "", "unknown subcommand"},
		{"bench is not a verb", []string{"bench"}, 1, "", "unknown subcommand"},
		{"list", []string{"list"}, 0, "sync-random-circuit", ""},
		{"list json", []string{"list", "-json"}, 0, `"name": "async-equivocate-burst"`, ""},
		{"validate builtins", []string{"validate"}, 0, "manifests valid", ""},
		{"validate named", []string{"validate", "sync-sum-honest"}, 0, "ok   sync-sum-honest", ""},
		{"validate unknown name", []string{"validate", "no-such-scenario"}, 1, "", "no builtin named"},
		{"validate bad file", []string{"validate", "-f", badManifest}, 1, "", "need at least 4 parties"},
		{"run needs names", []string{"run"}, 2, "", "Usage of scenario run"},
		{"run one scenario", []string{"run", "sync-boundary-n5"}, 0, "PASS sync-boundary-n5", ""},
		{"run has no workers flag", []string{"run", "-workers", "4", "sync-sum-honest"}, 2, "", "flag provided but not defined: -workers"},
		{"sweep bad seed range", []string{"sweep", "-seeds", "9..1", "sync-sum-honest"}, 1, "", "bad seed range"},
		{"fuzz rejects positional args", []string{"fuzz", "extra"}, 1, "", "no positional arguments"},
		{"fuzz bad inject", []string{"fuzz", "-inject", "nope"}, 1, "", "unknown -inject mode"},
		{"fuzz replay missing file", []string{"fuzz", "-replay", "/no/such/file.json"}, 1, "", "no such file"},
		{"workload needs names", []string{"workload"}, 2, "", "Usage of scenario workload"},
		{"workload unknown name", []string{"workload", "no-such-workload"}, 1, "", "no builtin workload named"},
		{"workload all-and-names conflict", []string{"workload", "--all", "workload-refill-sync"}, 1, "", "cannot be combined"},
		{"list shows workloads", []string{"list"}, 0, "workload-amortize-sync", ""},
		{"trace needs a name", []string{"trace"}, 2, "", "Usage of scenario trace"},
		{"trace unknown name", []string{"trace", "no-such-thing"}, 1, "", "no builtin scenario or workload"},
		{"trace validate is exclusive", []string{"trace", "-validate", "x.json", "sync-sum-honest"}, 1, "", "-validate takes no other"},
		{"fuzz trace needs replay", []string{"fuzz", "-trace"}, 1, "", "-trace/-trace-out require -replay"},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			stdout, stderr, code := runCLI(t, tt.args...)
			if code != tt.wantCode {
				t.Errorf("exit code %d, want %d\nstdout: %s\nstderr: %s", code, tt.wantCode, stdout, stderr)
			}
			if tt.wantOut != "" && !strings.Contains(stdout, tt.wantOut) {
				t.Errorf("stdout missing %q:\n%s", tt.wantOut, stdout)
			}
			if tt.wantErr != "" && !strings.Contains(stderr, tt.wantErr) {
				t.Errorf("stderr missing %q:\n%s", tt.wantErr, stderr)
			}
		})
	}
}

// TestWorkloadVerbEndToEnd drives the session-engine workload verb:
// the fixed-seed amortization builtin passes -require-savings, a
// workload file with an impossible step budget fails with exit 1, and
// JSON output carries the amortization summary.
func TestWorkloadVerbEndToEnd(t *testing.T) {
	stdout, stderr, code := runCLI(t, "workload", "-require-savings", "workload-amortize-sync")
	if code != 0 {
		t.Fatalf("amortization workload exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "PASS workload-amortize-sync") || !strings.Contains(stdout, "one-shot") {
		t.Fatalf("amortization summary missing:\n%s", stdout)
	}

	stdout, _, code = runCLI(t, "workload", "-compare=false", "-json", "workload-refill-sync")
	if code != 0 {
		t.Fatalf("json workload exited %d\n%s", code, stdout)
	}
	if !strings.Contains(stdout, `"amortizedMsgsPerEval"`) || !strings.Contains(stdout, `"triplesGenerated"`) {
		t.Fatalf("JSON report missing amortization fields:\n%s", stdout)
	}

	failing := filepath.Join(t.TempDir(), "wl.json")
	manifest := `{
  "name": "wl-too-slow",
  "parties": {"n": 5, "ts": 1, "ta": 1},
  "network": {"kind": "sync", "delta": 10},
  "seed": 1,
  "workload": {"steps": [{"circuit": {"family": "sum"}, "expect": {"maxTicks": 1}}]}
}`
	if err := os.WriteFile(failing, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code = runCLI(t, "workload", "-f", failing, "-compare=false")
	if code != 1 {
		t.Fatalf("failing workload exited %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "maxTicks") {
		t.Fatalf("step assertion failure not reported:\n%s", stdout)
	}
}

// TestTraceVerbEndToEnd drives the trace verb: a traced builtin run
// prints the timeline summary, exports Chrome + JSONL files, and the
// exported Chrome trace passes the verb's own validator.
func TestTraceVerbEndToEnd(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "trace.json")
	jsonl := filepath.Join(dir, "events.jsonl")
	stdout, stderr, code := runCLI(t, "trace", "-out", chrome, "-jsonl", jsonl, "sync-sum-honest")
	if code != 0 {
		t.Fatalf("trace exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, want := range []string{"per-family delivery latency", "phases:", "activity timeline"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("summary missing %q:\n%s", want, stdout)
		}
	}
	for _, path := range []string{chrome, jsonl} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("export %s missing or empty (%v)", path, err)
		}
	}
	stdout, stderr, code = runCLI(t, "trace", "-validate", chrome)
	if code != 0 || !strings.Contains(stdout, "valid Chrome trace") {
		t.Fatalf("validate exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

// TestFuzzVerbEndToEnd drives the full injected pipeline through the
// CLI: campaign fails, counterexamples are written, replay of a
// written counterexample reproduces the violation with exit 1.
func TestFuzzVerbEndToEnd(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, code := runCLI(t,
		"fuzz", "-trials", "2", "-seed", "1", "-inject", "over-budget", "-out", dir)
	if code != 1 {
		t.Fatalf("injected campaign exited %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "corruption-budget") {
		t.Fatalf("violation not reported:\n%s", stdout)
	}
	ces, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(ces) != 2 {
		t.Fatalf("want 2 counterexample files, got %v (%v)", ces, err)
	}
	stdout, _, code = runCLI(t, "fuzz", "-replay", ces[0])
	if code != 1 {
		t.Fatalf("replay of a counterexample exited %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "FAIL") || !strings.Contains(stdout, "corruption-budget") {
		t.Fatalf("replay did not reproduce the violation:\n%s", stdout)
	}

	// A passing campaign exits 0 and reports every trial passed.
	stdout, stderr, code = runCLI(t, "fuzz", "-trials", "2", "-seed", "9")
	if code != 0 {
		t.Fatalf("clean campaign exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "2/2 trials passed") {
		t.Fatalf("campaign summary missing:\n%s", stdout)
	}
}
