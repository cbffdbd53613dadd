GO ?= go
GOFMT ?= gofmt

.PHONY: build vet test test-short test-race scenarios workload-smoke pipeline-smoke fuzz-smoke fuzz-native trace-smoke checkpoint-smoke deploy-smoke bench-smoke bench-msgs perfbench loc ci

build:
	$(GO) build ./...

# vet also fails when any Go file is not gofmt-clean.
vet:
	$(GO) vet ./...
	@unformatted=$$($(GOFMT) -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race -short ./...

# fuzz-smoke runs a fixed-seed slice of the property-based protocol
# fuzzing campaign (docs/fuzzing.md): deterministic, ~30s, so every PR
# checks a slice of the random scenario space against the invariant
# oracles.
fuzz-smoke:
	$(GO) run ./cmd/scenario fuzz -trials 12 -seed 1

# fuzz-native gives each Go native fuzz target a short randomized
# budget (coverage-guided, NOT deterministic — run locally, not in CI;
# CI still replays the committed corpora under testdata/fuzz/ as part
# of the normal test run).
fuzz-native:
	$(GO) test -run '^$$' -fuzz 'FuzzFieldRoundTrip$$' -fuzztime 10s ./field
	$(GO) test -run '^$$' -fuzz 'FuzzOECMatchesDecode$$' -fuzztime 10s ./internal/rs
	$(GO) test -run '^$$' -fuzz 'FuzzLoadManifest$$' -fuzztime 10s ./scenario
	$(GO) test -run '^$$' -fuzz 'FuzzCheckpointRoundTrip$$' -fuzztime 10s ./mpc

# scenarios runs the full built-in scenario corpus on a 4-worker pool.
scenarios:
	$(GO) run ./cmd/scenario run --all -parallel 4

# workload-smoke runs the fixed-seed amortization workload (8
# evaluations over one session engine) and fails unless the amortized
# per-evaluation message cost beats the one-shot cost (deterministic;
# CI guard for the session-engine refactor).
workload-smoke:
	$(GO) run ./cmd/scenario workload workload-amortize-sync workload-refill-sync workload-adversarial-sync
	$(GO) run ./cmd/scenario workload -require-savings workload-amortize-sync

# pipeline-smoke drives the PR 9 pipelined serving path end to end:
# the pipeline workload forced sequential and at depth 1 must produce
# bit-identical reports (the differential guarantee), two depth-4 runs
# must produce bit-identical reports (determinism under overlap; full
# depth-4 figures differ from sequential only by PRNG draw-order noise
# — outputs and CS are asserted identical in the test suites), and the
# watermark-refill workload must serve its under-budgeted stream
# without ever hitting the exhaustion-retry path.
pipeline-smoke:
	$(GO) run ./cmd/scenario workload -compare=false -json -pipeline -1 workload-pipeline-sync > /tmp/repro-pipe-seq.json
	$(GO) run ./cmd/scenario workload -compare=false -json -pipeline 1 workload-pipeline-sync > /tmp/repro-pipe-d1.json
	cmp /tmp/repro-pipe-seq.json /tmp/repro-pipe-d1.json
	$(GO) run ./cmd/scenario workload -compare=false -json workload-pipeline-sync > /tmp/repro-pipe-d4a.json
	$(GO) run ./cmd/scenario workload -compare=false -json workload-pipeline-sync > /tmp/repro-pipe-d4b.json
	cmp /tmp/repro-pipe-d4a.json /tmp/repro-pipe-d4b.json
	$(GO) run ./cmd/scenario workload workload-pipeline-refill-sync

# trace-smoke runs one builtin with the PR 6 trace layer on, then
# validates the exported Chrome trace (well-formed JSON, non-empty,
# monotone timestamps). The zero-alloc nil-tracer guard and the
# trace-on/off differential run as part of the normal test suite
# (internal/sim, scenario); this checks the end-to-end export path.
trace-smoke:
	$(GO) run ./cmd/scenario trace -out /tmp/repro-trace-smoke.json sync-product-honest
	$(GO) run ./cmd/scenario trace -validate /tmp/repro-trace-smoke.json

# checkpoint-smoke drives the PR 7 crash-safety path end to end: run
# the amortization workload uninterrupted, run it again killed after 3
# steps with a checkpoint, inspect the checkpoint, resume it, and fail
# unless the resumed report is bit-identical to the uninterrupted one
# (deterministic; docs/checkpointing.md).
checkpoint-smoke:
	$(GO) run ./cmd/scenario workload -compare=false -json workload-amortize-sync > /tmp/repro-ckpt-full.json
	$(GO) run ./cmd/scenario workload -compare=false -checkpoint /tmp/repro-ckpt.bin -stop-after 3 workload-amortize-sync
	$(GO) run ./cmd/scenario checkpoint /tmp/repro-ckpt.bin
	$(GO) run ./cmd/scenario workload -compare=false -resume /tmp/repro-ckpt.bin -json workload-amortize-sync > /tmp/repro-ckpt-resumed.json
	cmp /tmp/repro-ckpt-full.json /tmp/repro-ckpt-resumed.json
	$(GO) run ./cmd/scenario fuzz -crash -trials 4 -seed 1

# deploy-smoke drives the PR 8 transport seam end to end: deploy the
# builtin unix-socket party set (parties as goroutines exchanging
# CRC-framed messages over real sockets), deploy the same set over the
# in-memory simulator, and fail unless the inner protocol reports are
# bit-identical — the differential guarantee of docs/deployment.md.
# A 2-round serve over the workload set then exercises the long-lived
# serving loop over sockets. The pipeline set repeats the differential
# and the serve with depth-4 EvaluateAsync epochs and background
# refills in flight over the sockets.
deploy-smoke:
	$(GO) run ./cmd/scenario deploy -out /tmp/repro-deploy-unix.json deploy-unix-n5
	$(GO) run ./cmd/scenario deploy -backend sim -out /tmp/repro-deploy-sim.json deploy-unix-n5
	cmp /tmp/repro-deploy-unix.json /tmp/repro-deploy-sim.json
	$(GO) run ./cmd/scenario serve -rounds 2 deploy-unix-n5-workload
	$(GO) run ./cmd/scenario deploy -out /tmp/repro-deploy-pipe-unix.json deploy-unix-n5-pipeline
	$(GO) run ./cmd/scenario deploy -backend sim -out /tmp/repro-deploy-pipe-sim.json deploy-unix-n5-pipeline
	cmp /tmp/repro-deploy-pipe-unix.json /tmp/repro-deploy-pipe-sim.json
	$(GO) run ./cmd/scenario serve -rounds 2 deploy-unix-n5-pipeline

# bench-smoke compiles and single-shots every benchmark (CI guard; no
# stable timing intended).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-msgs runs the tracked mul-deep online bench and fails if the
# layered evaluator's honest-origin message count regresses above the
# recorded per-layer baseline (deterministic; CI guard).
bench-msgs:
	$(GO) test -run 'TestMulDeepMessageBudget' -v ./internal/bench

# perfbench vets and tests the benchmark module (perfbench/, declared by
# BENCHMARK.json). It is its own Go module, so `go build ./...` at the
# root never compiles it: without this target a change that removes an
# mpc name the benchmark uses would pass every other check.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# loc prints the root module's Go line counts, non-test and test,
# leaving out the perfbench/ module and hidden directories (build
# caches): the before/after figures a simplification records.
loc:
	@find . -path ./perfbench -prune -o -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l | sed 's/^ */non-test Go lines: /'
	@find . -path ./perfbench -prune -o -path './.*' -prune -o -name '*_test.go' -print | xargs cat | wc -l | sed 's/^ */test Go lines:     /'

ci: build vet test-short bench-smoke bench-msgs workload-smoke pipeline-smoke fuzz-smoke trace-smoke checkpoint-smoke deploy-smoke perfbench
