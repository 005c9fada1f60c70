GO ?= go

.PHONY: all build test vet lint lint-json race strict fuzz bench bench-smoke docs chaos serve-smoke check clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# egdlint: the repo's own static analyzers for MPI-usage and
# determinism invariants (see internal/lint/README.md). -tests also
# loads _test.go files and runs the hang-class (SPMD-safety) subset
# over them. Exit 0 means every package honours them.
lint:
	$(GO) run ./cmd/egdlint -tests ./...

# Machine-readable findings for CI artifacts and tooling.
lint-json:
	$(GO) run ./cmd/egdlint -tests -json ./... > egdlint.json; \
	code=$$?; cat egdlint.json; exit $$code

# Race-detector pass over every package: the fault-injection, recovery,
# and eviction tests run scripted kills/stalls under -race, and the
# eviction-era packages (stats, trace, checkpoint) ride along.
race:
	$(GO) test -race ./...

# Strict payload accounting: unknown wire types panic instead of logging.
strict:
	$(GO) test -tags mpistrict ./internal/mpi ./internal/sim

# Short fuzz pass over every fuzz target that guards a parser: the
# checkpoint wire format, the fault-spec grammar, the trace CSV, the
# job-store journal replayer (arbitrary tail damage must never panic),
# and the egdlint allow-directive grammar.
fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=10s ./internal/checkpoint
	$(GO) test -fuzz=FuzzParseFault -fuzztime=10s ./internal/mpi
	$(GO) test -fuzz=FuzzWireFrame -fuzztime=10s ./internal/mpi
	$(GO) test -fuzz=FuzzParseCSV -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzJournalTail -fuzztime=10s ./internal/server
	$(GO) test -fuzz=FuzzDirective -fuzztime=10s ./internal/lint

# Multi-process chaos smoke: egdrun spawns a real worker fleet over unix
# sockets, runs a seeded config fault-free, then reruns it with one worker
# SIGKILLed and one SIGSTOPped mid-run, and asserts the deterministic
# summary lines are byte-identical (see scripts/chaos_smoke.sh).
chaos:
	./scripts/chaos_smoke.sh

# Service smoke: boot egdserve on an ephemeral port and drive the job
# lifecycle over real HTTP — submit, SSE stream, pause mid-run, resume,
# and assert the resumed /result matches an uninterrupted run's bit for
# bit; then kill -9 a durable (-data-dir) daemon mid-job, restart it over
# the same directory, and assert the recovered job's /result is identical
# too (see scripts/serve_smoke.sh).
serve-smoke:
	./scripts/serve_smoke.sh

# Single-iteration sweep of the paper-artefact benchmarks (bench_test.go)
# with allocation stats, streamed as test2json records to BENCH_10.json —
# the machine-readable artifact CI uploads. One iteration keeps the sweep
# minutes-scale; shapes (scaling curves, compute/comm split, the payoff
# cache's game_play speedup) survive, but absolute ns/op are noisy at
# -benchtime=1x. The cache ablation runs at 10 iterations on top so its
# headline ratio (docs/KERNEL.md) is stable enough to compare.
bench:
	$(GO) test -json -run '^$$' -bench . -benchmem -benchtime 1x . > BENCH_10.json
	$(GO) test -json -run '^$$' -bench 'Ablation_PayoffCache' -benchtime 10x . >> BENCH_10.json

# The benchmark module: perfbench/ is a Go module of its own (it requires
# repro through `replace ../`), so the root `go test ./...` never compiles
# it. Vet it and run its smoke tests — metric names against BENCHMARK.json
# and a tiny run of each workload — so a sim API change cannot break the
# benchmark unseen.
bench-smoke:
	$(GO) -C perfbench vet ./... && $(GO) -C perfbench test ./...

# Documentation gate: package docs present on every exported symbol
# (the pkgdoc egdlint analyzer alone) and no broken relative links or
# heading anchors anywhere in the markdown tree (cmd/egddoc).
docs:
	$(GO) run ./cmd/egdlint -run pkgdoc ./...
	$(GO) run ./cmd/egddoc

check: vet lint
	$(GO) test -race ./...

clean:
	$(GO) clean ./...
