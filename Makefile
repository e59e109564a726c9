# Build, test and benchmark targets for the activegeo repo.
#
#   make ci            full gate: ci-fast then ci-deep (what a green main means)
#   make ci-fast       the PR fast lane: vet + lint + build + unit tests + gofmt
#                      + benchvet (the unit tests include the quick-fleet
#                      golden audit and the zero-cell check against
#                      internal/refimpl)
#   make ci-deep       the deep lane: bench compile + race smoke + soak + cover
#                      + fuzz smoke
#   make ci-local      alias for `make ci` — the exact gate .github/workflows/ci.yml runs
#   make lint          geolint static-analysis suite over the whole tree (DESIGN.md §9)
#   make lint-json     same suite, machine-readable geolint.json (the CI artifact)
#   make benchvet      vet the benchmark module under bench/, which ./... does not reach
#   make vuln          govulncheck, if installed; soft-fails offline
#   make race          full test suite under the race detector
#   make race-smoke    quick audit pipeline, worker pool, measure batch and netsim's condition writers, under the race detector
#   make soak          32-client atlasd soak (determinism + graceful drain) under -race
#   make fuzz-smoke    30s/target fuzz pass over the atlasd wire surface and client source, the geometry kernel, Theil–Sen, rank selection, netsim.Path, netsim.NewRand and geoloc.Collapse
#   make cover         per-package coverage with an 85% floor on the service packages

GO ?= go
FUZZTIME ?= 30s
COVER_FLOOR ?= 85.0

.PHONY: all vet lint lint-json vuln build test race race-smoke soak fuzz-smoke cover ci ci-fast ci-deep ci-local benchvet benchcompile fmtcheck clean

all: ci

vet:
	$(GO) vet ./...

# Repo-specific invariants (determinism, sim clock, map order, shared
# RNG, float equality, dropped errors, lock discipline, unit safety,
# goroutine ownership) — see DESIGN.md §9. Packages load on
# min(GOMAXPROCS, package count) workers; output order does not depend
# on scheduling.
lint:
	$(GO) run ./cmd/geolint ./...

# Machine-readable lint report for the CI artifact. Written even when
# the tree is clean (count 0) so every CI run carries the report.
lint-json:
	$(GO) run ./cmd/geolint -json ./... > geolint.json || (cat geolint.json; exit 1)

# Dependency vulnerability scan. govulncheck needs network access and
# is not baked into every environment, so this target soft-fails: it
# reports what it could not do but never breaks an offline build.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vuln: govulncheck reported findings or could not reach the vuln DB (soft-fail)"; \
	else \
		echo "vuln: govulncheck not installed; skipping (soft-fail)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiments package runs the full audit pipeline; under the race
# detector on few cores it needs more than go test's 10m default.
race:
	$(GO) test -race -timeout 60m ./...

# Race smoke: the quick audit determinism path, the streaming scheduler
# (tiny constellation, real worker pools, bounded queues), the one
# worker pool every parallel stage runs on (internal/parallel, three
# runs) and measure.Batch — the single entry point for honest, resilient
# and adversarial measurement, twice — and netsim's lock-free conditions
# (episodes and faults swapped while workers sample and probe, twice),
# under the race detector, so a
# scheduling-dependent result has more than one chance to show; fast
# enough for every CI run, unlike the full `make race` suite. -short
# keeps the heavy paper-scale audits and the 100k-server streaming pass
# out. The patterns are anchored so future tests merely containing
# "TestAudit" don't silently bloat the smoke gate.
race-smoke:
	$(GO) test -race -short -run '^TestAudit|^TestStreaming' ./internal/experiments
	$(GO) test -race -short -run '^TestSync|^TestSynth' ./internal/stream
	$(GO) test -race -count=3 ./internal/parallel
	$(GO) test -race -count=2 -run '^TestBatch|^TestResilientBatch' ./internal/measure
	$(GO) test -race -count=2 -run '^TestConditionWriters' ./internal/netsim

# Service soak (DESIGN.md §11): 32 concurrent clients through the full
# phase1→phase2→model→report loop under the race detector, asserting
# byte-identical transcripts vs the serial run and an exactly-once
# report ledger across a mid-soak graceful shutdown.
soak:
	$(GO) test -race -count=1 -run '^TestSoak' ./internal/loadgen

# Native fuzzing over the atlasd wire surface (query parsing, model
# path handling and report decoding) and its client source (arbitrary
# served landmark lists), over the geometry kernel (each
# quantized-mask op, the ring constraint, the pruned coverage argmax and
# geoloc.IntersectOrArgmax, against their per-cell oracles), over
# Theil–Sen's median-slope selection (against the all-pairs
# enumeration) and the rank selection behind it and Quantile (against
# sorting), over netsim.Path (a reused leg against fresh by-ID
# calls), netsim.NewRand (against math/rand's own source) and
# geoloc.Collapse (against a stable sort), FUZZTIME per target.
# The seed corpora also run (for free) in every plain `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPhase2Query$$' -fuzztime $(FUZZTIME) ./internal/atlasd
	$(GO) test -run '^$$' -fuzz '^FuzzModelPath$$' -fuzztime $(FUZZTIME) ./internal/atlasd
	$(GO) test -run '^$$' -fuzz '^FuzzReportDecode$$' -fuzztime $(FUZZTIME) ./internal/atlasd
	$(GO) test -run '^$$' -fuzz '^FuzzServedLandmarks$$' -fuzztime $(FUZZTIME) ./internal/atlasd
	for f in FuzzFillWithinKm FuzzIntersectWithinKm FuzzFillRingKm FuzzCoverageArgmax; do $(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) ./internal/grid || exit 1; done
	$(GO) test -run '^$$' -fuzz '^FuzzIntersectOrArgmax$$' -fuzztime $(FUZZTIME) ./internal/refimpl
	for f in FuzzTheilSen FuzzSelectRank; do $(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) ./internal/mathx || exit 1; done
	for f in FuzzPathMatchesNetwork FuzzNewRandMatchesStdlib; do $(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) ./internal/netsim || exit 1; done
	$(GO) test -run '^$$' -fuzz '^FuzzCollapse$$' -fuzztime $(FUZZTIME) ./internal/geoloc

# Coverage floor on the service packages: the coordination server and
# the load generator are concurrency-heavy, so untested branches there
# are where the races and drain bugs hide; the detection package holds
# the adversary verdict logic, where an untested branch is a blind spot
# an attacker sits in. Profiles are left on disk (cover_atlasd.out,
# cover_loadgen.out, cover_detect.out) for CI to archive.
cover:
	$(GO) test -coverprofile=cover_atlasd.out ./internal/atlasd
	$(GO) test -coverprofile=cover_loadgen.out ./internal/loadgen
	$(GO) test -coverprofile=cover_detect.out ./internal/detect
	@for f in cover_atlasd.out cover_loadgen.out cover_detect.out; do \
		total=$$($(GO) tool cover -func=$$f | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		echo "$$f: total coverage $$total% (floor $(COVER_FLOOR)%)"; \
		if [ "$$(awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { print (t+0 >= floor+0) }')" != "1" ]; then \
			echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; \
		fi; \
	done

# The audit benchmark under bench/ is a module of its own, so neither
# vet nor build over ./... compiles it. Vetting it in the fast lane
# catches an internal API change that breaks the benchmark.
benchvet:
	$(GO) -C bench vet .

# Every benchmark must at least compile and survive one iteration;
# without this, benchmark-only code (BenchmarkAudit's setup, metric
# plumbing) can rot unnoticed between benchmark runs. The audit
# benchmark under bench/ is a module of its own that ./... does not
# reach, so it is vetted and its layer micro-benchmarks run separately.
benchcompile: benchvet
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(GO) -C bench test -run '^$$' -bench . -benchtime 1x

fmtcheck:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The tiered gate (ci.yml mirrors this split): ci-fast is the PR lane —
# the checks that finish inside a few minutes, including the
# robustness, streaming-memory and adversary-floor tests that -short
# skips, and the benchmark module's vet; ci-deep is the race/soak/coverage/fuzz battery, which CI runs
# as a second job gated on the fast lane.
ci-fast: vet lint build test fmtcheck benchvet

ci-deep: benchcompile race-smoke soak cover fuzz-smoke

ci: ci-fast ci-deep

# The same gate, under the name the README documents for pre-push runs:
# what passes `make ci-local` passes the ci.yml workflow, nothing more.
ci-local: ci

clean:
	rm -f cover_atlasd.out cover_loadgen.out cover_detect.out
	$(GO) clean ./...
