# Build, test and benchmark targets for the activegeo repo.
#
#   make ci            full gate: ci-fast then ci-deep (what a green main means)
#   make ci-fast       the PR fast lane: vet + lint + build + unit tests + gofmt
#                      (the unit tests include the quick-fleet golden audit
#                      and the zero-cell check against internal/refimpl)
#   make ci-deep       the deep lane: bench compile + race smoke + soak + cover
#                      + fuzz smoke + the adversary detection floors
#   make ci-local      alias for `make ci` — the exact gate .github/workflows/ci.yml runs
#   make lint          geolint static-analysis suite over the whole tree (DESIGN.md §9)
#   make lint-json     same suite, machine-readable geolint.json (the CI artifact)
#   make vuln          govulncheck, if installed; soft-fails offline
#   make race          full test suite under the race detector
#   make race-smoke    quick audit pipeline and measure batch, under the race detector
#   make soak          32-client atlasd soak (determinism + graceful drain) under -race
#   make fuzz-smoke    30s/target fuzz pass over the atlasd wire surface, the geometry kernel and Theil–Sen
#   make cover         per-package coverage with an 85% floor on the service packages
#   make bench-faults  robustness sweep: tallies vs injected loss -> BENCH_faults.json
#   make bench-atlasd  32-client coordination-service load test -> BENCH_atlasd.json
#   make bench-stream  audit-engine incremental check + 100k bounded-memory run -> BENCH_stream.json
#   make bench-adversary  attack-matrix detection floors (precision/recall) -> BENCH_adversary.json

GO ?= go
FUZZTIME ?= 30s
COVER_FLOOR ?= 85.0

.PHONY: all vet lint lint-json vuln build test race race-smoke soak fuzz-smoke cover ci ci-fast ci-deep ci-local benchcompile fmtcheck bench-faults bench-atlasd bench-stream bench-adversary clean

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
# (tiny constellation, real worker pools, bounded queues) and
# measure.Batch — the single entry point for honest, resilient and
# adversarial measurement — under the race detector; fast enough for
# every CI run, unlike the full `make race` suite. -short keeps the
# heavy paper-scale audits out. The patterns are anchored so future
# tests merely containing "TestAudit" don't silently bloat the smoke
# gate.
race-smoke:
	$(GO) test -race -short -run '^TestAudit|^TestStreaming' ./internal/experiments
	$(GO) test -race -run '^TestSync|^TestSynth' ./internal/stream
	$(GO) test -race -run '^TestBatch|^TestResilientBatch' ./internal/measure

# Service soak (DESIGN.md §11): 32 concurrent clients through the full
# phase1→phase2→model→report loop under the race detector, asserting
# byte-identical transcripts vs the serial run and an exactly-once
# report ledger across a mid-soak graceful shutdown.
soak:
	$(GO) test -race -count=1 -run '^TestSoak' ./internal/loadgen

# Native fuzzing over the atlasd wire surface (query parsing, model
# path handling and report decoding), over the geometry kernel (each
# quantized-mask op, and the bit-sliced coverage argmax, against its
# per-cell oracle) and over Theil–Sen's median-slope selection
# (against the all-pairs enumeration), FUZZTIME per target.
# The seed corpora also run (for free) in every plain `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPhase2Query$$' -fuzztime $(FUZZTIME) ./internal/atlasd
	$(GO) test -run '^$$' -fuzz '^FuzzModelPath$$' -fuzztime $(FUZZTIME) ./internal/atlasd
	$(GO) test -run '^$$' -fuzz '^FuzzReportDecode$$' -fuzztime $(FUZZTIME) ./internal/atlasd
	for f in FuzzFillWithinKm FuzzIntersectWithinKm FuzzFillRingKm FuzzCoverageArgmax; do $(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) ./internal/grid || exit 1; done
	$(GO) test -run '^$$' -fuzz '^FuzzTheilSen$$' -fuzztime $(FUZZTIME) ./internal/mathx

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

# Every benchmark must at least compile and survive one iteration;
# without this, bench-only code (reference implementations, metric
# plumbing) can rot unnoticed between benchmark runs. The audit
# benchmark under bench/ is a module of its own that ./... does not
# reach, so it is vetted and its layer micro-benchmarks run separately.
benchcompile:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(GO) -C bench vet . && $(GO) -C bench test -run '^$$' -bench . -benchtime 1x

fmtcheck:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The tiered gate (ci.yml mirrors this split): ci-fast is the PR lane —
# everything a reviewer needs inside a few minutes; ci-deep is the
# race/soak/coverage/fuzz battery plus the adversary detection floors,
# which CI runs as a second job gated on the fast lane.
ci-fast: vet lint build test fmtcheck

ci-deep: benchcompile race-smoke soak cover fuzz-smoke bench-adversary

ci: ci-fast ci-deep

# The same gate, under the name the README documents for pre-push runs:
# what passes `make ci-local` passes the ci.yml workflow, nothing more.
ci-local: ci

# The bench-* targets below each write one cmd/benchaudit report
# (environment, metrics, and every check with its bound) and exit
# non-zero if any check fails, after writing it.

# Robustness sweep: the full audit plus five-algorithm crowd
# localization at each loss rate of the default sweep, recorded in
# BENCH_faults.json (DESIGN.md §10).
bench-faults:
	$(GO) run ./cmd/benchaudit -mode faults -out BENCH_faults.json

# Coordination-service load test: serial vs 32-way-concurrent loadgen
# runs (aborts unless byte-identical), plus a graceful-shutdown
# scenario that must drop zero accepted reports, recorded in
# BENCH_atlasd.json (DESIGN.md §11).
bench-atlasd:
	$(GO) run ./cmd/benchaudit -mode atlasd -out BENCH_atlasd.json

# Audit-engine certification: a second pass over the unchanged quick
# fleet must re-measure nothing, then a synthetic 100,000-server pass
# with per-batch heap sampling must stay under the bounded-memory
# ceiling and the queue+2 batch provisioning bound and re-measure
# nothing on its second pass, recorded in BENCH_stream.json.
bench-stream:
	$(GO) run ./cmd/benchaudit -mode stream -out BENCH_stream.json

# Adversary detection floors: the full audit under every point of the
# default attack matrix (lying proxies, Byzantine landmarks, blends and
# an all-honest control), serially and at the machine's width on fresh
# labs. Aborts non-zero unless the two sweeps are byte-identical and
# the pooled detection quality clears precision ≥ 0.9 / recall ≥ 0.8,
# recorded in BENCH_adversary.json (DESIGN.md §14).
bench-adversary:
	$(GO) run ./cmd/benchaudit -mode adversary -out BENCH_adversary.json

clean:
	rm -f BENCH_faults.json BENCH_atlasd.json BENCH_stream.json BENCH_adversary.json
	rm -f cover_atlasd.out cover_loadgen.out cover_detect.out
	$(GO) clean ./...
