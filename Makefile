GO ?= go
SF ?= 0.05
REPS ?= 5

# SUFFIX distinguishes fresh figure emissions from committed baselines:
# CI runs the bench targets with SUFFIX=.new, then `make benchdiff`
# compares BENCH_<stem>.json against BENCH_<stem>.new.json. The *_OUT
# variables remain overridable per figure.
SUFFIX ?=

# Pinned lint/scan tool versions (module semver; staticcheck v0.6.1 is
# the 2025.1.1 release). `make lint` installs exactly these; CI caches
# ~/go/bin keyed on the Makefile hash, so a version bump here rebuilds
# the tools and nothing else ever re-downloads them.
STATICCHECK_VERSION ?= v0.6.1
GOVULNCHECK_VERSION ?= v1.1.4

# Figure output stems, in bench/benchdiff/clean order.
FIG_STEMS := parallel joins compact prune cluster serve govern

PAR_OUT ?= BENCH_parallel$(SUFFIX).json
JOINS_OUT ?= BENCH_joins$(SUFFIX).json
COMPACT_OUT ?= BENCH_compact$(SUFFIX).json
PRUNE_OUT ?= BENCH_prune$(SUFFIX).json
CLUSTER_OUT ?= BENCH_cluster$(SUFFIX).json
SERVE_OUT ?= BENCH_serve$(SUFFIX).json
GOVERN_OUT ?= BENCH_govern$(SUFFIX).json

# Per-target budget of `make fuzz-smoke`.
FUZZTIME ?= 10s

.PHONY: build vet fmt test lint race-stress serve-smoke bench-check fuzz-smoke \
	bench bench-par bench-joins bench-compact bench-prune bench-cluster bench-serve bench-govern \
	benchdiff clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file needs gofmt. It needs no network, so `make test`
# enforces it offline as well as `make lint`.
fmt:
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }

# -count=1: a cached `ok` must not hide a package that fails one run in N.
test: fmt build vet
	$(GO) test -count=1 ./...

# Pinned static analysis + vulnerability scan. CI calls this instead of
# re-typing tool invocations.
lint: fmt
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
	"$$($(GO) env GOPATH)/bin/staticcheck" ./...
	"$$($(GO) env GOPATH)/bin/govulncheck" ./...

# The parallel-scan, pipeline, parallel-join, parallel-compaction,
# maintainer and HTTP-front-door stress tests (exactly-once and exact
# serial results under churn + compaction + request storms) under the
# race detector.
race-stress:
	$(GO) test -race -run 'Parallel|Maintainer|Compact|Pruned|Fault|Cancel|Budget|Cluster|Serve|Govern' \
		./internal/mem ./internal/core ./internal/query ./internal/tpch ./internal/region ./internal/serve

# End-to-end smoke of the smcserve front door: boot on a small SF, curl
# a parameterized Q6 and /stats, assert the served sum equals the
# serial oracle and that a client-abandoned request leaks nothing.
serve-smoke:
	./scripts/serve_smoke.sh

# benchmark/ is its own module (BENCHMARK.json's served-path benchmark),
# so `go build ./...` and `go test ./...` at the root never compile it:
# an engine signature it imports can change and break it silently. This
# vets it and runs its own tests against the working tree.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# Every native fuzz target in the module, FUZZTIME each (a target's seed
# corpus already runs in `make test`; this lets the fuzzer mutate it).
fuzz-smoke:
	@$(GO) test -list '^Fuzz' ./... | \
		awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
		while read -r pkg target; do \
			echo "fuzz-smoke: $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) "$$pkg" || exit 1; \
		done

# bench-<fig> emits one figure's JSON; `make bench` keeps its historical
# meaning (the parallel-scan scaling figure).
bench: bench-par

bench-par:
	$(GO) run ./cmd/smcbench -fig par -sf $(SF) -reps $(REPS) -json $(PAR_OUT)

bench-joins:
	$(GO) run ./cmd/smcbench -fig joins -sf $(SF) -reps $(REPS) -json-joins $(JOINS_OUT)

bench-compact:
	$(GO) run ./cmd/smcbench -fig compact -sf $(SF) -reps $(REPS) -json-compact $(COMPACT_OUT)

bench-prune:
	$(GO) run ./cmd/smcbench -fig prune -sf $(SF) -reps $(REPS) -json-prune $(PRUNE_OUT)

bench-cluster:
	$(GO) run ./cmd/smcbench -fig cluster -sf $(SF) -reps $(REPS) -json-cluster $(CLUSTER_OUT)

bench-serve:
	$(GO) run ./cmd/smcbench -fig serve -sf $(SF) -reps $(REPS) -json-serve $(SERVE_OUT)

bench-govern:
	$(GO) run ./cmd/smcbench -fig govern -sf $(SF) -reps $(REPS) -json-govern $(GOVERN_OUT)

# Perf-regression gate: compare freshly emitted *.new.json figures
# against the committed baselines (workers=1 points, >30% fails; skips
# cleanly on a CPU-count or SF mismatch). Run the bench targets with
# SUFFIX=.new first — see .github/workflows/ci.yml.
benchdiff:
	@for s in $(FIG_STEMS); do \
		$(GO) run ./cmd/benchdiff -skip-missing BENCH_$$s.json BENCH_$$s.new.json || exit 1; \
	done

clean:
	rm -f $(foreach s,$(FIG_STEMS),BENCH_$(s).json BENCH_$(s).new.json)
