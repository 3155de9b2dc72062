GO ?= go

# Pinned lint/scan tool versions (module semver; staticcheck v0.6.1 is
# the 2025.1.1 release). `make lint` installs exactly these; CI caches
# ~/go/bin keyed on the Makefile hash, so a version bump here rebuilds
# the tools and nothing else ever re-downloads them.
STATICCHECK_VERSION ?= v0.6.1
GOVULNCHECK_VERSION ?= v1.1.4

# `make perf-gate`: the served benchmark at BASE vs the working tree,
# PAIRS alternating seed pairs per workload of RUN_SECONDS each
# (RUN_SECONDS empty = BENCHMARK.json's run_seconds, WORKLOADS empty =
# all five).
BASE ?= origin/main
PAIRS ?= 4
RUN_SECONDS ?=
WORKLOADS ?=

# Per-target budget of `make fuzz-smoke`.
FUZZTIME ?= 10s

.PHONY: build vet fmt test lint race-stress serve-smoke bench-check examples fuzz-smoke perf-gate clean

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
# maintainer, §3.1 overflow-rescue and HTTP-front-door stress tests (exactly-once and exact
# serial results under churn + compaction + request storms), plus the
# figure harnesses that measure from concurrent goroutines, under the
# race detector.
race-stress:
	$(GO) test -race -run 'Parallel|Maintainer|Compact|Rescue|Pruned|Fault|Cancel|Budget|Cluster|Serve|Govern|RuntimeStats|Figure9' \
		./internal/mem ./internal/core ./internal/query ./internal/tpch ./internal/region ./internal/serve \
		./internal/bench

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

# Builds every examples/* program into a temporary directory and runs
# it at its built-in scale factor; a non-zero exit fails the target
# (each example log.Fatals when a result diverges from its oracle).
examples:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	for ex in examples/*/; do \
		name="$$(basename "$$ex")"; \
		echo "examples: $$name"; \
		$(GO) build -o "$$dir/$$name" "./$$ex" || exit 1; \
		"$$dir/$$name" || { echo "examples: $$name exited non-zero"; exit 1; }; \
	done

# Every native fuzz target in the module, FUZZTIME each (a target's seed
# corpus already runs in `make test`; this lets the fuzzer mutate it).
fuzz-smoke:
	@$(GO) test -list '^Fuzz' ./... | \
		awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
		while read -r pkg target; do \
			echo "fuzz-smoke: $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) "$$pkg" || exit 1; \
		done

# Perf gate: scripts/ab.sh builds BENCHMARK.json's benchmark from BASE
# and from the working tree and alternates them on this host; it fails
# when a median end-to-end metric is worse than its bound or any round
# fails. Claims are made with this, at the protocol in ROADMAP.md.
perf-gate:
	bash scripts/ab.sh $(BASE) --pairs $(PAIRS) $(if $(RUN_SECONDS),--seconds $(RUN_SECONDS)) $(WORKLOADS)

# The benchmark's and the perf gate's builds, caches and run outputs.
clean:
	rm -rf .bench_build
