GO ?= go

.PHONY: ci build vet test race bench-smoke bench-compare bench-pairs bench-build examples lint wire-golden chaos chaos-load fuzz-smoke loc loc-check

# ci mirrors .github/workflows/ci.yml: a missing package, vet
# regression, lint finding, race, broken example, broken benchmark,
# chaos regression, or fuzz crasher can never land silently again.
ci: build vet lint race examples bench-smoke bench-build chaos chaos-load fuzz-smoke loc loc-check

# lint builds the repo's own analyzer suite (cmd/distcfdvet: keyjoin,
# ctxflow, wirecompat, mmapclose) and runs it over every package via
# the vet -vettool protocol. Findings are suppressed per line with a
# //distcfd:<analyzer>-ok comment. staticcheck and govulncheck run too
# when installed, but are gated so the target works on a bare
# toolchain.
lint:
	$(GO) build -o bin/distcfdvet ./cmd/distcfdvet
	$(GO) vet -vettool=$$(pwd)/bin/distcfdvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "== staticcheck"; staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "== govulncheck"; govulncheck ./...; \
	else echo "govulncheck not installed; skipping"; fi

# wire-golden regenerates internal/remote/wire.golden, the committed
# fingerprint of the RPC wire structs that the wirecompat analyzer
# (make lint) checks against. Run after any deliberate wire change,
# review the diff, and commit the new golden alongside a WireVersion
# bump.
wire-golden:
	$(GO) build -o bin/distcfdvet ./cmd/distcfdvet
	./bin/distcfdvet -write-wire-golden internal/remote

# examples builds AND runs every examples/ program, so facade breakage
# (the examples exercise the public API end to end, including the RPC
# deployment mode over loopback) fails CI instead of rotting.
examples:
	@set -e; for d in examples/*/; do \
		echo "== go run ./$$d"; \
		$(GO) run ./$$d >/dev/null; \
	done

# chaos runs the fault-injection suites under the race detector with a
# randomized fault seed. The seed is printed before the run, and every
# failure replays exactly with
#   DISTCFD_CHAOS_SEED=<seed> make chaos
# Only the fault-plan seeds vary — data and partition seeds are fixed —
# so a red run is always a real robustness regression, never an
# "unlucky dataset".
chaos:
	@seed=$${DISTCFD_CHAOS_SEED:-$$(date +%s)}; \
	echo "== chaos (DISTCFD_CHAOS_SEED=$$seed)"; \
	DISTCFD_CHAOS_SEED=$$seed $(GO) test -race -count=1 \
		-run 'Chaos|Nonce|Fault|Parse|Crash|Rate|Latency|WrapListener|ErrorEnvelope|DialRetry|Redial' \
		./internal/faulty/ ./internal/core/ ./internal/remote/

# chaos-load is the overload companion to chaos: the admission, drain,
# deadline and backpressure suites under the race detector — 32
# concurrent Detect sessions against draining and overloaded sites,
# retry-after-vs-deadline budgeting, the drain RPC over loopback TCP,
# and the call clock (a call's budget at both ends of the wire, a
# cancelled caller, an idle connection). Same seed convention as chaos: printed
# before the run, replayed exactly with
#   DISTCFD_CHAOS_SEED=<seed> make chaos-load
chaos-load:
	@seed=$${DISTCFD_CHAOS_SEED:-$$(date +%s)}; \
	echo "== chaos-load (DISTCFD_CHAOS_SEED=$$seed)"; \
	DISTCFD_CHAOS_SEED=$$seed $(GO) test -race -count=1 \
		-run 'ChaosLoad|Admission|Overload|Drain|Deadline|SleepCtx|Breaker|EnvelopeRetryAfter|EnvelopeParamFree|WorkCtx|Ping|CallTimeout|CallContext|TimeoutIdle|CallBudget' \
		./internal/core/ ./internal/remote/ ./internal/faulty/

# fuzz-smoke actually fuzzes every fuzz target for a fixed 10 s
# each — `go test` alone only replays the checked-in seed corpora. The
# toolchain fuzzes one target per invocation, hence the loop. A crasher
# is written under the package's testdata/fuzz/<target>/ and fails the
# target; commit that file with the fix so it replays forever after.
fuzz-smoke:
	@set -e; for t in internal/engine:FuzzKernel internal/engine:FuzzIncremental internal/colstore:FuzzChunkCodec internal/colstore:FuzzDeltaLog internal/remote:FuzzWirePacked internal/remote:FuzzWireSections \
			internal/cfd:FuzzParseRules internal/remote:FuzzErrorEnvelope internal/colstore:FuzzFragmentOpen cmd/cfddetect:FuzzFollowLine \
			internal/relation:FuzzDictChain internal/relation:FuzzConcat internal/core:FuzzSiteArgs; do \
		echo "== fuzz $${t#*:} (10s)"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime 10s ./$${t%%:*}; \
	done

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-smoke runs the per-package benchmarks — the ablations that price
# a design decision the repository benchmark cannot see, each beside the
# code it measures — once, so benchmark code cannot rot. Numbers that
# count come from bench/ (bench-compare, bench-pairs), not from here.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-build vets and tests the benchmark program. bench/ is a module
# of its own (BENCHMARK.json builds it from there), so the root
# `go build ./...` and `go test ./...` never see it: without this
# target a core or remote API change breaks the benchmark silently.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-compare is the repository benchmark against itself: a detached
# worktree of the merge-base with origin/main (HEAD~1 without that
# remote; BASE_REF overrides) and this tree each run the whole set at
# fixed operation counts, and `bench -compare` judges the two result
# files with BENCHMARK.json's bounds — eight end-to-end metrics on four
# workloads. Only a `regressed` row (a failed operation on this side is
# one) fails the target, and CI runs it blocking. About 5 min on 2 vCPUs.
# `make bench-compare BASE=<dir>` takes the baseline from a plain copy
# of it at <dir> (`git archive <ref> | tar -x -C <dir>`, or a `git
# clone`) instead, which builds and runs in place: no worktree.
bench-compare:
	@set -e; \
	if [ -n "$(BASE)" ]; then \
		wt=$$(cd "$(BASE)" && pwd); echo "== bench-compare: baseline $$wt"; \
	else \
		base=$${BASE_REF:-$$(git merge-base HEAD origin/main 2>/dev/null || git rev-parse HEAD~1)}; \
		if git diff --quiet "$$base" --; then echo "bench-compare: this tree is the baseline ($$base); nothing to compare"; exit 0; fi; \
		wt=$$(mktemp -d); trap 'git worktree remove --force "$$wt" >/dev/null 2>&1 || true; rm -rf "$$wt"' EXIT; \
		git worktree add --detach -q "$$wt" "$$base"; \
		echo "== bench-compare: baseline $$(git rev-parse --short "$$base")"; \
	fi; \
	rm -rf .bench_build/compare "$$wt"/.bench_build/compare; \
	(cd "$$wt" && bash bench/run.sh -scale 0.25 -seconds 0 -out .bench_build/compare); \
	echo "== bench-compare: this tree"; \
	bash bench/run.sh -scale 0.25 -seconds 0 -out .bench_build/compare; \
	bash bench/run.sh -compare "$$wt"/.bench_build/compare/set-*.json .bench_build/compare/set-*.json

# bench-pairs is the procedure a performance claim is judged by: N
# alternating pairs of the repository benchmark (BENCHMARK.json's own
# command) between the checkout at BASE — a `git clone` or `git archive`
# copy of the parent commit — and this one, reporting per end-to-end
# metric each side's median and quartiles, the pairs won and the failed
# operations, and whether the claim rule holds (won >= 9 in 10 pairs and
# |Δ median| above the base's quartile spread). `make bench-pairs
# BASE=/path/to/parent W=bulk-store-tcp N=10`; SEED=7 in the environment
# picks another input seed, and SCALE and SECONDS (default 0.25 and 15,
# the benchmark's own) pass through to every run.
W ?= bulk-store-tcp
N ?= 10
SCALE ?= 0.25
SECONDS ?= 15
bench-pairs:
	@SCALE="$(SCALE)" SECONDS="$(SECONDS)" sh scripts/bench_pairs.sh "$(BASE)" "$(W)" "$(N)"

# loc prints the non-test Go line count of every package outside
# bench/ — the figure ROADMAP's state paragraph and the simplicity
# acceptance criteria quote — and the total. ci ends with it, so every
# green run records the numbers.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# loc-check is the ratchet on the one figure ROADMAP item 2 sets a
# target for (≤ 6.7K): the non-test lines of internal/core +
# internal/remote + internal/faulty, as `make loc` counts them, may not
# exceed LOC_CEILING. A PR that shrinks the sum lowers the ceiling to
# its own result in the same commit, so the target can only be
# approached. The total non-test count outside bench/ is printed beside
# it for the record; it is not gated.
LOC_CEILING = 6805
loc-check:
	@$(MAKE) -s --no-print-directory loc | awk -v max=$(LOC_CEILING) \
		'$$2 ~ /^\.\/internal\/(core|remote|faulty)$$/ { n += $$1 } $$2 == "total" { t = $$1 } \
		END { printf "core + remote + faulty: %d non-test lines (ceiling %d); total outside bench/: %d\n", n, max, t; exit (n > max) }'
