# Development targets. `make check` is the gate every change must pass:
# it builds all packages, vets them, lints them with the project analyzers
# (docs/ANALYSIS.md), runs the tests under the race detector (the sim
# package replicates runs on concurrent goroutines, so -race is
# load-bearing, not ceremonial), and vets and tests the perfbench module.
# `make ci` is the stricter batch gate: check plus a gofmt diff check,
# the units-check golden byte-identity gate, a short fuzz smoke, the
# fault soak (docs/ROBUSTNESS.md): a long run with every injection site
# firing at an elevated rate, per-slot invariants on, under the race
# detector — the serve and cluster smokes (docs/SERVER.md,
# docs/CLUSTER.md), bench-json, the benchmark trajectory gate
# (docs/PERFORMANCE.md), bench-smoke, the repository benchmark's own
# output check on every workload (perfbench/README.md), validate, the
# reproduction certificate, and figures-check, which holds the committed
# out/ figures and report to what the code writes.

GO ?= go
FUZZTIME ?= 15s

# The full analyzer suite, spelled out so `make lint` exercises the
# driver's -analyzers selection path; must match analysis.All().
ANALYZERS = norawrand,nofloateq,droppederr,unguardedgo,unitmix,mapiter,wallclock,detflow,locksafe,hotalloc,resleak,ctxflow,errcmp

.PHONY: check ci build vet perfbench-check lint lint-audit lint-sarif test race fuzz soak bench bench-json bench-smoke fmt fmtcheck units-check dist-check serve-smoke cluster-smoke validate figures figures-check clean

check: build vet lint race perfbench-check

ci: fmtcheck check lint-audit lint-sarif units-check dist-check fuzz soak serve-smoke cluster-smoke bench-json bench-smoke validate figures-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# perfbench/ is its own module (it replaces greencell with ../), so
# `go build ./...` and `go test ./...` never compile it; this builds the
# benchmark against the current server/cluster API, offline.
perfbench-check:
	cd perfbench && GOPROXY=off $(GO) vet ./... && GOPROXY=off $(GO) test ./...

lint:
	$(GO) run ./cmd/greencell-lint -timings -analyzers $(ANALYZERS) ./...

# Fails on //lint:allow annotations whose analyzer no longer fires on the
# lines they cover, so suppressions are pruned with the code they excused.
lint-audit:
	$(GO) run ./cmd/greencell-lint -audit-suppressions ./...

# Machine-readable lint log for code-review upload (SARIF 2.1.0); the run
# both gates (exit 1 on findings) and leaves the log in out/.
lint-sarif:
	@mkdir -p out
	$(GO) run ./cmd/greencell-lint -sarif -analyzers $(ANALYZERS) ./... > out/lint.sarif

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fuzz:
	$(GO) test -run=FuzzScenario -fuzz=FuzzScenario -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=FuzzNetworkRunner -fuzz=FuzzNetworkRunner -fuzztime=$(FUZZTIME) ./internal/sim

soak:
	$(GO) test -race -run='TestFaultSoak|TestFaultEverySite' -v ./internal/sim

bench:
	$(GO) test -bench=. -benchmem .

# Benchmark trajectory gate (docs/PERFORMANCE.md): smoke-runs every
# trajectory benchmark once to prove the harness still parses, validates
# the committed BENCH_9.json, and fails on a >20% ns/op regression
# between its last two trajectory points. Record a new point with:
#   go run ./cmd/benchtrend -label <point-label>
bench-json:
	$(GO) run ./cmd/benchtrend -check

# Benchmark correctness smoke: runs every BENCHMARK.json workload for one
# second, traced, through the script the benchmark itself runs. Each run
# still completes its fixed prefix of runs or jobs, and its last line
# must report "correct":true: no degraded slot, no unserved energy, no
# run error, a rerun with invariants on that matches the timed run, and
# exact counters that repeat. Builds into .bench_build/.
BENCH_WORKLOADS = paper-sf rural-s4 dist-dup fleet-mix

bench-smoke:
	@set -e; for w in $(BENCH_WORKLOADS); do \
		out="$$(bash perfbench/run.sh --workload $$w --seconds 1 --trace 1)" || \
			{ printf '%s\n' "$$out" | tail -n 20; echo "bench-smoke: $$w failed"; exit 1; }; \
		case "$$(printf '%s\n' "$$out" | tail -n 1)" in \
		*'"correct":true'*) echo "bench-smoke: $$w correct" ;; \
		*) printf '%s\n' "$$out" | tail -n 20; echo "bench-smoke: $$w is not correct"; exit 1 ;; \
		esac; \
	done

fmt:
	gofmt -l -w .

fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Asserts the fixed-seed metrics JSONL stream is byte-identical to the
# committed golden fixture — the typed-units refactor contract
# (docs/ANALYSIS.md). Regenerate deliberately with:
#   go test ./internal/sim -run MetricsGoldenByteIdentity -update
units-check:
	$(GO) test ./internal/sim -run MetricsGoldenByteIdentity

# Distributed-controller gate (docs/DISTRIBUTED.md): the fidelity check —
# a perfect-network distributed run must be byte-identical to the
# monolithic golden fixture — plus the 1000-slot 5%-loss soak with
# per-node invariants on and bit-identical reruns asserted.
dist-check:
	$(GO) test ./internal/sim -run 'TestDistPerfectMatchesMonolith|TestDistFidelityGolden|TestDistLossSoak|TestDistPartition' -v
	$(GO) test ./internal/machine

# End-to-end daemon gate (docs/SERVER.md): builds greencelld and
# greencellsim, submits the golden scenario over HTTP, diffs the streamed
# metrics against the golden fixture, then SIGTERMs a running job and
# verifies the drain leaves it journaled and recoverable on restart.
serve-smoke:
	GREENCELL_SERVE_SMOKE=1 $(GO) test -run TestServeSmoke -v ./internal/server

# End-to-end cluster gate (docs/CLUSTER.md): builds greencelld,
# greencell-coord, and greencellsim, runs a coordinator over three worker
# daemons, diffs the golden scenario streamed through the coordinator
# against the committed fixture, SIGKILLs a worker holding a lease
# mid-job and verifies the re-dispatched merged stream still matches the
# local golden byte-for-byte, then proves a resubmit is served entirely
# from the content-addressed cache (zero new dispatches).
cluster-smoke:
	GREENCELL_CLUSTER_SMOKE=1 $(GO) test -run TestClusterSmoke -timeout 300s -v ./internal/cluster

# Reproduction certificate (about 3 s): the seven paper checks — Lemma 1
# drift, strong stability, no deficit, conservation, the Theorem 4/5
# bound sandwich and its tightening in V, and the architecture ranking of
# Fig. 2(f). Exits 1 if any check fails.
validate:
	$(GO) run ./cmd/validate

# Regenerates the committed reproduction artifacts: every Fig. 2 panel
# (TSV + SVG) and the HTML report, all at paper scale.
figures:
	$(GO) run ./cmd/figures -out out
	$(GO) run ./cmd/report -out out/report.html

# Fails if the committed artifacts differ from what `make figures` would
# write: regenerates them into a temp dir and diffs each file against out/.
figures-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/figures -out "$$tmp" > /dev/null && \
	$(GO) run ./cmd/report -out "$$tmp/report.html" > /dev/null && \
	for f in "$$tmp"/*; do cmp -s "$$f" "out/$${f##*/}" || \
		{ echo "figures-check: out/$${f##*/} is stale; run make figures"; exit 1; }; done; \
	echo "figures-check: out/ matches"

clean:
	rm -rf out
