# Developer entry points. CI runs `make ci`.

GO ?= go

.PHONY: all build cross-build test vet fmt lint guard race stream-check streamd check ci bench bench-sim bench-smoke bench-query bench-query-smoke bench-stream bench-stream-smoke bench-whatif bench-ab optimize-smoke fleet-smoke queryd-smoke serve-smoke scenario-smoke archive-smoke fuzz-smoke examples-smoke bench-report loc clean

all: check

build:
	$(GO) build ./...

# cross-build compiles every package for 32-bit x86, arm64 and ppc64le
# (POWER9, Summit's ISA): code that only compiles on amd64 — a constant
# that overflows a 32-bit int, a file without its architecture's twin —
# fails here.
cross-build:
	for arch in 386 arm64 ppc64le; do \
		echo "cross-build: GOARCH=$$arch"; \
		GOARCH=$$arch $(GO) build ./... || exit 1; \
	done

test:
	$(GO) test ./...

# vet runs the standard passes. copylocks among them is the repository's
# lock-copy gate (a sync.Mutex passed or assigned by value), which is why
# check and ci run vet before lint: reprolint has no rule of its own for it.
vet:
	$(GO) vet ./...

# fmt fails (listing the files) when anything needs gofmt.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs reprolint, the repository's own static-analysis suite (see
# internal/lint): six analyzers over one program — determinism (wall
# clocks, global math/rand, map-order accumulation and racing selects, in
# the simulation and cmd packages and in anything a //lint:detroot function
# reaches), unitsafety, errwrap, allocfree, ctxflow and leakcheck. Its
# output is text and its only green state is zero findings.
lint:
	$(GO) run ./cmd/reprolint ./...

# guard runs, on one module load, the lint gate in test form and the
# earn-or-delete guards over the root package and internal/...: every
# exported function and method has a caller outside tests, implements an
# interface that declares it, or is listed in cmd/reprolint's keptUncalled
# with its reason; every exported field of an exported struct type is
# written outside tests or is listed in keptUnset with its reason; and every
# flag a command registers is listed in keptFlags with its caller file, its
# documented run, or as a deployment setting.
guard:
	$(GO) test -run 'TestRepoIsLintClean|TestExportedFunctionsHaveCallers|TestExportedFieldsAreSet|TestFlagsHaveCallers' ./cmd/reprolint

# race runs every package under the race detector; the heavyweight
# simulation tests are trimmed so this stays bounded.
race:
	$(GO) test -race ./...

# stream-check gates the live streaming-analysis plane: core's online
# operators against their reference batch loops, the batch/stream parity
# test, then the full internal/stream suite under the race detector
# (backpressure, stalled-consumer shedding, graceful shutdown).
stream-check:
	$(GO) test -race -run 'TestOperatorsMatchReferences|TestEdgeDetectorResolvesDurationsLate' ./internal/core
	$(GO) test -race -run TestBatchStreamParity ./internal/stream
	$(GO) test -race ./internal/stream

# streamd runs the live service against an embedded simulated feed; query
# it at http://127.0.0.1:8090/api/v1/live/rollup while it runs.
streamd:
	$(GO) run ./cmd/streamd -sim-minutes 30

# check is the full gate: compile, format, vet, lint, unit tests, then the
# race detector.
check: build fmt vet lint test stream-check race

# ci mirrors .github/workflows/ci.yml, step for step (the
# pull-request-only bench-ab against the merge base aside).
ci: fmt vet lint guard build cross-build test stream-check race bench-smoke bench-query-smoke bench-stream-smoke optimize-smoke fleet-smoke queryd-smoke serve-smoke scenario-smoke archive-smoke fuzz-smoke examples-smoke

bench:
	$(GO) test -run xxx -bench . -benchmem .

# bench-sim runs the simulator benchmarks and records the results in
# BENCH_sim.json under the given LABEL (default post-optimization), next to
# the tracked pre-PR baseline. See the README's Performance section.
LABEL ?= post-optimization
bench-sim:
	$(GO) test -run xxx -bench 'BenchmarkSim' -benchmem -count 3 . | \
		$(GO) run ./cmd/benchjson -out BENCH_sim.json -label $(LABEL)

# bench-smoke is the CI guard: one iteration of each simulator benchmark,
# so the hot path and the benchmark harness itself stay buildable and
# runnable without CI paying for a real measurement.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkSim' -benchmem -benchtime 1x .

# bench-query records the query-tier benchmarks (cold decode, cached,
# pre-aggregate, reply-cache hits through the HTTP handler) and the
# archive codec's layers (day flush, DayMeta, column skip) in
# BENCH_query.json under LABEL; the report then renders it beside the labels
# already tracked there.
QUERY_BENCH = BenchmarkQuery|BenchmarkHTTP|BenchmarkWriteNodeDay|BenchmarkDayMeta|BenchmarkSkipDelta
bench-query:
	$(GO) test -run xxx -bench '$(QUERY_BENCH)' -benchmem -count 3 . | \
		$(GO) run ./cmd/benchjson -out BENCH_query.json -label $(LABEL)

# bench-query-smoke is the CI guard: one iteration of each query benchmark,
# plus a parse check of the tracked BENCH_query.json.
bench-query-smoke:
	$(GO) test -run xxx -bench '$(QUERY_BENCH)' -benchmem -benchtime 1x .
	$(GO) run ./cmd/benchjson -report - BENCH_query.json >/dev/null

# bench-stream records the live plane's in-process benchmarks (one
# 256-node fleet window, and one Summit-scale event-second, through Ingest,
# the fold goroutine and the operators, drain included) in BENCH_stream.json
# under LABEL. To add a label for another commit, run the same target in a
# checkout of it with this bench_test.go's stream benchmarks and -out
# pointing back here.
STREAM_BENCH = ^BenchmarkStreamIngest(Summit)?$$
bench-stream:
	$(GO) test -run xxx -bench '$(STREAM_BENCH)' -benchmem -count 3 . | \
		$(GO) run ./cmd/benchjson -out BENCH_stream.json -label $(LABEL)

# bench-stream-smoke is the CI guard: one iteration of each stream benchmark
# (both fail on any dropped sample), plus a parse check of the tracked
# BENCH_stream.json.
bench-stream-smoke:
	$(GO) test -run xxx -bench '$(STREAM_BENCH)' -benchmem -benchtime 1x .
	$(GO) run ./cmd/benchjson -report - BENCH_stream.json >/dev/null

# bench-whatif measures what-if scenario-evaluation throughput (runs/sec)
# and records it in BENCH_whatif.json under LABEL.
bench-whatif:
	$(GO) test -run xxx -bench 'BenchmarkWhatifBatch' -benchmem -count 3 ./internal/whatif | \
		$(GO) run ./cmd/benchjson -out BENCH_whatif.json -label $(LABEL)

# bench-ab is the paired A/B of the choosing-metrics procedure in one
# command: check BASE out into a temporary git worktree, run PAIRS pairs of
# the end-to-end benchmark on one WORKLOAD — alternating which side goes
# first, a fresh seed per pair (SEED, SEED+1, ...) — and finish with the
# benchmark's own verdict (medians, quartiles, wins out of pairs). A is the
# base, B this checkout; both result files land in .bench_build/ab/. The
# worktree is removed on exit, also after a failure. BASE_DIR=<dir> uses an
# existing checkout of the base instead of making a worktree.
BASE ?= HEAD~1
WORKLOAD ?= query-dash
PAIRS ?= 10
SEED ?= 101
BASE_DIR ?=
bench-ab:
	@set -eu; out="$$PWD/.bench_build/ab"; mkdir -p "$$out"; rm -f "$$out/A.json" "$$out/B.json"; \
	base="$(BASE_DIR)"; \
	if [ -z "$$base" ]; then \
		base=$$(mktemp -d); \
		trap 'git worktree remove --force "$$base" >/dev/null 2>&1 || rm -rf "$$base"' EXIT; \
		git worktree add --detach "$$base" $(BASE) >/dev/null; \
	fi; \
	run() { echo "bench-ab: pair $$i seed $$seed: $$1"; \
		(cd "$$2" && $(GO) run ./bench -workload $(WORKLOAD) -seed $$seed -out "$$out/$$1.json" >/dev/null); }; \
	i=0; while [ $$i -lt $(PAIRS) ]; do \
		seed=$$(( $(SEED) + i )); \
		if [ $$(( i % 2 )) -eq 0 ]; then run A "$$base"; run B .; else run B .; run A "$$base"; fi; \
		i=$$(( i + 1 )); \
	done; \
	$(GO) run ./bench -compare "$$out/A.json" "$$out/B.json"

# optimize-smoke is the CI guard for the what-if control plane: a short
# catalog sweep run twice at different worker counts must produce
# byte-identical sweep logs (the bit-reproducibility contract).
optimize-smoke:
	$(GO) build -o /tmp/optimize-smoke ./cmd/optimize
	/tmp/optimize-smoke -list
	/tmp/optimize-smoke -study heatwave-setpoint -strategy grid -workers 1 -out /tmp/whatif-w1.json
	/tmp/optimize-smoke -study heatwave-setpoint -strategy grid -workers 4 -out /tmp/whatif-w4.json
	cmp /tmp/whatif-w1.json /tmp/whatif-w4.json
	rm -f /tmp/optimize-smoke /tmp/whatif-w1.json /tmp/whatif-w4.json

# examples-smoke builds every program under examples/ into a temporary
# directory and runs each one; a non-zero exit fails it, printing the
# program's output. The build gates compile the examples; this runs them.
examples-smoke:
	@set -e; bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	for dir in examples/*/; do \
		name=$$(basename $$dir); \
		$(GO) build -o "$$bin/$$name" ./$$dir; \
		"$$bin/$$name" > "$$bin/$$name.out" 2>&1 || { code=$$?; echo "examples-smoke: $$name exited $$code"; cat "$$bin/$$name.out"; exit 1; }; \
		echo "examples-smoke: $$name ok"; \
	done

# fleet-smoke gates the multi-cluster fleet: a 2-cluster fleet is written,
# each member's reports printed by `repro -data` through its one archive
# reader (Table 3 and the 19 reports that read a run: 20 headings and no
# line naming a report missing), the fleet root refused by it (exit 1,
# naming fleet.json), the
# fleet identity and queryd's fleet routes tested under the race detector,
# and the retired -shards flag refused by queryd (the usage error names it).
fleet-smoke:
	$(GO) test -race -run 'TestFleetIdentityThroughArchive' ./internal/core
	$(GO) test -race -run 'TestQuerydFleet' ./cmd/queryd
	$(GO) build -o /tmp/fleetsmoke-summitsim ./cmd/summitsim
	$(GO) build -o /tmp/fleetsmoke-repro ./cmd/repro
	$(GO) build -o /tmp/fleetsmoke-queryd ./cmd/queryd
	rm -rf /tmp/fleetsmoke-fleet
	/tmp/fleetsmoke-summitsim -out /tmp/fleetsmoke-fleet -clusters 2 -sites summit,frontier -nodes 36 -days 1 -q
	for c in summit-0 frontier-1; do \
		/tmp/fleetsmoke-repro -data /tmp/fleetsmoke-fleet/$$c > /tmp/fleetsmoke-$$c.txt || exit 1; \
		test "$$(grep -c '^== ' /tmp/fleetsmoke-$$c.txt)" = 20 && ! grep -q '^-- ' /tmp/fleetsmoke-$$c.txt || \
			{ echo "fleet-smoke: $$c, want 20 reports and no report named missing"; cat /tmp/fleetsmoke-$$c.txt; exit 1; }; \
	done
	@code=0; /tmp/fleetsmoke-repro -data /tmp/fleetsmoke-fleet > /tmp/fleetsmoke-refused.txt 2>&1 || code=$$?; \
	test $$code -eq 1 || { echo "fleet-smoke: repro -data on the fleet root exited $$code, want 1"; exit 1; }; \
	grep -q 'fleet.json' /tmp/fleetsmoke-refused.txt || { cat /tmp/fleetsmoke-refused.txt; exit 1; }
	if timeout 20 /tmp/fleetsmoke-queryd -data /tmp/fleetsmoke-fleet -addr 127.0.0.1:0 -shards 2 -q > /tmp/fleetsmoke-refused.txt 2>&1; then \
		echo "fleet-smoke: queryd accepted -shards"; exit 1; fi
	grep -q 'not defined: -shards' /tmp/fleetsmoke-refused.txt
	rm -rf /tmp/fleetsmoke-fleet /tmp/fleetsmoke-summitsim /tmp/fleetsmoke-repro /tmp/fleetsmoke-queryd /tmp/fleetsmoke-*.txt

# queryd-smoke gates the warm dashboard path end to end over real HTTP: an
# analysis fetched twice is byte-identical both times; a fleet-wide range on
# the 600 s grid is answered from the rollup companions, and asked again from
# the reply cache — same payload, a stats block that says "cached", the
# stored reply's ETag good for a 304 — with two computes and three hits to
# show for the five requests. The archive is opened once: its eight
# partitions have each had their header read once. Three node-filtered raw
# ranges over the one node-power day are three different replies, so each
# reaches the decoded-table cache: the first misses and streams, the second
# misses and admits the day, the third hits it. A -nodes that contradicts
# the archive's run manifest must stop queryd at start, naming the flag.
# Last, the fleet rollup at step 600 must have the fleet range's windows
# (t, count, min, max, mean): both put each row in the window its
# timestamp names.
queryd-smoke:
	$(GO) build -o /tmp/qdsmoke-summitsim ./cmd/summitsim
	$(GO) build -o /tmp/qdsmoke-queryd ./cmd/queryd
	rm -rf /tmp/qdsmoke-archive
	/tmp/qdsmoke-summitsim -out /tmp/qdsmoke-archive -nodes 16 -days 1 -nodedata -q
	if timeout 20 /tmp/qdsmoke-queryd -data /tmp/qdsmoke-archive -addr 127.0.0.1:0 -nodes 17 -q > /tmp/qdsmoke-refused.txt 2>&1; then \
		echo "queryd-smoke: queryd accepted -nodes 17 on a 16-node archive"; exit 1; fi
	grep -q -- '-nodes 17' /tmp/qdsmoke-refused.txt
	@set -eu; base=http://127.0.0.1:18097; \
	range="$$base/api/v1/range?dataset=node-power&column=input_power.mean&step=600"; \
	/tmp/qdsmoke-queryd -data /tmp/qdsmoke-archive -addr 127.0.0.1:18097 -nodes 16 -q & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 120); do curl -sf -o /dev/null $$base/healthz && break; sleep 0.25; done; \
	curl -sf $$base/api/v1/analysis/bands > /tmp/qdsmoke-bands1.json; \
	curl -sf $$base/api/v1/analysis/bands > /tmp/qdsmoke-bands2.json; \
	cmp /tmp/qdsmoke-bands1.json /tmp/qdsmoke-bands2.json; \
	curl -sf "$$range" > /tmp/qdsmoke-range1.json; \
	grep -q '"windows":\[{' /tmp/qdsmoke-range1.json; \
	grep -q '"preagg":true,"elapsed_us"' /tmp/qdsmoke-range1.json; \
	curl -sf -D /tmp/qdsmoke-range2.hdr "$$range" > /tmp/qdsmoke-range2.json; \
	grep -q '"preagg":true,"cached":true,"elapsed_us"' /tmp/qdsmoke-range2.json; \
	grep -qi '^Server-Timing: cache;desc=hit' /tmp/qdsmoke-range2.hdr; \
	sed 's/,"stats":{.*//' /tmp/qdsmoke-range1.json > /tmp/qdsmoke-payload1.json; \
	sed 's/,"stats":{.*//' /tmp/qdsmoke-range2.json | cmp - /tmp/qdsmoke-payload1.json; \
	etag=$$(tr -d '\r' < /tmp/qdsmoke-range2.hdr | sed -n 's/^[Ee][Tt]ag: //p'); \
	test "$$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $$etag" "$$range")" = 304; \
	curl -sf $$base/debug/vars > /tmp/qdsmoke-vars.json; \
	grep -q '"reply_cache":{"bytes":[1-9][0-9]*,"computes":2,"entries":2,"evictions":0,"hits":3,"not_modified":1,' /tmp/qdsmoke-vars.json; \
	grep -q '"routes":{.*"range":{"count":3,' /tmp/qdsmoke-vars.json; \
	grep -q '"partitions_indexed":8}' /tmp/qdsmoke-vars.json; \
	tables() { curl -sf $$base/debug/vars | grep -o '"cache":{[^}]*}' | head -1; }; \
	field() { echo "$$1" | sed -n "s/.*\"$$2\":\([0-9]*\).*/\1/p"; }; \
	before=$$(tables); \
	for n in 1 2 3; do \
		curl -sf "$$base/api/v1/range?dataset=node-power&column=input_power.mean&node=$$n" | grep -q '"points":\[{'; \
	done; \
	after=$$(tables); \
	misses=$$(( $$(field "$$after" store_misses) - $$(field "$$before" store_misses) )); \
	hits=$$(( $$(field "$$after" store_hits) - $$(field "$$before" store_hits) )); \
	if [ $$misses -ne 2 ] || [ $$hits -lt 1 ] || [ $$(field "$$after" entries) -le $$(field "$$before" entries) ]; then \
		echo "queryd-smoke: three node ranges over one day: table cache went from $$before to $$after, want +2 misses, one more entry, then a hit on it"; exit 1; fi; \
	curl -sf "$$base/api/v1/rollup?dataset=node-power&column=input_power.mean&group=fleet&step=600" > /tmp/qdsmoke-rollup.json; \
	windows() { grep -o '{"t":[^}]*}' "$$1" | sed -e 's/,"std":[^,}]*//' -e 's/,"sum":[^,}]*//'; }; \
	windows /tmp/qdsmoke-rollup.json > /tmp/qdsmoke-rollup-windows.txt; \
	test -s /tmp/qdsmoke-rollup-windows.txt; \
	if ! windows /tmp/qdsmoke-range1.json | cmp -s - /tmp/qdsmoke-rollup-windows.txt; then \
		echo "queryd-smoke: the fleet rollup's windows at step 600 differ from the fleet range's (t, count, min, max, mean)"; exit 1; fi; \
	echo "queryd-smoke: bands and the fleet range computed once; range served from pre-aggregates, then from the reply cache, then 304; each partition indexed once; a node-power day streamed, then admitted, then served resident; the fleet rollup's windows are the fleet range's"
	rm -rf /tmp/qdsmoke-archive /tmp/qdsmoke-summitsim /tmp/qdsmoke-queryd /tmp/qdsmoke-*.json /tmp/qdsmoke-range2.hdr /tmp/qdsmoke-refused.txt /tmp/qdsmoke-rollup-windows.txt

# serve-smoke drives both daemons' real mains through their whole life — the
# only check that does: start the built queryd and streamd, fetch /healthz
# and one guarded route from each, require streamd's live health to read
# late 0 with no merge_late key (one lateness counter), hold an idle ingest
# connection open on streamd, send SIGTERM, and require exit status 0 from both (serve.Run
# drained cleanly; streamd closed its transport, cutting off the held
# connection after its grace, and flushed the pipeline first), streamd's
# within 10 s.
serve-smoke:
	$(GO) build -o /tmp/svsmoke-summitsim ./cmd/summitsim
	$(GO) build -o /tmp/svsmoke-queryd ./cmd/queryd
	$(GO) build -o /tmp/svsmoke-streamd ./cmd/streamd
	rm -rf /tmp/svsmoke-archive
	/tmp/svsmoke-summitsim -out /tmp/svsmoke-archive -nodes 16 -days 1 -q
	@set -eu; q=http://127.0.0.1:18098; s=http://127.0.0.1:18099; hold=; \
	/tmp/svsmoke-queryd -data /tmp/svsmoke-archive -addr 127.0.0.1:18098 -q & qpid=$$!; \
	/tmp/svsmoke-streamd -addr 127.0.0.1:18099 -ingest 127.0.0.1:19099 -nodes 16 -sim-minutes 5 -q & spid=$$!; \
	trap 'kill $$qpid $$spid $$hold 2>/dev/null || true' EXIT; \
	for base in $$q $$s; do \
		for i in $$(seq 1 120); do curl -sf -o /dev/null $$base/healthz && break; sleep 0.25; done; \
		test "$$(curl -sf $$base/healthz)" = ok; \
	done; \
	bash -c 'exec 3<>/dev/tcp/127.0.0.1/19099 && exec sleep 60' & hold=$$!; \
	curl -sf $$q/api/v1/datasets | grep -q '"datasets":\['; \
	curl -sf "$$s/api/v1/live/rollup?group=cabinet" | grep -q '"group":"cabinet"'; \
	h=$$(curl -sf $$s/api/v1/live/health); \
	case "$$h" in *'"late":0,'*) ;; *) echo "serve-smoke: streamd health does not read late 0: $$h"; exit 1;; esac; \
	case "$$h" in *merge_late*) echo "serve-smoke: streamd health still carries merge_late: $$h"; exit 1;; esac; \
	sleep 0.5; kill -0 $$hold || { echo "serve-smoke: could not hold an ingest connection open"; exit 1; }; \
	kill -TERM $$qpid $$spid; \
	wait $$qpid || { echo "serve-smoke: queryd exited $$? on SIGTERM"; exit 1; }; \
	for i in $$(seq 1 40); do kill -0 $$spid 2>/dev/null || break; sleep 0.25; done; \
	if kill -0 $$spid 2>/dev/null; then echo "serve-smoke: streamd still running 10 s after SIGTERM with an ingest connection open"; exit 1; fi; \
	wait $$spid || { echo "serve-smoke: streamd exited $$? on SIGTERM"; exit 1; }; \
	kill $$hold; \
	echo "serve-smoke: queryd and streamd served, drained and exited 0 on SIGTERM, an ingest connection held open"
	rm -rf /tmp/svsmoke-archive /tmp/svsmoke-summitsim /tmp/svsmoke-queryd /tmp/svsmoke-streamd

# scenario-smoke gates the declarative scenario plane: the full-catalog
# golden regression under the race detector, then an end-to-end check that
# one scenario run on one core and on all of them archives byte-identical
# datasets, scenario.json and report.json (the bit-reproducibility contract).
scenario-smoke:
	$(GO) test -race -run 'TestGoldenCatalogReports|TestRunArchiveParity' ./internal/scenario
	$(GO) build -o /tmp/scnsmoke-scenario ./cmd/scenario
	$(GO) build -o /tmp/scnsmoke-summitsim ./cmd/summitsim
	/tmp/scnsmoke-scenario -list
	rm -rf /tmp/scnsmoke-w1 /tmp/scnsmoke-wn
	GOMAXPROCS=1 /tmp/scnsmoke-summitsim -scenario trace-replay -q -out /tmp/scnsmoke-w1
	/tmp/scnsmoke-summitsim -scenario trace-replay -q -out /tmp/scnsmoke-wn
	test -s /tmp/scnsmoke-w1/scenario.json && test -s /tmp/scnsmoke-w1/report.json
	diff -r /tmp/scnsmoke-w1 /tmp/scnsmoke-wn
	rm -rf /tmp/scnsmoke-scenario /tmp/scnsmoke-summitsim /tmp/scnsmoke-w1 /tmp/scnsmoke-wn

# archive-smoke gates the one archive writer end to end: a single archive
# with the optional node-power dataset and a 2-cluster fleet are written, and
# their reports printed by `repro -data` (each fleet member's directory in
# turn: Table 3 and the 19 reports that read a run, 20 headings and no line
# naming a report missing); `repro -data` on the single archive prints the
# headings the in-memory run of its config prints, and with -figdir writes
# the figure files that run writes, byte for byte (`diff`, `diff -r`); the same seed archived again on one P and on four
# (more Ps than a CI runner's cores, so Run's two stages interleave
# differently) must be the same files byte for byte, and so must a 160-node
# run, three sweep blocks, and a two-cluster -nodedata fleet, on one P and by
# default (the day flush runs beside the simulation, the failure sweep and
# observers run beside the physics, WriteArchive encodes its partitions side
# by side, and no scheduling of theirs may reach the archive); every partition is plain multi-member gzip
# (`gzip -t`) and passes `summitsim -fsck`, which must count both
# node-power days as strided (each node XORed with itself a window back) and
# carrying their companion, and no cluster-power day as either; no companion
# is a file of its own; a span that is no whole number of windows (-days
# 1.0001) passes fsck too; no run directory holds anything but its partitions,
# scenario.json and report.json (and a fleet root its fleet.json); fsck must exit 1 on a copy with one byte flipped, and
# `repro -data` and fsck on a copy without its run-meta (the commit record); then a
# shorter run archived into the same directory must be refused (its leftover
# days would otherwise be served as one run) and leave the sha256 of every
# file of the earlier run unchanged; so must, with exit status 1 and every
# file cmp-identical, a run without -nodedata into a directory that holds
# node-power days (an earlier run's node-power would otherwise be served
# beside the new run-meta).
archive-smoke:
	$(GO) build -o /tmp/arcsmoke-summitsim ./cmd/summitsim
	$(GO) build -o /tmp/arcsmoke-repro ./cmd/repro
	rm -rf /tmp/arcsmoke-single /tmp/arcsmoke-again /tmp/arcsmoke-offgrid /tmp/arcsmoke-fleet /tmp/arcsmoke-fleet1 /tmp/arcsmoke-flipped /tmp/arcsmoke-nometa /tmp/arcsmoke-procs4 /tmp/arcsmoke-wide /tmp/arcsmoke-wide1 /tmp/arcsmoke-half /tmp/arcsmoke-half1 /tmp/arcsmoke-mixed /tmp/arcsmoke-mixed-before /tmp/arcsmoke-figmem /tmp/arcsmoke-figdata
	/tmp/arcsmoke-summitsim -out /tmp/arcsmoke-single -nodes 36 -days 2 -nodedata -q
	GOMAXPROCS=1 /tmp/arcsmoke-summitsim -out /tmp/arcsmoke-again -nodes 36 -days 2 -nodedata -q
	diff -r /tmp/arcsmoke-single /tmp/arcsmoke-again
	GOMAXPROCS=4 /tmp/arcsmoke-summitsim -out /tmp/arcsmoke-procs4 -nodes 36 -days 2 -nodedata -q
	diff -r /tmp/arcsmoke-single /tmp/arcsmoke-procs4
	/tmp/arcsmoke-summitsim -out /tmp/arcsmoke-wide -nodes 160 -days 1 -nodedata -q
	GOMAXPROCS=1 /tmp/arcsmoke-summitsim -out /tmp/arcsmoke-wide1 -nodes 160 -days 1 -nodedata -q
	diff -r /tmp/arcsmoke-wide /tmp/arcsmoke-wide1
	/tmp/arcsmoke-summitsim -out /tmp/arcsmoke-half -nodes 36 -days 1.5 -nodedata -q
	GOMAXPROCS=1 /tmp/arcsmoke-summitsim -out /tmp/arcsmoke-half1 -nodes 36 -days 1.5 -nodedata -q
	diff -r /tmp/arcsmoke-half /tmp/arcsmoke-half1
	/tmp/arcsmoke-summitsim -out /tmp/arcsmoke-fleet -clusters 2 -sites summit,frontier -nodes 36 -days 1 -nodedata -q
	GOMAXPROCS=1 /tmp/arcsmoke-summitsim -out /tmp/arcsmoke-fleet1 -clusters 2 -sites summit,frontier -nodes 36 -days 1 -nodedata -q
	diff -r /tmp/arcsmoke-fleet /tmp/arcsmoke-fleet1
	@set -eu; for a in single fleet/summit-0 fleet/frontier-1; do \
		/tmp/arcsmoke-repro -data /tmp/arcsmoke-$$a > /tmp/arcsmoke-reports.txt; \
		test "$$(grep -c '^== ' /tmp/arcsmoke-reports.txt)" = 20 && ! grep -q '^-- ' /tmp/arcsmoke-reports.txt || \
			{ echo "archive-smoke: $$a, want 20 reports and no report named missing"; cat /tmp/arcsmoke-reports.txt; exit 1; }; \
	done
	/tmp/arcsmoke-repro -nodes 36 -hours 48 -seed 2020 -start 0 -figdir /tmp/arcsmoke-figmem > /tmp/arcsmoke-mem.txt
	/tmp/arcsmoke-repro -data /tmp/arcsmoke-single -figdir /tmp/arcsmoke-figdata > /tmp/arcsmoke-reports.txt
	@grep '^== ' /tmp/arcsmoke-mem.txt > /tmp/arcsmoke-heads-mem.txt; grep '^== ' /tmp/arcsmoke-reports.txt > /tmp/arcsmoke-heads-data.txt; \
	diff /tmp/arcsmoke-heads-mem.txt /tmp/arcsmoke-heads-data.txt || \
		{ echo "archive-smoke: repro -data printed other report headings than the in-memory run"; exit 1; }
	@diff -r /tmp/arcsmoke-figmem /tmp/arcsmoke-figdata || \
		{ echo "archive-smoke: repro -data -figdir wrote other figure data than the in-memory run"; exit 1; }
	find /tmp/arcsmoke-single /tmp/arcsmoke-fleet -name '*.spwr' -exec gzip -t {} +
	/tmp/arcsmoke-summitsim -fsck /tmp/arcsmoke-single > /tmp/arcsmoke-fsck.txt
	@grep -q ': node-power: 2 partitions, 2 with strided columns, 2 with a companion, 0 problems' /tmp/arcsmoke-fsck.txt && \
		grep -q ': cluster-power: 2 partitions, 0 with strided columns, 0 with a companion, 0 problems' /tmp/arcsmoke-fsck.txt || \
		{ echo "archive-smoke: want both node-power days strided and carrying a companion, and no cluster-power day"; cat /tmp/arcsmoke-fsck.txt; exit 1; }
	@if ls /tmp/arcsmoke-single/node-power.rollup-* > /dev/null 2>&1; then \
		echo "archive-smoke: a companion was written to a file of its own"; exit 1; fi
	/tmp/arcsmoke-summitsim -fsck /tmp/arcsmoke-fleet > /dev/null
	/tmp/arcsmoke-summitsim -out /tmp/arcsmoke-offgrid -nodes 8 -days 1.0001 -nodedata -q
	/tmp/arcsmoke-summitsim -fsck /tmp/arcsmoke-offgrid > /dev/null
	@extra=$$(find /tmp/arcsmoke-single /tmp/arcsmoke-half /tmp/arcsmoke-wide /tmp/arcsmoke-fleet /tmp/arcsmoke-offgrid -type f \
		! -name '*.spwr' ! -name scenario.json ! -name report.json ! -path /tmp/arcsmoke-fleet/fleet.json); \
	test -z "$$extra" || { echo "archive-smoke: files beside the datasets and the run's provenance:"; echo "$$extra"; exit 1; }
	@set -eu; cp -r /tmp/arcsmoke-single /tmp/arcsmoke-flipped; f=/tmp/arcsmoke-flipped/node-power-day00001.spwr; \
	mid=$$(( $$(wc -c < $$f) / 2 )); \
	byte=$$(od -An -tu1 -j $$mid -N 1 $$f | tr -d ' '); \
	printf "$$(printf '\\%03o' $$(( byte ^ 4 )))" | dd of=$$f bs=1 seek=$$mid conv=notrunc 2> /dev/null; \
	if /tmp/arcsmoke-summitsim -fsck /tmp/arcsmoke-flipped > /tmp/arcsmoke-fsck.txt 2>&1; then \
		echo "archive-smoke: fsck passed an archive with a flipped byte"; exit 1; fi; \
	grep -q 'node-power-day00001.spwr: .*column "' /tmp/arcsmoke-fsck.txt || { cat /tmp/arcsmoke-fsck.txt; exit 1; }
	@set -eu; rm -rf /tmp/arcsmoke-nometa; cp -r /tmp/arcsmoke-single /tmp/arcsmoke-nometa; rm /tmp/arcsmoke-nometa/run-meta-day00000.spwr; \
	for cmd in "repro -data" "summitsim -fsck"; do \
		if /tmp/arcsmoke-$$cmd /tmp/arcsmoke-nometa > /tmp/arcsmoke-fsck.txt 2>&1; then \
			echo "archive-smoke: $$cmd accepted an archive without run-meta"; cat /tmp/arcsmoke-fsck.txt; exit 1; fi; \
		grep -q 'run-meta' /tmp/arcsmoke-fsck.txt || { cat /tmp/arcsmoke-fsck.txt; exit 1; }; \
	done
	cd /tmp/arcsmoke-single && find . -type f | sort | xargs sha256sum > /tmp/arcsmoke-sums.txt
	@if /tmp/arcsmoke-summitsim -out /tmp/arcsmoke-single -nodes 36 -days 1 -seed 7 -nodedata -q 2> /tmp/arcsmoke-refusal.txt; then \
		echo "archive-smoke: a 1-day run was archived over a 2-day run"; exit 1; fi; \
	grep -q 'cluster-power-day00001.spwr' /tmp/arcsmoke-refusal.txt || { cat /tmp/arcsmoke-refusal.txt; exit 1; }; \
	cd /tmp/arcsmoke-single && find . -type f | sort | xargs sha256sum | diff /tmp/arcsmoke-sums.txt - || \
		{ echo "archive-smoke: the refused re-run changed the archive"; exit 1; }
	/tmp/arcsmoke-summitsim -out /tmp/arcsmoke-mixed -nodes 16 -days 1 -nodedata -seed 1 -q
	cp -r /tmp/arcsmoke-mixed /tmp/arcsmoke-mixed-before
	@code=0; /tmp/arcsmoke-summitsim -out /tmp/arcsmoke-mixed -nodes 32 -days 1 -seed 1 -q 2> /tmp/arcsmoke-refusal.txt || code=$$?; \
	test $$code -eq 1 || { echo "archive-smoke: a run without -nodedata into a -nodedata archive exited $$code, want 1"; exit 1; }; \
	grep -q 'node-power-day00000.spwr' /tmp/arcsmoke-refusal.txt || \
		{ cat /tmp/arcsmoke-refusal.txt; exit 1; }; \
	(cd /tmp/arcsmoke-mixed-before && find . -type f | sort) > /tmp/arcsmoke-sums.txt; \
	(cd /tmp/arcsmoke-mixed && find . -type f | sort) | diff /tmp/arcsmoke-sums.txt - || \
		{ echo "archive-smoke: the refused run changed the set of files"; exit 1; }; \
	while read f; do cmp /tmp/arcsmoke-mixed-before/$$f /tmp/arcsmoke-mixed/$$f || \
		{ echo "archive-smoke: the refused run changed $$f"; exit 1; }; done < /tmp/arcsmoke-sums.txt; \
	echo "archive-smoke: archives written, reports printed, gzip -t and fsck clean, companions inside their days, a flipped byte caught, an archive without run-meta refused by repro -data and summitsim -fsck, re-runs on one and on four Ps byte-identical (36 and 160 nodes, a day and a half, and a two-cluster fleet), an off-grid span fsck-clean, nothing in a run directory but partitions and provenance, a shorter re-run and a re-run without -nodedata refused with every file byte-identical"
	rm -rf /tmp/arcsmoke-single /tmp/arcsmoke-again /tmp/arcsmoke-offgrid /tmp/arcsmoke-fleet /tmp/arcsmoke-fleet1 /tmp/arcsmoke-flipped /tmp/arcsmoke-nometa /tmp/arcsmoke-procs4 /tmp/arcsmoke-wide /tmp/arcsmoke-wide1 /tmp/arcsmoke-half /tmp/arcsmoke-half1 /tmp/arcsmoke-mixed /tmp/arcsmoke-mixed-before /tmp/arcsmoke-figmem /tmp/arcsmoke-figdata /tmp/arcsmoke-summitsim /tmp/arcsmoke-repro /tmp/arcsmoke-refusal.txt /tmp/arcsmoke-fsck.txt /tmp/arcsmoke-sums.txt /tmp/arcsmoke-reports.txt /tmp/arcsmoke-mem.txt /tmp/arcsmoke-heads-*.txt

# fuzz-smoke runs every fuzz target for FUZZTIME (stdlib go test -fuzz, one
# target per invocation). A crasher fails the run and is written under its
# package's testdata/fuzz/, where it stays as a regression seed once fixed.
FUZZTIME ?= 10s
FUZZ_TARGETS = telemetry:FuzzDecodeFrame telemetry:FuzzServerReadLoop trace:FuzzParseTrace serve:FuzzAppendJSONFloat \
	query:FuzzAppendJSONFloat lint:FuzzAllowDirectives topology:FuzzScaledFloor \
	store:FuzzReadDayColumns store:FuzzCodecRoundTrip store:FuzzReadDelta source:FuzzReadManifest source:FuzzDiscoverFleet \
	scenario:FuzzLoadCompile query:FuzzQueryParams stream:FuzzLiveParams
fuzz-smoke:
	for t in $(FUZZ_TARGETS); do \
		echo "fuzz-smoke: $${t#*:} in ./internal/$${t%%:*}"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) ./internal/$${t%%:*} || exit 1; \
	done

# bench-report regenerates the checked-in markdown trend report from every
# BENCH_*.json baseline.
bench-report:
	$(GO) run ./cmd/benchjson -report BENCH_REPORT.md

# loc prints the non-test source line count simplicity PRs are judged on:
# every .go file outside bench/, examples/, testdata/ and the _test files.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './examples/*' ! -path '*/testdata/*' | xargs cat | wc -l

clean:
	$(GO) clean ./...
