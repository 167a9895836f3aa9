GO ?= go

.PHONY: all build fmt vet test race race-blocking race-fusion race-obs race-source race-shard race-rrf race-serve race-stream race-mutate bench bench-blocking bench-fusion bench-obs bench-source bench-stream bench-json loadtest chaos chaos-compact check

all: check

build:
	$(GO) build ./...

# Fails when any Go file is not gofmt-formatted, listing the files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-checks the parallel blocking engine and its substrate (PR 2 gate).
race-blocking:
	$(GO) test -race ./internal/blocking/... ./internal/parallel/...

# Race-checks the parallel fusion engine and its substrate (PR 3 gate).
race-fusion:
	$(GO) test -race ./internal/fusion/... ./internal/parallel/...

# Race-checks the observability layer and the instrumented stages
# (PR 4 gate): concurrent metric updates from every worker path.
race-obs:
	$(GO) test -race ./internal/obs/... ./internal/parallel/... ./internal/core/... ./internal/linkage/...

# Race-checks the resilient ingestor, the fault injector and the
# context plumbing through the pipeline (PR 5 gate).
race-source:
	$(GO) test -race ./internal/source/... ./internal/parallel/... ./internal/core/...

# The cached-vs-uncached matching benchmarks (PR 1 acceptance numbers).
bench:
	$(GO) test -run xxx -bench 'MatchPairs(Cached|Uncached)$$' -benchmem .

# The blocking-engine benchmarks (PR 2 acceptance numbers).
bench-blocking:
	$(GO) test -run xxx -bench 'BuildBlocks|BlocksPairs|MetaBlocking' -benchmem .

# The fusion-engine benchmarks, seq vs par (PR 3 acceptance numbers).
bench-fusion:
	$(GO) test -run xxx -bench 'ACCUFuse|CopyDetect|FuseACCUCOPY' -benchmem .

# The observability benchmarks (PR 4 acceptance numbers): disabled
# registry vs baseline must show identical allocs/op.
bench-obs:
	$(GO) test -run xxx -bench 'MatchPairs(Cached|ObsDisabled|ObsEnabled)$$' -benchmem .
	$(GO) test -run xxx -bench . -benchmem ./internal/obs/...

# The ingestion benchmarks (PR 5 acceptance numbers): the no-fault
# path must add ~zero allocations per record over direct construction.
bench-source:
	$(GO) test -run xxx -bench 'Ingest' -benchmem ./internal/source/...

# Race-checks the sharded/spilled blocking engine end to end (PR 6
# gate): shard merge, external pair generation and the streaming
# matcher under concurrent workers.
race-shard:
	$(GO) test -race -run 'Shard|Spill|Scale|SortedNeighborhood|UnionCandidates' ./internal/blocking/... ./internal/parallel/... ./internal/core/... ./internal/experiments/...

# Race-checks the rank-fusion kernel and the budgeted progressive
# matcher (PR 7 gate): fused-stream identity across workers × shards,
# the spilled fused path and budget consumption under concurrency.
race-rrf:
	$(GO) test -race -run 'Fuse|Ranked|RRF|Progressive|RecallCurve|Budget' ./internal/blocking/... ./internal/linkage/... ./internal/core/... ./internal/experiments/...

# Race-checks the serving layer end to end (PR 8 gate): concurrent
# handler reads during background snapshot swaps, the bounded reindex
# queue and the memoized query path.
race-serve:
	$(GO) test -race ./internal/serve/... ./internal/core/... ./internal/obs/...

# Race-checks the streaming velocity path end to end (PR 9 gate):
# watchable sources under fault injection, epoch batching, incremental
# linkage, online fusion publishing and the crash/resume chaos replay.
race-stream:
	$(GO) test -race -run 'Watch|Streamer|Stream|Online|Publish' ./internal/source/... ./internal/core/... ./internal/fusion/... ./internal/serve/...

# Race-checks the mutable-stream path (PR 10 gate): typed deltas,
# churn workloads, delta fault mangling, retraction/reclustering,
# tombstones and state compaction — including the serving-layer
# deleted-entities gate.
race-mutate:
	$(GO) test -race -run 'Delta|Churn|Mangle|Retract|IncrementalDelete|Compact|Tombstone|Deleted|StreamState' ./internal/source/... ./internal/linkage/... ./internal/core/... ./internal/serve/...

# The streaming benchmarks (PR 9 acceptance numbers): per-epoch apply
# cost and republish cost on a growing corpus.
bench-stream:
	$(GO) test -run xxx -bench 'StreamApplyEpoch|StreamPublish' -benchmem ./internal/core/...

# The serving latency baseline (PR 8 acceptance numbers): p50/p99 at
# 1/8/64 concurrent clients against an in-process bdiserve.
loadtest:
	$(GO) run ./cmd/bdiserve -gen -gen-entities 100 -gen-sources 20 -loadtest 1x50,8x50,64x50

# The sharded-blocking perf baseline (PR 6 acceptance numbers):
# pair-generation throughput and heap high-water at 1M records under a
# 25% memory budget, written to BENCH_blocking.json — plus the
# rank-fusion recall-at-budget baseline (PR 7 acceptance numbers)
# written to BENCH_progressive.json.
bench-json:
	$(GO) run ./cmd/bdibench -exp E24 -e24-sizes 1000000 -e24-workers 1,2,8 -bench-json BENCH_blocking.json
	$(GO) run ./cmd/bdibench -exp E25 -bench-json BENCH_progressive.json

# Chaos gate: the fault-injection sweep (E23) under the race detector.
chaos:
	$(GO) run -race ./cmd/bdibench -exp E23

# Compaction chaos gate (PR 10): kill-mid-compaction at workers
# {1,2,8} with byte-identity of the restored state, backup-file
# recovery and the codec corruption sweep, all under the race detector.
chaos-compact:
	$(GO) test -race -run 'TestStreamKillMidCompactionChaos|TestStreamStateBackupRecovery|TestStreamStateDecodeRobust|FuzzStreamStateDecode' ./internal/core/...

# Everything the CI gate runs.
check: build fmt vet race
