#!/usr/bin/env bash
# check.sh is the repository's full verification gate, run locally and by
# CI (.github/workflows/ci.yml): build, formatting, go vet, the custom
# bplint static-analysis suite (internal/analysis), and race-enabled tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> bplint ./... (all sixteen analyzers, concurrency certification included)"
go run ./cmd/bplint ./...

echo "==> bplint allow audit (every waiver carries a justification)"
go run ./cmd/bplint -allows

echo "==> BPTRACE1 codec fuzz smoke (10s round-trip/fixed-point search)"
go test -run '^$' -fuzz FuzzCodecRoundTrip -fuzztime=10s ./internal/trace

echo "==> engine oracle fuzz smoke (10s each: RunMany vs the textbook accuracy loop and scoreboard)"
go test -run '^$' -fuzz FuzzRunManyOracle -fuzztime=10s ./internal/funcsim
go test -run '^$' -fuzz FuzzRunManyOracle -fuzztime=10s ./internal/pipeline

echo "==> concurrency certification: -race runtime twins of the static analyzers"
# frozen: recordings are replayed concurrently with no synchronization —
# sound only if nothing writes them after publication.
go test -race -run 'TestConcurrentReplay|TestConcurrentBranchCursors' ./internal/tracestore ./internal/trace
# oncepublish: memo cells are published under sync.Once and hammered from
# many goroutines.
go test -race -run 'TestTimingMemoConcurrentStress' ./internal/experiments
# sharedcapture: the worker pool's captured shared state, lock-dominated.
go test -race -run 'TestRunCellsSharedCaptureStress' ./internal/experiments
# singleflight: concurrent cold lookups of one cell coalesce into exactly
# one computation and one store write.
go test -race -run 'TestConcurrentColdCoalesce' ./internal/resultstore

echo "==> replay equivalence (live vs recorded streams, race-enabled)"
go test -race -run 'TestReplayEquivalence|TestConcurrentReplay|TestClassifiedReplay' ./internal/tracestore

echo "==> engine oracles (RunMany vs the obviously-correct references over random streams, race-enabled)"
go test -race -run 'TestRunManyMatchesOracle' ./internal/funcsim ./internal/pipeline
go test -race -run 'TestGoldenDigests|TestEveryBatchStepperMatchesScalar' ./internal/experiments

echo "==> branch source-shape equivalence (cursor index vs filtered Source, race-enabled)"
go test -race -run 'TestFastPathEquivalence' ./internal/funcsim
go test -race -run 'TestBranchIndexMatchesStream|TestCodecPreservesBranchIndex|TestConcurrentBranchCursors|TestFilterBranchesMatchesIndex' ./internal/trace

echo "==> timing drive-path equivalence (cursor/sidecar/memo vs live-cache Source, race-enabled)"
go test -race -run 'TestTimingFastPathEquivalence|TestSidecarFallback|TestSlotRingWraparound' ./internal/pipeline
go test -race -run 'TestTimingMemoEquivalence|TestTimingMemoDeduplicates|TestTimingMemoConcurrentStress' ./internal/experiments
go test -race -run 'TestNextInstsMatchesStream|TestNextInstsInterleavesWithNext|TestNextInstsProtocolMixPanics' ./internal/trace

echo "==> fused timing equivalence (RunMany lanes vs one-lane runs, geometry guard, scheduler parity, race-enabled)"
go test -race -run 'TestFusedTimingEquivalence|TestFusedTimingLiveCaches|TestFusedTimingGeometryGuard' ./internal/pipeline
go test -race -run 'TestFusedTimingPlan|TestFusedTimingGeometryGrouping|TestFusedTimingMemoAccounting|TestFusedTimingStoreFlow' ./internal/experiments

echo "==> fused accuracy equivalence (RunMany lanes vs one-lane runs, every BatchStepper vs the scalar protocol, packed perceptron vs textbook oracle, race-enabled)"
go test -race -run 'TestRunManyEquivalence|TestRunManySingleLane' ./internal/funcsim
go test -race -run 'TestStepBatchEquivalence|TestPerceptronMatchesTextbook' ./internal/predictor

echo "==> cell store equivalence + robustness (store-served cells bit-identical; corrupt/truncated/stale entries recomputed, race-enabled)"
go test -race ./internal/resultstore
go test -race -run 'TestTimingStoreEquivalence|TestTimingStoreWarmDoesNotSimulate|TestAccuracyStoreEquivalence|TestStoreKeySeparatesFamilies|TestRunCellsPanicKey' ./internal/experiments

echo "==> engine allocation bounds (no race: alloc counts need a plain build)"
go test -run 'TestRunManyAllocs|TestBatchedRunAllocs' ./internal/funcsim
go test -run 'TestMultiComponentAllocs' ./internal/predictor
go test -run 'TestFusedTimingAllocs|TestBatchedTimingRunAllocs' ./internal/pipeline

echo "==> go test -race ./..."
go test -race ./...

echo "All checks passed."
