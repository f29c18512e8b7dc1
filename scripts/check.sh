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

echo "==> bplint ./... (all nineteen analyzers, concurrency + twin certification included)"
go run ./cmd/bplint ./...

echo "==> bplint allow audit (every waiver carries a justification)"
go run ./cmd/bplint -allows

echo "==> seeded-drift regression (edited scalar statement must yield exactly one twinsync finding)"
go test -run 'TestSeededDrift' ./internal/analysis

echo "==> BPTRACE1 codec fuzz smoke (10s round-trip/fixed-point search)"
go test -run '^$' -fuzz FuzzCodecRoundTrip -fuzztime=10s ./internal/trace

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

echo "==> branch fast-path equivalence (batched vs instruction-at-a-time, race-enabled)"
go test -race -run 'TestFastPathEquivalence' ./internal/funcsim
go test -race -run 'TestBranchIndexMatchesStream|TestCodecPreservesBranchIndex|TestConcurrentBranchCursors' ./internal/trace

echo "==> timing fast-path equivalence (batched/sidecar/memo vs instruction-at-a-time live-cache, race-enabled)"
go test -race -run 'TestTimingFastPathEquivalence|TestSidecarFallback|TestSlotRingWraparound' ./internal/pipeline
go test -race -run 'TestTimingMemoEquivalence|TestTimingMemoDeduplicates|TestTimingMemoConcurrentStress' ./internal/experiments
go test -race -run 'TestNextInstsMatchesStream|TestNextInstsInterleavesWithNext|TestNextInstsProtocolMixPanics' ./internal/trace

echo "==> fused timing equivalence (RunMany vs per-cell reference, geometry guard, scheduler parity, race-enabled)"
go test -race -run 'TestFusedTimingEquivalence|TestFusedTimingLiveCaches|TestFusedTimingGeometryGuard' ./internal/pipeline
go test -race -run 'TestFusedTimingPlan|TestFusedTimingGeometryGrouping|TestFusedTimingMemoAccounting|TestFusedTimingStoreFlow' ./internal/experiments

echo "==> fused accuracy equivalence (RunMany lanes and every BatchStepper vs the scalar protocol, packed perceptron vs textbook oracle, race-enabled)"
go test -race -run 'TestRunManyEquivalence|TestRunManySingleLane' ./internal/funcsim
go test -race -run 'TestStepBatchEquivalence|TestPerceptronMatchesTextbook' ./internal/predictor

echo "==> cell store equivalence + robustness (store-served cells bit-identical; corrupt/truncated/stale entries recomputed, race-enabled)"
go test -race ./internal/resultstore
go test -race -run 'TestTimingStoreEquivalence|TestTimingStoreWarmDoesNotSimulate|TestAccuracyStoreEquivalence|TestStoreKeySeparatesFamilies|TestRunCellsPanicKey' ./internal/experiments

echo "==> batched-loop allocation bounds (no race: alloc counts need a plain build)"
go test -run 'TestBatchedRunAllocs|TestRunManyAllocs' ./internal/funcsim
go test -run 'TestMultiComponentAllocs' ./internal/predictor
go test -run 'TestBatchedTimingRunAllocs|TestFusedTimingAllocs' ./internal/pipeline

echo "==> go test -race ./..."
go test -race ./...

echo "All checks passed."
