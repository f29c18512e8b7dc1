package pipeline

import (
	"reflect"
	"testing"

	"branchsim/internal/cache"
	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// opaqueReplay hides every protocol but Source, so the engine assembles its
// batches one Next call at a time and simulates live caches.
type opaqueReplay struct{ src trace.Source }

func (o opaqueReplay) Next(inst *trace.Inst) bool { return o.src.Next(inst) }
func (o opaqueReplay) Name() string               { return o.src.Name() }

// instSourceOnly exposes the batch protocol without being a *trace.Cursor;
// the engine treats it as a plain Source.
type instSourceOnly struct{ cur *trace.Cursor }

func (o instSourceOnly) Next(inst *trace.Inst) bool     { return o.cur.Next(inst) }
func (o instSourceOnly) NextInsts(dst []trace.Inst) int { return o.cur.NextInsts(dst) }
func (o instSourceOnly) Name() string                   { return o.cur.Name() }

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return prof
}

// timingOrgs are the predictor organizations the equivalence suite sweeps:
// an ideal single-cycle predictor, the overriding quick+slow organization
// (whose override bubbles interact with fetch state), and the cycle-aware
// pipelined gshare.fast (which consumes the fetch clock).
func timingOrgs() []struct {
	name string
	mk   func() predictor.Predictor
} {
	return []struct {
		name string
		mk   func() predictor.Predictor
	}{
		{"ideal-gshare-16KB", func() predictor.Predictor {
			return predictor.NewGShareFromBudget(16 << 10)
		}},
		{"override-perceptron-64KB", func() predictor.Predictor {
			return core.NewOverriding(predictor.NewGShare(2048, 0),
				predictor.NewPerceptronFromBudget(64<<10), 4)
		}},
		{"gshare.fast-64KB", func() predictor.Predictor {
			return core.New(core.Config{Entries: 1 << 15, Latency: 3})
		}},
	}
}

// TestTimingFastPathEquivalence pins the engine's drive paths against each
// other: the devirtualized replay cursor, other sources fed one Next call
// at a time, and the memory-latency sidecar must each reproduce the
// live-cache run over an opaque source bit for bit — across benchmarks
// (including a stream shorter than the budget), predictor organizations,
// and warmup settings.
func TestTimingFastPathEquivalence(t *testing.T) {
	cases := []struct {
		bench    string
		recorded int64 // stream length materialized for the replay sources
	}{
		// Recording longer than the budget: the run stops at the budget.
		{"gzip", 200_000},
		{"mcf", 200_000},
		// Recording shorter than the budget: the run stops at stream end.
		{"twolf", 80_000},
	}
	const maxInsts = 150_000
	cfg := DefaultConfig()
	side := map[string]*MemSidecar{}
	for _, tc := range cases {
		rec := workload.Record(mustProfile(t, tc.bench), tc.recorded)
		side[tc.bench] = BuildMemSidecar(rec, MemGeometryOf(cfg))
		for _, org := range timingOrgs() {
			for _, warmup := range []int64{0, 40_000} {
				t.Run(tc.bench+"/"+org.name, func(t *testing.T) {
					want := Run(cfg, org.mk(), opaqueReplay{rec.Replay()}, nil, maxInsts, warmup)

					batched := Run(cfg, org.mk(), rec.Replay(), nil, maxInsts, warmup)
					if !reflect.DeepEqual(batched, want) {
						t.Errorf("warmup %d: batched cursor diverges:\n got %+v\nwant %+v", warmup, batched, want)
					}

					iface := Run(cfg, org.mk(), instSourceOnly{rec.Replay()}, nil, maxInsts, warmup)
					if !reflect.DeepEqual(iface, want) {
						t.Errorf("warmup %d: batched InstSource diverges:\n got %+v\nwant %+v", warmup, iface, want)
					}

					withSide := Run(cfg, org.mk(), rec.Replay(), side[tc.bench], maxInsts, warmup)
					if !reflect.DeepEqual(withSide, want) {
						t.Errorf("warmup %d: sidecar run diverges:\n got %+v\nwant %+v", warmup, withSide, want)
					}
				})
			}
		}
	}
}

// TestSidecarFallback pins the safety rails: a sidecar precomputed under a
// different cache geometry, or presented with a mid-stream cursor, must be
// ignored in favor of the live hierarchy.
func TestSidecarFallback(t *testing.T) {
	rec := workload.Record(mustProfile(t, "gzip"), 120_000)
	mk := func() predictor.Predictor { return predictor.NewGShareFromBudget(16 << 10) }
	cfg := DefaultConfig()
	want := Run(cfg, mk(), opaqueReplay{rec.Replay()}, nil, 120_000, 30_000)

	t.Run("geometry-mismatch", func(t *testing.T) {
		other := MemGeometryOf(cfg)
		other.L1I = cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Ways: 1}
		got := Run(cfg, mk(), rec.Replay(), BuildMemSidecar(rec, other), 120_000, 30_000)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("mismatched-geometry sidecar was not ignored:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("mid-stream-cursor", func(t *testing.T) {
		cur := rec.Replay()
		var inst trace.Inst
		cur.Next(&inst) // cursor no longer at position 0
		got := Run(cfg, mk(), cur, BuildMemSidecar(rec, MemGeometryOf(cfg)), 120_000, 30_000)
		ref := Run(cfg, mk(), opaqueReplay{offsetReplay(rec)}, nil, 120_000, 30_000)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("mid-stream cursor with sidecar diverges from live run:\n got %+v\nwant %+v", got, ref)
		}
	})

	t.Run("other-recording", func(t *testing.T) {
		other := workload.Record(mustProfile(t, "mcf"), 120_000)
		got := Run(cfg, mk(), rec.Replay(), BuildMemSidecar(other, MemGeometryOf(cfg)), 120_000, 30_000)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("foreign-recording sidecar was not ignored:\n got %+v\nwant %+v", got, want)
		}
	})
}

// offsetReplay returns a cursor advanced by one instruction, matching the
// mid-stream case above.
func offsetReplay(rec *trace.Recording) *trace.Cursor {
	cur := rec.Replay()
	var inst trace.Inst
	cur.Next(&inst)
	return cur
}

// TestBatchedTimingRunAllocs pins the one-lane path the per-cell
// experiment cells take: Run over a replay cursor with a covering sidecar
// allocates only its setup (lane state, rings, caches, the result), so a
// 5x longer stream allocates exactly as much as a short one. Skipped under
// -race, which instruments allocation.
func TestBatchedTimingRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := DefaultConfig()
	measure := func(rec *trace.Recording) float64 {
		side := BuildMemSidecar(rec, MemGeometryOf(cfg))
		cur := rec.Replay()
		return testing.AllocsPerRun(5, func() {
			cur.Reset()
			Run(cfg, predictor.NewGShareFromBudget(16<<10), cur, side, 100_000, 20_000)
		})
	}
	prof := mustProfile(t, "gzip")
	short, long := workload.Record(prof, 20_000), workload.Record(prof, 100_000)
	if a, b := measure(short), measure(long); a != b {
		t.Fatalf("Run allocates per batch: %.1f allocs on a short stream, %.1f on a long one", a, b)
	}
}
