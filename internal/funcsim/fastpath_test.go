package funcsim

import (
	"reflect"
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// opaqueSrc hides every protocol but Source, so Run and RunBlocks drain it
// one instruction at a time through trace.FilterBranches.
type opaqueSrc struct{ src trace.Source }

func (o opaqueSrc) Next(inst *trace.Inst) bool { return o.src.Next(inst) }
func (o opaqueSrc) Name() string               { return o.src.Name() }

// opaqueClassified additionally keeps the branch classifier visible, so
// PerClass runs stay comparable across the source shapes.
type opaqueClassified struct {
	opaqueSrc
	c BranchClassifier
}

func (o opaqueClassified) BranchClassName(pc uint64) (string, bool) {
	return o.c.BranchClassName(pc)
}

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return prof
}

// TestFastPathEquivalenceRun pins the source shapes against each other: a
// replay cursor's branch index, a live generator's own filter, and an
// opaque Source drained through trace.FilterBranches must give the same
// Result bit for bit — across benchmarks, for a plain predictor and for a
// cycle-aware one (whose fetch clock is reconstructed from InstIndex),
// whether the run ends at the instruction budget or at the end of the
// stream.
func TestFastPathEquivalenceRun(t *testing.T) {
	predictors := []struct {
		name string
		mk   func() predictor.Predictor
	}{
		{"gshare-16KB", func() predictor.Predictor { return predictor.NewGShareFromBudget(16 << 10) }},
		// gshare.fast is CycleAware: it consumes the reconstructed clock.
		{"gshare.fast-64KB", func() predictor.Predictor {
			return core.New(core.Config{Entries: 1 << 15, Latency: 3})
		}},
	}
	cases := []struct {
		bench    string
		recorded int64 // stream length materialized for the replay sources
	}{
		// Recording longer than MaxInsts: the run stops at the budget.
		{"gzip", 200_000},
		{"mcf", 200_000},
		// Recording shorter than MaxInsts: the run stops at stream end.
		{"twolf", 80_000},
	}
	opts := Options{MaxInsts: 150_000, WarmupInsts: 40_000, FetchWidth: 3}
	for _, tc := range cases {
		prof := mustProfile(t, tc.bench)
		rec := workload.Record(prof, tc.recorded)
		for _, pd := range predictors {
			t.Run(tc.bench+"/"+pd.name, func(t *testing.T) {
				// The slow path over the replayed stream is the reference.
				want := Run(pd.mk(), opaqueSrc{rec.Replay()}, opts)
				for name, src := range map[string]trace.Source{
					"replay-fast": rec.Replay(),
					"live-slow":   opaqueSrc{workload.New(prof)},
				} {
					got := Run(pd.mk(), src, opts)
					if tc.recorded < opts.MaxInsts && name == "live-slow" {
						// The live stream does not end at the
						// recording's boundary; only the replayed
						// sources share the short-stream result.
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s diverges from slow replay:\n got %+v\nwant %+v", name, got, want)
					}
				}
				// The live generator's own fast path (Program filters its
				// stream) must match the live slow path exactly, stream
				// boundary or not.
				liveWant := Run(pd.mk(), opaqueSrc{workload.New(prof)}, opts)
				liveGot := Run(pd.mk(), workload.New(prof), opts)
				if !reflect.DeepEqual(liveGot, liveWant) {
					t.Errorf("live fast path diverges:\n got %+v\nwant %+v", liveGot, liveWant)
				}
			})
		}
	}
}

// TestFastPathEquivalencePerClass pins the per-class diagnostic rates across
// source shapes, including the class map contents.
func TestFastPathEquivalencePerClass(t *testing.T) {
	prof := mustProfile(t, "gzip")
	rec := workload.Record(prof, 200_000)
	opts := Options{MaxInsts: 150_000, WarmupInsts: 40_000, PerClass: true}
	slowSrc := workload.Classify(rec.Replay(), prof)
	want := Run(predictor.NewGShareFromBudget(16<<10),
		opaqueClassified{opaqueSrc{slowSrc}, slowSrc.(BranchClassifier)}, opts)
	got := Run(predictor.NewGShareFromBudget(16<<10), workload.Classify(rec.Replay(), prof), opts)
	if len(want.ClassRates) == 0 {
		t.Fatal("slow path collected no class rates")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PerClass fast path diverges:\n got %+v\nwant %+v", got, want)
	}
	for name, w := range want.ClassRates {
		g := got.ClassRates[name]
		if g == nil || *g != *w {
			t.Errorf("class %q: fast %+v, slow %+v", name, g, w)
		}
	}
}

// TestFastPathEquivalenceBlocks pins the block-grouped protocol across
// source shapes: block boundaries (fetch-cycle changes, full blocks)
// reconstructed from InstIndex must group the branches identically.
func TestFastPathEquivalenceBlocks(t *testing.T) {
	opts := Options{MaxInsts: 150_000, WarmupInsts: 40_000, FetchWidth: 8, BlockBranches: 4}
	for _, bench := range []string{"gzip", "mcf", "twolf"} {
		prof := mustProfile(t, bench)
		rec := workload.Record(prof, 200_000)
		mk := func() *core.GShareFast {
			return core.New(core.Config{Entries: 1 << 14, Latency: 3})
		}
		want := RunBlocks(mk(), "blk", opaqueSrc{rec.Replay()}, opts)
		got := RunBlocks(mk(), "blk", rec.Replay(), opts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: block fast path diverges:\n got %+v\nwant %+v", bench, got, want)
		}
	}
}

// TestBatchedRunAllocs pins the one-lane path the per-cell experiment
// cells take: Run over a replay cursor allocates only its setup (the lane
// state and the result), so a 5x longer stream allocates exactly as much
// as a short one. Skipped under -race, which instruments allocation.
func TestBatchedRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	prof := mustProfile(t, "gzip")
	p := predictor.NewGShareFromBudget(16 << 10)
	opts := Options{MaxInsts: 100_000, WarmupInsts: 20_000}
	measure := func(rec *trace.Recording) float64 {
		cur := rec.Replay()
		return testing.AllocsPerRun(10, func() {
			cur.Reset()
			Run(p, cur, opts)
		})
	}
	short, long := workload.Record(prof, 20_000), workload.Record(prof, 100_000)
	Run(p, long.Replay(), opts) // warm the predictor's lazy state, if any
	if a, b := measure(short), measure(long); a != b {
		t.Fatalf("Run allocates per batch: %.1f allocs on a short stream, %.1f on a long one", a, b)
	}
}
