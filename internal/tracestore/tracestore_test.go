package tracestore

import (
	"sync"
	"sync/atomic"
	"testing"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// equivalenceBenchmarks are the streams the replay-equivalence guarantee is
// proven on: a low-noise benchmark, the pointer-chasing one, and the
// noisiest one.
var equivalenceBenchmarks = []string{"gzip", "mcf", "twolf"}

const (
	eqInsts  = 300_000
	eqWarmup = 75_000
)

func profileFor(t *testing.T, name string) workload.Profile {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return prof
}

// funcsimEqual compares every scalar field of two accuracy results
// (Result carries a map, so == does not apply).
func funcsimEqual(a, b funcsim.Result) bool {
	return a.Predictor == b.Predictor && a.Workload == b.Workload &&
		a.Insts == b.Insts && a.Branches == b.Branches &&
		a.Mispredicts == b.Mispredicts && a.TakenRate == b.TakenRate &&
		a.PredSizeByte == b.PredSizeByte
}

// TestReplayEquivalenceFuncsim asserts the tentpole guarantee for the
// accuracy simulator: a predictor driven by a replayed recording produces a
// Result bit-identical to one driven by live generation.
func TestReplayEquivalenceFuncsim(t *testing.T) {
	for _, name := range equivalenceBenchmarks {
		t.Run(name, func(t *testing.T) {
			prof := profileFor(t, name)
			opts := funcsim.Options{MaxInsts: eqInsts, WarmupInsts: eqWarmup}
			live := funcsim.Run(predictor.NewGShareFromBudget(16<<10), workload.New(prof), opts)
			rec := workload.Record(prof, eqInsts)
			replay := funcsim.Run(predictor.NewGShareFromBudget(16<<10), rec.Replay(), opts)
			if !funcsimEqual(live, replay) {
				t.Errorf("funcsim results differ:\nlive:   %+v\nreplay: %+v", live, replay)
			}
			if replay.Mispredicts == 0 || replay.Branches == 0 {
				t.Error("degenerate run: no branches or no mispredicts measured")
			}
		})
	}
}

// TestReplayEquivalencePipeline asserts the same for the cycle-level timing
// simulator: identical IPC, misprediction, override, cache and BTB
// statistics from live and replayed streams.
func TestReplayEquivalencePipeline(t *testing.T) {
	for _, name := range equivalenceBenchmarks {
		t.Run(name, func(t *testing.T) {
			prof := profileFor(t, name)
			run := func(src trace.Source) pipeline.Result {
				return pipeline.Run(pipeline.DefaultConfig(), predictor.NewGShareFromBudget(16<<10), src, nil, eqInsts, eqWarmup)
			}
			live := run(workload.New(prof))
			rec := workload.Record(prof, eqInsts)
			replay := run(rec.Replay())
			if live != replay {
				t.Errorf("pipeline results differ:\nlive:   %+v\nreplay: %+v", live, replay)
			}
			if replay.IPC() <= 0 {
				t.Error("degenerate run: nonpositive IPC")
			}
		})
	}
}

// TestReplayEquivalenceBlocks covers the block-at-a-time protocol used by
// the multiple-branch experiment.
func TestReplayEquivalenceBlocks(t *testing.T) {
	prof := profileFor(t, "gzip")
	opts := funcsim.Options{MaxInsts: eqInsts, WarmupInsts: eqWarmup, FetchWidth: 8, BlockBranches: 4}
	mk := func() *predictor.GShare { return predictor.NewGShareFromBudget(16 << 10) }
	live := funcsim.RunBlocks(blockAdapter{mk()}, "blk", workload.New(prof), opts)
	rec := workload.Record(prof, eqInsts)
	replay := funcsim.RunBlocks(blockAdapter{mk()}, "blk", rec.Replay(), opts)
	if !funcsimEqual(live, replay) {
		t.Errorf("block results differ:\nlive:   %+v\nreplay: %+v", live, replay)
	}
}

// blockAdapter drives a scalar predictor through the block protocol.
type blockAdapter struct{ p predictor.Predictor }

func (a blockAdapter) PredictBlock(pcs []uint64) []bool {
	out := make([]bool, len(pcs))
	for i, pc := range pcs {
		out[i] = a.p.Predict(pc)
	}
	return out
}

func (a blockAdapter) UpdateBlock(pcs []uint64, takens []bool) {
	for i, pc := range pcs {
		a.p.Update(pc, takens[i])
	}
}

// TestStoreMemoizes asserts the record function runs exactly once per key,
// even under concurrent first use, and that distinct keys record separately.
func TestStoreMemoizes(t *testing.T) {
	prof := profileFor(t, "gzip")
	store := New()
	var records atomic.Int32
	gen := func() trace.Source {
		records.Add(1)
		return workload.New(prof)
	}
	key := Key{Name: prof.Name, Seed: prof.Seed, Insts: 10_000}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := store.Source(key, gen)
			if n, _ := trace.CountBranches(src, 10_000); n != 10_000 {
				t.Errorf("cursor yielded %d insts, want 10000", n)
			}
		}()
	}
	wg.Wait()
	if got := records.Load(); got != 1 {
		t.Fatalf("record ran %d times, want 1", got)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d recordings, want 1", store.Len())
	}
	if store.SizeBytes() <= 0 {
		t.Fatal("store reports zero size for a populated recording")
	}

	// A different instruction budget is a different stream: do not reuse.
	store.Source(Key{Name: prof.Name, Seed: prof.Seed, Insts: 20_000}, gen)
	if got := records.Load(); got != 2 {
		t.Fatalf("record ran %d times after second key, want 2", got)
	}
}

// TestConcurrentReplay exercises many goroutines replaying one shared
// recording simultaneously (run under -race by scripts/check.sh): cursors
// must be independent and every replica must reproduce identical results.
func TestConcurrentReplay(t *testing.T) {
	prof := profileFor(t, "twolf")
	store := New()
	key := Key{Name: prof.Name, Seed: prof.Seed, Insts: 100_000}
	gen := func() trace.Source { return workload.New(prof) }

	const workers = 8
	results := make([]funcsim.Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := store.Source(key, gen)
			results[w] = funcsim.Run(predictor.NewGShareFromBudget(8<<10), src,
				funcsim.Options{MaxInsts: 100_000, WarmupInsts: 25_000})
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !funcsimEqual(results[w], results[0]) {
			t.Fatalf("worker %d result differs: %+v vs %+v", w, results[w], results[0])
		}
	}
}

// TestClassifiedReplay asserts per-class diagnostics survive replay: the
// class rates measured from a classified replay cursor match those from the
// live program.
func TestClassifiedReplay(t *testing.T) {
	prof := profileFor(t, "gzip")
	opts := funcsim.Options{MaxInsts: 100_000, PerClass: true}
	live := funcsim.Run(predictor.NewGShareFromBudget(8<<10), workload.New(prof), opts)
	rec := workload.Record(prof, 100_000)
	replay := funcsim.Run(predictor.NewGShareFromBudget(8<<10), workload.Classify(rec.Replay(), prof), opts)
	if len(live.ClassRates) == 0 {
		t.Fatal("live run produced no class rates")
	}
	if len(replay.ClassRates) != len(live.ClassRates) {
		t.Fatalf("replay saw %d classes, live %d", len(replay.ClassRates), len(live.ClassRates))
	}
	for name, lr := range live.ClassRates {
		rr := replay.ClassRates[name]
		if rr == nil || *rr != *lr {
			t.Errorf("class %s: replay %+v, live %+v", name, rr, lr)
		}
	}
}

// TestStoreDigest pins the digest path the persistent result store keys
// on: Digest memoizes the recording (no second record pass), matches the
// recording's own digest, and equals an independently recorded twin's —
// the cross-process stability the store's cell keys assume.
func TestStoreDigest(t *testing.T) {
	prof := profileFor(t, "mcf")
	store := New()
	var records atomic.Int32
	gen := func() trace.Source {
		records.Add(1)
		return workload.New(prof)
	}
	key := Key{Name: prof.Name, Seed: prof.Seed, Insts: 30_000}

	d := store.Digest(key, gen)
	if d == "" {
		t.Fatal("empty digest")
	}
	if got := store.Digest(key, gen); got != d {
		t.Fatalf("digest changed across calls: %s -> %s", d, got)
	}
	if got := records.Load(); got != 1 {
		t.Fatalf("record ran %d times, want 1 (digest must reuse the memoized recording)", got)
	}
	twin := trace.Record(workload.New(prof), 30_000)
	if twin.Digest() != d {
		t.Fatalf("independently recorded twin digests differently: %s vs %s", twin.Digest(), d)
	}
}
