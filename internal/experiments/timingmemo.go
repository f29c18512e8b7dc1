package experiments

import (
	"sync"

	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/resultstore"
	"branchsim/internal/workload"
)

// timingKey canonically identifies one timing-simulation cell. Two cells
// with equal keys construct byte-identical simulations — same machine, same
// predictor organization, same recorded stream and measurement window — so
// their Results are interchangeable. The org component disambiguates
// organizations that share a kind and budget: "ideal" (bare predictor,
// single-cycle idealization — also gshare.fast, whose organization is
// mode-invariant), "override" (behind the 2K-entry quick gshare), and the
// ablation variants ("override.q256", "lag64", "nockpt", ...).
type timingKey struct {
	kind   string
	org    string
	budget int
	bench  string
	seed   uint64
	insts  int64
	warmup int64
	cfg    pipeline.Config
}

// storeKey widens the in-memory key into the persistent store's
// cross-process form: the in-process Config value becomes its canonical
// string rendering and the stream gains its content digest.
func (k timingKey) storeKey(traceDigest string) resultstore.Key {
	return resultstore.Key{
		Family:  "timing",
		Kind:    k.kind,
		Org:     k.org,
		Budget:  k.budget,
		Bench:   k.bench,
		Seed:    k.seed,
		Insts:   k.insts,
		Warmup:  k.warmup,
		Machine: machineString(k.cfg),
		Trace:   traceDigest,
	}
}

// timingEntry serializes one cell's computation: the first caller simulates
// inside the once, duplicates (concurrent or later, across figures) wait
// and share the Result.
type timingEntry struct {
	once sync.Once
	// res is written inside once.Do and read only after Do returns; the
	// sync.Once serializes it, not TimingMemo.mu, so it deliberately has no
	// lockguard annotation.
	res pipeline.Result
}

// TimingMemo memoizes pipeline Results by canonical cell key, so cells
// duplicated across experiment grids — Figure 7's ideal perceptron and
// multi-component columns repeat Figure 2's; gshare.fast's ideal and
// realistic cells are one organization; the ablations revisit figure cells
// at their shared budgets — are simulated once per process.
type TimingMemo struct {
	mu      sync.Mutex
	entries map[timingKey]*timingEntry // guarded by mu
	hits    int64                      // guarded by mu
}

// NewTimingMemo returns an empty memo.
func NewTimingMemo() *TimingMemo {
	return &TimingMemo{entries: make(map[timingKey]*timingEntry)}
}

// timingMemo is the process-wide memo, sibling to traceStore.
var timingMemo = NewTimingMemo()

// TimingMemoStats reports the process-wide timing memo's footprint: distinct
// cells simulated and duplicate lookups served from memory.
func TimingMemoStats() (cells int, hits int64) {
	return timingMemo.stats()
}

// stats snapshots the memo's footprint: distinct entries and memory hits.
func (m *TimingMemo) stats() (cells int, hits int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries), m.hits
}

// resolve publishes the entry's Result: the first caller's compute runs
// inside the once, duplicates (concurrent or later) wait and share it. It
// is the entry's only publication path — result() and the fused
// scheduler's lanes both go through it.
func (e *timingEntry) resolve(compute func() pipeline.Result) pipeline.Result {
	e.once.Do(func() { e.res = compute() })
	return e.res
}

// result returns the memoized Result for key, calling compute to simulate
// it on first use.
func (m *TimingMemo) result(key timingKey, compute func() pipeline.Result) pipeline.Result {
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		e = &timingEntry{}
		m.entries[key] = e
	} else {
		m.hits++
	}
	m.mu.Unlock()
	return e.resolve(compute)
}

// Cell returns the timing Result for the canonical (kind, budget, mode)
// organization on prof's recorded stream under the Table 1 machine,
// memoized in m. It is the figure grids' cell primitive.
func (m *TimingMemo) Cell(kind string, budget int, mode TimingMode, prof workload.Profile, opts Options) pipeline.Result {
	// timingOrg mirrors buildTimed: ideal cells collapse to the bare
	// predictor, so a kind's ideal and realistic cells share one entry when
	// the organization is mode-invariant (gshare.fast; bimode.fast is not —
	// it has no special case there).
	return m.cellCustom(pipeline.DefaultConfig(), kind, timingOrg(kind, mode), budget, func() predictor.Predictor {
		return buildTimed(kind, budget, mode)
	}, prof, opts)
}

// Cell is (*TimingMemo).Cell on the process-wide memo — the form the
// experiment grids use, so duplicate cells dedupe across figures.
func Cell(kind string, budget int, mode TimingMode, prof workload.Profile, opts Options) pipeline.Result {
	return timingMemo.Cell(kind, budget, mode, prof, opts)
}

// cellCustom is Cell for explicitly-constructed organizations (the
// ablations' lagged, resized-quick, uncheckpointed and depth variants).
// Callers must ensure that equal (cfg.Canonical, kind, org, budget) always
// denotes an identical construction — the memo trades on that.
func (m *TimingMemo) cellCustom(cfg pipeline.Config, kind, org string, budget int, build func() predictor.Predictor, prof workload.Profile, opts Options) pipeline.Result {
	opts = opts.normalize()
	key := timingKey{
		kind:   kind,
		org:    org,
		budget: budget,
		bench:  prof.Name,
		seed:   prof.Seed,
		insts:  opts.Insts,
		warmup: opts.Warmup,
		cfg:    cfg.Canonical(),
	}
	return m.result(key, func() pipeline.Result {
		return storedComputeTiming(key, prof, opts, func() pipeline.Result {
			return timingRunCfg(cfg, build, prof, opts)
		})
	})
}

// storedComputeTiming resolves one cold cell's computation through the
// persistent store when one is configured — the timing counterpart of
// storedCompute, shared by cellCustom's memo-miss path and the fused
// scheduler's preowned fallback.
func storedComputeTiming(key timingKey, prof workload.Profile, opts Options, compute func() pipeline.Result) pipeline.Result {
	if opts.Store == nil {
		return compute()
	}
	skey := key.storeKey(traceDigest(prof, opts))
	rec := opts.Store.Do(skey, func() resultstore.Record {
		res := compute()
		return resultstore.Record{Key: skey, Timing: &res}
	})
	if rec.Timing == nil {
		// A record can only lack its payload if some compute handed the
		// store one; never serve a zero Result for it.
		return compute()
	}
	return *rec.Timing
}

// specTimingKey returns s's canonical memo key under opts (already
// normalized).
func specTimingKey(s timingSpec, opts Options) timingKey {
	return timingKey{
		kind:   s.kind,
		org:    s.org,
		budget: s.budget,
		bench:  s.prof.Name,
		seed:   s.prof.Seed,
		insts:  opts.Insts,
		warmup: opts.Warmup,
		cfg:    s.cfg.Canonical(),
	}
}

// acquireLanes is the fused timing scheduler's memo tier, the timing
// counterpart of (*AccuracyMemo).acquireLanes: one lock acquisition
// classifies a group's specs into owned lanes (entries this call creates
// — the fusion candidates, with in-group duplicates attached as extra
// sinks) and preowned lanes (entries predating the group, resolved solo).
// Every lookup that finds an existing entry counts a memory hit, exactly
// as in result().
func (m *TimingMemo) acquireLanes(specs []timingSpec, opts Options) (owned, preowned []*fusedLane[timingSpec, pipeline.Result]) {
	byKey := make(map[timingKey]*fusedLane[timingSpec, pipeline.Result], len(specs))
	m.mu.Lock()
	for _, s := range specs {
		key := specTimingKey(s, opts)
		if l := byKey[key]; l != nil {
			m.hits++
			l.sinks = append(l.sinks, s.sink)
			continue
		}
		e := m.entries[key]
		l := &fusedLane[timingSpec, pipeline.Result]{spec: s, sinks: []func(pipeline.Result){s.sink}}
		if e != nil {
			m.hits++
			l.resolve = e.resolve
			preowned = append(preowned, l)
			continue
		}
		e = &timingEntry{}
		m.entries[key] = e
		l.resolve = e.resolve
		byKey[key] = l
		owned = append(owned, l)
	}
	m.mu.Unlock()
	return owned, preowned
}
