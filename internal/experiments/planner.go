package experiments

import (
	"fmt"
	"runtime/debug"
	"sync"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/workload"
)

// This file is the experiment layer's scheduler: experiments no longer
// compute their grids inline, they enumerate a plan of cells — each one a
// canonical key plus a closure — and hand the plan to a worker pool that
// shards distinct cells across goroutines. The closures fan results back
// into preallocated grid slices (each cell owns exactly one element, so
// the fan-in needs no locking) and resolve through the tiered store:
// in-memory memo (timingmemo.go, accuracymemo.go), then the persistent
// resultstore when Options.Store is set, then simulation.

// A PlannedCell is one schedulable unit of an experiment grid: the canonical key
// naming what it computes — the identity a panic is reported under — and
// the closure that computes it.
type PlannedCell struct {
	Key string
	Run func()
}

// An accuracySpec is one standard accuracy cell declared for fused
// scheduling: the canonical (kind, org, budget, benchmark) identity, the
// predictor construction, and the sink its Result fans back into. Unlike
// a PlannedCell its computation is not a closed closure — the scheduler
// decides, per benchmark and after the memo and store tiers resolve,
// which specs still need simulation, and runs those together through one
// funcsim.RunMany trace pass (fusion.go).
type accuracySpec struct {
	kind   string
	org    string
	budget int
	build  func() predictor.Predictor
	prof   workload.Profile
	sink   func(funcsim.Result)
}

// A timingSpec is one timing cell declared for fused scheduling, the
// timing sibling of accuracySpec: the canonical (kind, org, budget,
// machine, benchmark) identity, the predictor construction, and the sink
// its Result fans back into. The scheduler decides, per (benchmark,
// cache geometry) group and after the memo and store tiers resolve, which
// specs still need simulation, and runs those together through one
// pipeline.RunMany trace pass (fusion.go).
type timingSpec struct {
	kind   string
	org    string
	budget int
	cfg    pipeline.Config
	build  func() predictor.Predictor
	prof   workload.Profile
	sink   func(pipeline.Result)
}

// cellPlan accumulates an experiment's cells before execution.
type cellPlan struct {
	cells []PlannedCell
	acc   []accuracySpec
	tim   []timingSpec
}

func (p *cellPlan) add(key string, run func()) {
	p.cells = append(p.cells, PlannedCell{Key: key, Run: run})
}

// addAccuracy declares one standard accuracy cell (sim = "": plain
// funcsim.Run semantics), published under the same canonical key a
// per-cell lookup uses. Accuracy cells with extra simulator shape
// (RunBlocks) stay on add.
func (p *cellPlan) addAccuracy(kind, org string, budget int, build func() predictor.Predictor, prof workload.Profile, sink func(funcsim.Result)) {
	p.acc = append(p.acc, accuracySpec{kind: kind, org: org, budget: budget, build: build, prof: prof, sink: sink})
}

// addTiming declares one timing cell on machine cfg, published under the
// same canonical key a per-cell lookup uses. As with cellCustom, callers
// must ensure that equal (cfg.Canonical, kind, org, budget) always denotes
// an identical construction.
func (p *cellPlan) addTiming(cfg pipeline.Config, kind, org string, budget int, build func() predictor.Predictor, prof workload.Profile, sink func(pipeline.Result)) {
	p.tim = append(p.tim, timingSpec{kind: kind, org: org, budget: budget, cfg: cfg, build: build, prof: prof, sink: sink})
}

// execute runs the plan: plain cells as scheduled, accuracy and timing
// specs lowered to fused groups, each resolving through the memo and store
// tiers under its per-cell key.
func (p *cellPlan) execute(opts Options) {
	p.executeWith(opts, accuracyMemo, timingMemo, fusionCounters, timingFusionCounters)
}

// executeWith is execute with the process-wide memos and fusion counters
// made explicit so tests can run plans against fresh ones.
func (p *cellPlan) executeWith(opts Options, memo *AccuracyMemo, tmemo *TimingMemo, fc, tfc *FusionCounters) {
	opts = opts.normalize()
	cells := p.cells
	for _, g := range groupSpecs(p.acc, func(s accuracySpec) string { return s.prof.Name }) {
		cells = append(cells, PlannedCell{
			Key: fmt.Sprintf("accuracy.fused|bench=%s|lanes=%d", g[0].prof.Name, len(g)),
			Run: func() { runFusedGroup(memo, fc, g, opts) },
		})
	}
	for _, g := range groupSpecs(p.tim, timingGroupKey) {
		cells = append(cells, PlannedCell{
			Key: fmt.Sprintf("timing.fused|bench=%s|lanes=%d", g[0].prof.Name, len(g)),
			Run: func() { runFusedTimingGroup(tmemo, tfc, g, opts) },
		})
	}
	RunCells(opts.Parallel, cells)
}

// timingGroup keys the fused timing unit: one trace pass per recorded
// stream and cache geometry. Lanes in a group share the cursor and the
// memory sidecar, so they must agree on both; the measurement window is
// uniform across a plan (Options), so it needs no key component.
type timingGroup struct {
	bench string
	seed  uint64
	geom  pipeline.MemGeometry
}

func timingGroupKey(s timingSpec) timingGroup {
	return timingGroup{bench: s.prof.Name, seed: s.prof.Seed, geom: pipeline.MemGeometryOf(s.cfg)}
}

// groupSpecs buckets specs by key in first-appearance order — the fused
// unit is "one trace pass per group".
func groupSpecs[S any, G comparable](specs []S, key func(S) G) [][]S {
	idx := make(map[G]int)
	var groups [][]S
	for _, s := range specs {
		i, ok := idx[key(s)]
		if !ok {
			i = len(groups)
			idx[key(s)] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], s)
	}
	return groups
}

// planKey names a cell for the scheduler: the canonical identity minus the
// measurement window (uniform across a plan) and the trace digest (unknown
// until the stream is recorded). extra carries cell context beyond the
// standard axes — an ablation's machine variant, a block-simulation shape.
func planKey(family, kind, org string, budget int, bench string, extra ...string) string {
	key := fmt.Sprintf("%s|kind=%s|org=%s|budget=%d|bench=%s", family, kind, org, budget, bench)
	for _, e := range extra {
		key += "|" + e
	}
	return key
}

// cellPanic records the first panic raised by any cell in a plan so the
// scheduler can re-raise it with the offending cell's canonical key — a
// worker-pool panic with no cell context is undebuggable in a 696-cell
// grid.
type cellPanic struct {
	mu    sync.Mutex
	set   bool   // guarded by mu
	key   string // guarded by mu
	val   any    // guarded by mu
	stack string // guarded by mu
}

func (p *cellPanic) record(key string, val any, stack []byte) {
	p.mu.Lock()
	if !p.set {
		p.set, p.key, p.val, p.stack = true, key, val, string(stack)
	}
	p.mu.Unlock()
}

func (p *cellPanic) triggered() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.set
}

// rethrow re-raises the recorded panic, now carrying the cell key and the
// original goroutine's stack.
func (p *cellPanic) rethrow() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.set {
		panic(fmt.Sprintf("experiments: cell %s panicked: %v\n%s", p.key, p.val, p.stack))
	}
}

// runCell executes one cell, converting a panic into a recorded
// (key, value, stack) triple instead of letting it unwind a bare worker.
func runCell(p *cellPanic, c PlannedCell) {
	defer func() {
		if r := recover(); r != nil {
			p.record(c.Key, r, debug.Stack())
		}
	}()
	c.Run()
}

// RunCells executes a plan's cells on a worker pool of at most parallel
// goroutines. Cells must write to disjoint destinations (each owns its
// grid element); cells that share a canonical result key coalesce in the
// memo/store tiers rather than here. If any cell panics, the remaining
// cells are skipped and the panic is re-raised from RunCells with the
// offending cell's key prepended.
func RunCells(parallel int, cells []PlannedCell) {
	if parallel > len(cells) {
		parallel = len(cells)
	}
	var pan cellPanic
	if parallel <= 1 {
		for _, c := range cells {
			runCell(&pan, c)
			if pan.triggered() {
				break
			}
		}
		pan.rethrow()
		return
	}
	var wg sync.WaitGroup
	next := make(chan PlannedCell)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				if pan.triggered() {
					continue
				}
				runCell(&pan, c)
			}
		}()
	}
	for _, c := range cells {
		next <- c
	}
	close(next)
	wg.Wait()
	pan.rethrow()
}
