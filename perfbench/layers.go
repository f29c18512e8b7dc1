package main

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"branchsim/internal/experiments"
	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/resultstore"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// probeInsts caps the stream a traced run drives through a simulator its
// workload does not run, so every per-layer metric is reported for every
// workload at a bounded cost.
const probeInsts = 100_000

// span is one timed call into a layer's public API, made from this
// package. Primary spans are the work the workload's reproduce child does
// itself; the rest are diagnostic drains and probes.
type span struct {
	layer   string
	primary bool
	wall    time.Duration
	cpu     time.Duration // process user+system CPU, GC workers included
	mallocs uint64        // runtime.MemStats.Mallocs delta
}

// tracer records spans in memory; they are summarized when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

// time runs f as one span of layer.
func (t *tracer) time(layer string, primary bool, f func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	start := time.Now()
	f()
	wall := time.Since(start)
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&after)
	t.spans = append(t.spans, span{layer: layer, primary: primary, wall: wall, cpu: cpu,
		mallocs: after.Mallocs - before.Mallocs})
}

// total sums layer's spans.
func (t *tracer) total(layer string) (wall time.Duration, mallocs uint64) {
	for _, s := range t.spans {
		if s.layer == layer {
			wall += s.wall
			mallocs += s.mallocs
		}
	}
	return wall, mallocs
}

// primaryCPU sums the CPU time of every primary span.
func (t *tracer) primaryCPU() time.Duration {
	var cpu time.Duration
	for _, s := range t.spans {
		if s.primary {
			cpu += s.cpu
		}
	}
	return cpu
}

// summary prints each layer's span count, wall and CPU time to stderr.
func (t *tracer) summary() {
	type agg struct {
		n         int
		wall, cpu time.Duration
		primary   bool
	}
	by := map[string]*agg{}
	var layers []string
	for _, s := range t.spans {
		a := by[s.layer]
		if a == nil {
			a = &agg{primary: s.primary}
			by[s.layer] = a
			layers = append(layers, s.layer)
		}
		a.n++
		a.wall += s.wall
		a.cpu += s.cpu
	}
	sort.Strings(layers)
	fmt.Fprintf(os.Stderr, "%-28s %6s %10s %10s  %s\n", "layer", "spans", "wall_s", "cpu_s", "primary")
	for _, l := range layers {
		a := by[l]
		fmt.Fprintf(os.Stderr, "%-28s %6d %10.4f %10.4f  %v\n", l, a.n, a.wall.Seconds(), a.cpu.Seconds(), a.primary)
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF on a live process cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// family is the lane groups one simulator runs in a traced replay.
type family struct {
	groups [][]cell
	insts  int64 // stream length per benchmark; warm-up is insts/4
	// primary: the workload's reproduce child runs this simulator, and its
	// results are the cells the store layer writes and reads.
	primary bool
}

// families picks the traced replay's lane groups. A simulator the
// workload's experiments run gets their groups at the workload's length;
// one they do not run gets the other cold workload's groups, capped at
// probeInsts.
func families(w workloadSpec) (acc, tim family) {
	ag, tg := groups(w.experiments)
	acc = family{groups: ag, insts: w.insts, primary: true}
	tim = family{groups: tg, insts: w.insts, primary: true}
	if len(ag) == 0 {
		ref, _ := workloadByName("accuracy-cold")
		acc = family{insts: min(w.insts, probeInsts)}
		acc.groups, _ = groups(ref.experiments)
	}
	if len(tg) == 0 {
		ref, _ := workloadByName("timing-cold")
		tim = family{insts: min(w.insts, probeInsts)}
		_, tim.groups = groups(ref.experiments)
	}
	return acc, tim
}

// counts tallies the work the traced replay hands each layer, the
// denominators of the per-layer rates.
type counts struct {
	genInsts, recInsts, recBytes int64
	replayInsts, replayBranches  int64
	accBranches, accLaneBranches int64 // per RunMany call: stream branches, and branches × lanes
	timInsts, timLaneInsts       int64 // per RunMany call: stream insts, and insts × lanes
	predBranches                 int64
	mispredicts                  int64
	cycles                       uint64
}

// replay is one traced replay of a workload's work.
type replay struct {
	w        workloadSpec
	acc, tim family
	t        *tracer
	n        counts
	digests  []string             // per-recording content digests, in profile order
	cells    []resultstore.Record // every primary-family result, keyed as reproduce keys it
}

// traceLayers replays w's work layer by layer, in-process, over the paper
// profiles with seed added to each profile's seed, using store (an empty
// directory) for the result-store layer. It returns the replay, which
// holds the spans and the per-recording digests, and the per-layer
// metrics (all but experiments.*).
func traceLayers(w workloadSpec, seed int64, store string) (*replay, map[string]metric, error) {
	r := &replay{w: w, t: &tracer{origin: time.Now()}}
	r.acc, r.tim = families(w)
	for _, prof := range workload.Profiles() {
		prof.Seed += uint64(seed)
		if err := r.bench(prof); err != nil {
			return nil, nil, err
		}
	}
	storeBytes, err := r.store(store)
	if err != nil {
		return nil, nil, err
	}
	return r, r.metrics(storeBytes), nil
}

// workCounts are the counts of work that cmd/reproduce -timings prints on
// stderr. The traced replay derives the same counts from its own lane
// groups and cells, so a replay that no longer does the work reproduce
// does is caught rather than silently measured.
type workCounts struct {
	recordings                    int
	accuracyCells, accuracyDups   int // distinct cells simulated, duplicates served by the memo
	timingCells, timingDups       int
	accuracyPasses, accuracyLanes int // fused trace passes, cells served by them
	timingPasses, timingLanes     int
	storeHits, storeMisses        int
	storeWrites                   int
}

// countLines maps each -timings line to the counts it carries, in order.
var countLines = []struct {
	re     *regexp.Regexp
	fields func(c *workCounts) []*int
}{
	{regexp.MustCompile(`\(trace store: (\d+) recordings`),
		func(c *workCounts) []*int { return []*int{&c.recordings} }},
	{regexp.MustCompile(`\(timing memo: (\d+) distinct cells simulated, (\d+) duplicate`),
		func(c *workCounts) []*int { return []*int{&c.timingCells, &c.timingDups} }},
	{regexp.MustCompile(`\(accuracy memo: (\d+) distinct cells simulated, (\d+) duplicate`),
		func(c *workCounts) []*int { return []*int{&c.accuracyCells, &c.accuracyDups} }},
	{regexp.MustCompile(`\(grid fusion: (\d+) fused trace passes run \([0-9.]+ lanes each\); (\d+) accuracy cells served fused`),
		func(c *workCounts) []*int { return []*int{&c.accuracyPasses, &c.accuracyLanes} }},
	{regexp.MustCompile(`\(timing fusion: (\d+) fused timing passes run \([0-9.]+ lanes each\); (\d+) timing cells served fused`),
		func(c *workCounts) []*int { return []*int{&c.timingPasses, &c.timingLanes} }},
	{regexp.MustCompile(`\(result store: (\d+) cells served from disk, (\d+) cold cells computed, \d+ invalid entries recomputed; (\d+) cells written back`),
		func(c *workCounts) []*int { return []*int{&c.storeHits, &c.storeMisses, &c.storeWrites} }},
}

// parseCounts reads the work counts from reproduce -timings stderr.
func parseCounts(stderr []byte) (workCounts, error) {
	var c workCounts
	for _, l := range countLines {
		m := l.re.FindSubmatch(stderr)
		if m == nil {
			return c, fmt.Errorf("reproduce -timings printed no line matching %s", l.re)
		}
		for i, f := range l.fields(&c) {
			n, err := strconv.Atoi(string(m[i+1]))
			if err != nil {
				return c, err
			}
			*f = n
		}
	}
	return c, nil
}

// counts returns the work counts reproduce should print for the work this
// replay did. Every stored cell is one distinct memo cell; the plans'
// other cells are memo duplicates. The child runs each primary family's
// groups as fused passes and writes every cell.
func (r *replay) counts() workCounts {
	benches := len(r.digests)
	c := workCounts{recordings: benches}
	for _, rec := range r.cells {
		if rec.Accuracy != nil {
			c.accuracyCells++
		} else {
			c.timingCells++
		}
	}
	accPlan, timPlan := planCells(r.w.experiments)
	if r.acc.primary {
		c.accuracyDups = accPlan*benches - c.accuracyCells
		c.accuracyPasses, c.accuracyLanes = len(r.acc.groups)*benches, c.accuracyCells
	}
	if r.tim.primary {
		c.timingDups = timPlan*benches - c.timingCells
		c.timingPasses, c.timingLanes = len(r.tim.groups)*benches, c.timingCells
	}
	c.storeMisses, c.storeWrites = len(r.cells), len(r.cells)
	return c
}

// checkCounts compares the work counts a reproduce child printed with
// -timings against the replay's.
func (r *replay) checkCounts(stderr []byte) error {
	got, err := parseCounts(stderr)
	if err != nil {
		return fmt.Errorf("%s: %w", r.w.name, err)
	}
	if want := r.counts(); got != want {
		return fmt.Errorf("%s: reproduce did different work from the traced replay: reproduce -timings %+v, replay %+v",
			r.w.name, got, want)
	}
	return nil
}

// bench replays one benchmark: record and digest its stream, drain it
// through each protocol, then run the simulators over it.
func (r *replay) bench(prof workload.Profile) error {
	t, n := r.t, &r.n
	var rec *trace.Recording
	t.time("trace.record", true, func() { rec = trace.Record(workload.New(prof), r.w.insts) })
	var digest string
	t.time("trace.digest", true, func() { digest = rec.Digest() })
	r.digests = append(r.digests, digest)
	n.recInsts += rec.Len()
	n.recBytes += rec.SizeBytes()

	t.time("workload.gen", false, func() { n.genInsts += drainProgram(workload.New(prof), r.w.insts) })
	t.time("trace.replay", false, func() { n.replayInsts += drainInsts(rec.Replay()) })
	t.time("trace.branch_replay", false, func() { n.replayBranches += drainBranches(rec.Replay()) })
	var side *pipeline.MemSidecar
	geom := pipeline.MemGeometryOf(pipeline.DefaultConfig())
	t.time("pipeline.sidecar", r.tim.primary, func() { side = pipeline.BuildMemSidecar(rec, geom) })

	key := func(c cell, family string, insts int64) resultstore.Key {
		return resultstore.Key{Family: family, Kind: c.kind, Org: c.org, Budget: c.budget,
			Bench: prof.Name, Seed: prof.Seed, Insts: insts, Warmup: insts / 4, Trace: digest}
	}
	if err := r.accuracy(prof, rec, key); err != nil {
		return err
	}
	return r.timing(rec, side, key)
}

// accuracy runs funcsim.RunMany over the accuracy lane groups, then each
// predictor kind alone at 64 KB over the same window. Where a fused lane
// ran the same cell, the two results must agree.
func (r *replay) accuracy(prof workload.Profile, rec *trace.Recording, key func(cell, string, int64) resultstore.Key) error {
	t, n, acc := r.t, &r.n, r.acc
	_, br := trace.CountBranches(rec.Replay(), acc.insts)
	opts := funcsim.Options{MaxInsts: acc.insts, WarmupInsts: acc.insts / 4}
	fused := map[cell]funcsim.Result{}
	for _, g := range acc.groups {
		var lanes []funcsim.Lane
		var err error
		t.time("funcsim.lanes", acc.primary, func() { lanes, err = accuracyLanes(g) })
		if err != nil {
			return err
		}
		var res []funcsim.Result
		t.time("funcsim.runmany", acc.primary, func() { res = funcsim.RunMany(lanes, rec.Replay(), opts) })
		n.accBranches += br
		n.accLaneBranches += br * int64(len(lanes))
		for i, c := range g {
			fused[c] = res[i]
			n.mispredicts += res[i].Mispredicts
			if acc.primary {
				a := res[i]
				r.cells = append(r.cells, resultstore.Record{Key: key(c, "accuracy", acc.insts), Accuracy: &a})
			}
		}
	}

	for _, kind := range predictorKinds {
		p, err := experiments.NewPredictor(kind, 64<<10)
		if err != nil {
			return err
		}
		var res []funcsim.Result
		t.time("predictor."+kind, false, func() { res = funcsim.RunMany([]funcsim.Lane{{P: p}}, rec.Replay(), opts) })
		if f, ok := fused[cell{kind: kind, budget: 64 << 10}]; ok &&
			(f.Mispredicts != res[0].Mispredicts || f.Branches != res[0].Branches) {
			return fmt.Errorf("%s: %s at 64KB on %s: one-lane RunMany %d/%d mispredicts, fused lane %d/%d",
				r.w.name, kind, prof.Name, res[0].Mispredicts, res[0].Branches, f.Mispredicts, f.Branches)
		}
	}
	n.predBranches += br
	return nil
}

// timing runs pipeline.RunMany with the sidecar over the timing lane
// groups.
func (r *replay) timing(rec *trace.Recording, side *pipeline.MemSidecar, key func(cell, string, int64) resultstore.Key) error {
	t, n, tim := r.t, &r.n, r.tim
	insts := min(tim.insts, rec.Len())
	for _, g := range tim.groups {
		var lanes []pipeline.Lane
		var err error
		t.time("pipeline.lanes", tim.primary, func() { lanes, err = timingLanes(g) })
		if err != nil {
			return err
		}
		var res []pipeline.Result
		t.time("pipeline.runmany", tim.primary, func() {
			res = pipeline.RunMany(lanes, rec.Replay(), side, tim.insts, tim.insts/4)
		})
		n.timInsts += insts
		n.timLaneInsts += insts * int64(len(lanes))
		for i, c := range g {
			n.cycles += res[i].Cycles
			if tim.primary {
				k := key(c, "timing", tim.insts)
				k.Machine = fmt.Sprintf("%+v", lanes[i].Cfg.Canonical())
				tr := res[i]
				r.cells = append(r.cells, resultstore.Record{Key: k, Timing: &tr})
			}
		}
	}
	return nil
}

// store writes every cell into dir, then reads each back through a freshly
// opened Store, so no in-process state serves the gets, and checks that
// every get returns what was put. It returns the bytes left in dir.
func (r *replay) store(dir string) (int64, error) {
	put, err := resultstore.Open(dir)
	if err != nil {
		return 0, err
	}
	r.t.time("resultstore.put", true, func() {
		for _, c := range r.cells {
			put.Put(c.Key, c)
		}
	})
	if s := put.Stats(); s.WriteErrors > 0 {
		return 0, fmt.Errorf("%s: result store: %d write errors", r.w.name, s.WriteErrors)
	}
	get, err := resultstore.Open(dir)
	if err != nil {
		return 0, err
	}
	got := make([]resultstore.Record, len(r.cells))
	r.t.time("resultstore.get", false, func() {
		for i, c := range r.cells {
			got[i], _ = get.Get(c.Key) // a miss leaves the zero Record, which the check below rejects
		}
	})
	for i, c := range r.cells {
		if !reflect.DeepEqual(got[i], c) {
			return 0, fmt.Errorf("%s: result store served %s differently from what was put", r.w.name, c.Key.Canonical())
		}
	}
	return dirBytes(dir)
}

// metrics derives the per-layer rates from the spans and counts.
func (r *replay) metrics(storeBytes int64) map[string]metric {
	n := r.n
	ns := func(layer string, per int64) float64 {
		wall, _ := r.t.total(layer)
		return float64(wall.Nanoseconds()) / float64(per)
	}
	allocs := func(layer string, per int64) float64 {
		_, m := r.t.total(layer)
		return float64(m) / float64(per)
	}
	seconds := func(layer string) float64 {
		wall, _ := r.t.total(layer)
		return wall.Seconds()
	}
	cells := int64(len(r.cells))
	m := map[string]metric{
		"workload.gen_ns_per_inst":          {ns("workload.gen", n.genInsts), "ns/inst"},
		"trace.record_ns_per_inst":          {ns("trace.record", n.recInsts), "ns/inst"},
		"trace.digest_ns_per_inst":          {ns("trace.digest", n.recInsts), "ns/inst"},
		"trace.resident_bytes_per_inst":     {float64(n.recBytes) / float64(n.recInsts), "B/inst"},
		"trace.replay_ns_per_inst":          {ns("trace.replay", n.replayInsts), "ns/inst"},
		"trace.branch_replay_ns_per_branch": {ns("trace.branch_replay", n.replayBranches), "ns/branch"},
		"pipeline.sidecar_ns_per_inst":      {ns("pipeline.sidecar", n.recInsts), "ns/inst"},
		"funcsim.runmany_s":                 {seconds("funcsim.runmany"), "s"},
		"funcsim.ns_per_branch_lane":        {ns("funcsim.runmany", n.accLaneBranches), "ns/branch/lane"},
		"funcsim.allocs_per_branch":         {allocs("funcsim.runmany", n.accBranches), "allocs/branch"},
		"funcsim.mispredicts":               {float64(n.mispredicts), "count"},
		"pipeline.runmany_s":                {seconds("pipeline.runmany"), "s"},
		"pipeline.ns_per_inst_lane":         {ns("pipeline.runmany", n.timLaneInsts), "ns/inst/lane"},
		"pipeline.allocs_per_inst":          {allocs("pipeline.runmany", n.timInsts), "allocs/inst"},
		"pipeline.cycles":                   {float64(n.cycles), "cycles"},
		"resultstore.put_us_per_cell":       {ns("resultstore.put", cells) / 1e3, "us/cell"},
		"resultstore.get_us_per_cell":       {ns("resultstore.get", cells) / 1e3, "us/cell"},
		"resultstore.bytes_per_cell":        {float64(storeBytes) / float64(cells), "B/cell"},
	}
	for _, kind := range predictorKinds {
		m["predictor."+kind+".ns_per_branch"] = metric{ns("predictor."+kind, n.predBranches), "ns/branch"}
		m["predictor."+kind+".allocs_per_branch"] = metric{allocs("predictor."+kind, n.predBranches), "allocs/branch"}
	}
	return m
}

// accuracyLanes builds one fresh predictor per accuracy cell.
func accuracyLanes(g []cell) ([]funcsim.Lane, error) {
	lanes := make([]funcsim.Lane, len(g))
	for i, c := range g {
		p, err := experiments.NewPredictor(c.kind, c.budget)
		if err != nil {
			return nil, err
		}
		lanes[i] = funcsim.Lane{P: p}
	}
	return lanes, nil
}

// timingLanes builds one fresh pipeline lane per timing cell, on the
// Table 1 machine.
func timingLanes(g []cell) ([]pipeline.Lane, error) {
	lanes := make([]pipeline.Lane, len(g))
	for i, c := range g {
		var p predictor.Predictor
		var err error
		if c.org == "override" {
			p, err = experiments.NewOverriding(c.kind, c.budget)
		} else {
			p, err = experiments.NewPredictor(c.kind, c.budget)
		}
		if err != nil {
			return nil, err
		}
		lanes[i] = pipeline.Lane{Cfg: pipeline.DefaultConfig(), Pred: p}
	}
	return lanes, nil
}

// drainProgram pulls up to max instructions from a live generator.
func drainProgram(p *workload.Program, max int64) int64 {
	var inst trace.Inst
	var n int64
	for n < max && p.Next(&inst) {
		n++
	}
	return n
}

// drainInsts replays every instruction of a cursor in batches.
func drainInsts(c *trace.Cursor) int64 {
	buf := make([]trace.Inst, trace.InstBatchLen)
	var n int64
	for {
		k := c.NextInsts(buf)
		if k == 0 {
			return n
		}
		n += int64(k)
	}
}

// drainBranches replays every conditional branch of a cursor in batches.
func drainBranches(c *trace.Cursor) int64 {
	buf := make([]trace.BranchRec, 256)
	var n int64
	for {
		k := c.NextBranches(buf)
		if k == 0 {
			return n
		}
		n += int64(k)
	}
}
