package pipeline_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"branchsim/internal/btb"
	"branchsim/internal/cache"
	"branchsim/internal/core"
	"branchsim/internal/experiments"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
	"branchsim/internal/stats"
	"branchsim/internal/trace"
)

// oracle is the timing model written for obviousness: the textbook
// trace-driven scoreboard, one instruction at a time, with live caches and
// a map of per-cycle reservations for every issue resource. The engine
// (pipeline.RunMany) must agree with it exactly.
type oracle struct {
	cfg     pipeline.Config
	feDepth uint64
	pred    predictor.Predictor

	icache, dcache, l2 *cache.Cache
	btb                *btb.BTB

	regReady [trace.NumRegs]uint64
	rob      []uint64 // commit cycle of the last ROBSize instructions, a ring
	robIdx   int

	// booked[r][c] counts reservations of resource r at cycle c.
	booked map[string]map[uint64]int

	fetchCycle uint64 // the cycle being fetched into
	fetchUsed  int    // instructions fetched in fetchCycle
	lastBlock  uint64 // current I-cache block address + 1 (0 = none)
	lastCommit uint64

	insts       int64
	warmupCycle uint64
	measured    stats.Rate // mispredictions after the warm-up
	overrides   stats.Rate
	btbMisses   stats.Rate
	fetchStall  uint64
}

func newOracle(cfg pipeline.Config, pred predictor.Predictor) *oracle {
	fe := cfg.FrontEndDepth
	if fe <= 0 {
		fe = cfg.PipelineDepth / 2
	}
	return &oracle{
		cfg:     cfg,
		feDepth: uint64(fe),
		pred:    pred,
		icache:  cache.New(cfg.L1I),
		dcache:  cache.New(cfg.L1D),
		l2:      cache.New(cfg.L2),
		btb:     btb.New(cfg.BTBEntries, cfg.BTBWays),
		rob:     make([]uint64, cfg.ROBSize),
		booked:  map[string]map[uint64]int{},
	}
}

// limit is resource r's reservations per cycle.
func (o *oracle) limit(r string) int {
	return map[string]int{
		"issue": o.cfg.IssueWidth, "int": o.cfg.IntPorts, "mem": o.cfg.MemPorts,
		"mul": o.cfg.MulPorts, "fp": o.cfg.FPPorts, "commit": o.cfg.CommitWidth,
	}[r]
}

func (o *oracle) free(r string, t uint64) bool { return o.booked[r][t] < o.limit(r) }

func (o *oracle) book(r string, t uint64) {
	if o.booked[r] == nil {
		o.booked[r] = map[uint64]int{}
	}
	o.booked[r][t]++
}

// redirect pushes fetch to cycle t, counting the wait as fetch stall.
func (o *oracle) redirect(t uint64) {
	if t > o.fetchCycle {
		o.fetchStall += t - o.fetchCycle
		o.fetchCycle = t
		o.fetchUsed = 0
		o.lastBlock = 0
	}
}

// nextFetchCycle ends the current fetch cycle.
func (o *oracle) nextFetchCycle() {
	o.fetchCycle++
	o.fetchUsed = 0
	o.lastBlock = 0
}

// memLatency is the latency of an access that missed addr's L1 level.
func (o *oracle) memLatency(addr uint64) uint64 {
	if o.l2.Access(addr) {
		return uint64(o.cfg.L2Latency)
	}
	return uint64(o.cfg.MemLatency)
}

func (o *oracle) step(in trace.Inst, warmup int64) {
	if o.insts == warmup {
		o.warmupCycle = o.lastCommit
	}
	o.insts++

	// Fetch: up to FetchWidth instructions per cycle from one I-cache
	// block; a new block costs its miss latency.
	if o.fetchUsed >= o.cfg.FetchWidth {
		o.nextFetchCycle()
	}
	block := in.PC&^uint64(o.cfg.L1I.LineBytes-1) + 1
	if block != o.lastBlock {
		if o.lastBlock != 0 {
			o.nextFetchCycle()
		}
		if !o.icache.Access(in.PC) {
			o.redirect(o.fetchCycle + o.memLatency(in.PC))
		}
		o.lastBlock = block
	}
	fetchAt := o.fetchCycle
	o.fetchUsed++

	// Dispatch waits for a ROB entry: the instruction ROBSize back must
	// have committed.
	dispatchAt := fetchAt + o.feDepth
	if oldest := o.rob[o.robIdx]; dispatchAt <= oldest {
		if oldest+1 > o.feDepth {
			o.redirect(oldest + 1 - o.feDepth)
		}
		fetchAt = o.fetchCycle
		dispatchAt = fetchAt + o.feDepth
	}

	// Predict at fetch. An overriding organization whose slow predictor
	// disagrees squashes the fetch behind the branch for its bubble.
	var guess bool
	if in.Kind == trace.CondBranch {
		if ca, ok := o.pred.(predictor.CycleAware); ok {
			ca.OnCycle(fetchAt)
		}
		guess = o.pred.Predict(in.PC)
		o.pred.Update(in.PC, in.Taken)
		if over, ok := o.pred.(*core.Overriding); ok {
			overrode, bubble := over.LastOverrode()
			o.overrides.Add(overrode)
			if overrode {
				o.redirect(fetchAt + 1 + uint64(bubble))
			}
		}
	}

	// A taken jump, or a branch predicted and resolved taken, needs its
	// target from the BTB; a miss costs a decode redirect.
	if in.Kind == trace.Jump || (in.Kind == trace.CondBranch && guess && in.Taken) {
		if _, hit := o.btb.Lookup(in.PC); hit {
			o.btbMisses.Add(false)
			o.nextFetchCycle()
		} else {
			o.btbMisses.Add(true)
			o.redirect(fetchAt + 1 + uint64(o.cfg.BTBMissPenalty))
		}
		o.btb.Insert(in.PC, in.Target)
	}

	// Issue once the sources are ready, in the first cycle with both an
	// issue slot and a slot on the instruction's port.
	ready := dispatchAt
	for _, src := range []int8{in.Src1, in.Src2} {
		if src >= 0 && o.regReady[src] > ready {
			ready = o.regReady[src]
		}
	}
	port, lat := "int", uint64(1)
	switch in.Kind {
	case trace.Load:
		port, lat = "mem", uint64(o.cfg.L1DLatency)
		if !o.dcache.Access(in.Addr) {
			lat = o.memLatency(in.Addr)
		}
	case trace.Store:
		port = "mem"
		o.dcache.Access(in.Addr) // allocates the line; stores retire from a store queue
	case trace.Mul:
		port, lat = "mul", uint64(o.cfg.MulLatency)
	case trace.FPU:
		port, lat = "fp", uint64(o.cfg.FPLatency)
	}
	issueAt := ready
	for !o.free("issue", issueAt) || !o.free(port, issueAt) {
		issueAt++
	}
	o.book("issue", issueAt)
	o.book(port, issueAt)
	completeAt := issueAt + lat
	if in.Dst >= 0 {
		o.regReady[in.Dst] = completeAt
	}

	// Resolve: a misprediction restarts fetch after the branch completes,
	// plus the organization's recovery cost.
	if in.Kind == trace.CondBranch {
		miss := guess != in.Taken
		if o.insts > warmup {
			o.measured.Add(miss)
		}
		if miss {
			recovery := 0
			if rc, ok := o.pred.(predictor.RecoveryCost); ok {
				recovery = rc.RecoveryPenalty()
			}
			o.redirect(completeAt + 1 + uint64(recovery))
		}
	}

	// Commit in order, at most CommitWidth per cycle.
	commitAt := max(completeAt+1, o.lastCommit)
	for !o.free("commit", commitAt) {
		commitAt++
	}
	o.book("commit", commitAt)
	o.lastCommit = commitAt
	o.rob[o.robIdx] = commitAt
	o.robIdx = (o.robIdx + 1) % len(o.rob)
}

// oracleRun replays up to maxInsts instructions of insts through one
// configuration.
func oracleRun(cfg pipeline.Config, pred predictor.Predictor, insts []trace.Inst, maxInsts, warmup int64) pipeline.Result {
	o := newOracle(cfg, pred)
	for i := 0; i < len(insts) && int64(i) < maxInsts; i++ {
		o.step(insts[i], warmup)
	}
	r := pipeline.Result{
		Workload:         "random",
		Predictor:        pred.Name(),
		Insts:            o.insts - warmup,
		Cycles:           o.lastCommit - o.warmupCycle,
		Branches:         o.measured.Total,
		Mispredicts:      o.measured.Events,
		BTBMissRate:      o.btbMisses.Value(),
		L1IMissRate:      o.icache.MissRate(),
		L1DMissRate:      o.dcache.MissRate(),
		L2MissRate:       o.l2.MissRate(),
		FetchStallCycles: o.fetchStall,
	}
	if _, ok := pred.(*core.Overriding); ok {
		r.Overrides = o.overrides.Events
		r.OverrideRate = o.overrides.Value()
	}
	return r
}

// randomInsts synthesizes a short stream over a small static program:
// per-PC biased conditional branches, jumps, and filler of every other
// kind with random registers and memory addresses, with control flow
// following the outcomes so PCs recur.
func randomInsts(r *rand.Rand, n int) []trace.Inst {
	const base = 0x4000
	static := 4 + r.Intn(400)
	bias := make([]float64, static)
	for i := range bias {
		bias[i] = r.Float64()
	}
	reg := func() int8 {
		if r.Intn(4) == 0 {
			return trace.NoReg
		}
		return int8(r.Intn(trace.NumRegs))
	}
	out := make([]trace.Inst, n)
	k := 0
	for i := range out {
		in := trace.Inst{PC: base + 4*uint64(k), Src1: reg(), Src2: reg(), Dst: reg()}
		next := (k + 1) % static
		switch c := r.Intn(10); {
		case c < 2:
			in.Kind = trace.CondBranch
			in.Target = base + 4*uint64(r.Intn(static))
			in.Taken = r.Float64() < bias[k]
			if in.Taken {
				next = int(in.Target-base) / 4
			}
			in.Dst = trace.NoReg
		case c == 2:
			in.Kind = trace.Jump
			in.Target = base + 4*uint64(r.Intn(static))
			next = int(in.Target-base) / 4
		default:
			in.Kind = []trace.Kind{trace.ALU, trace.Mul, trace.FPU, trace.Load, trace.Store, trace.ALU, trace.Load}[c-3]
			if in.Kind == trace.Load || in.Kind == trace.Store {
				in.Addr = uint64(r.Intn(1<<20)) &^ 7
			}
		}
		out[i] = in
		k = next
	}
	return out
}

// sliceSource is a plain Source over a slice: no batch protocol, so the
// engine assembles its batches one Next call at a time and, lacking a
// cursor, simulates live caches.
type sliceSource struct {
	insts []trace.Inst
	pos   int
}

func (s *sliceSource) Next(in *trace.Inst) bool {
	if s.pos == len(s.insts) {
		return false
	}
	*in = s.insts[s.pos]
	s.pos++
	return true
}

func (s *sliceSource) Name() string { return "random" }

// randomGeometry draws a cache hierarchy shared by a lane group: the
// Table 1 one, or small caches that miss often on short streams.
func randomGeometry(r *rand.Rand) (l1i, l1d, l2 cache.Config) {
	if r.Intn(3) == 0 {
		d := pipeline.DefaultConfig()
		return d.L1I, d.L1D, d.L2
	}
	line := 16 << r.Intn(3)
	return cache.Config{SizeBytes: 512 << r.Intn(3), LineBytes: line, Ways: 1 << r.Intn(2)},
		cache.Config{SizeBytes: 512 << r.Intn(3), LineBytes: line, Ways: 1 << r.Intn(3)},
		cache.Config{SizeBytes: 4096 << r.Intn(3), LineBytes: 2 * line, Ways: 1 << r.Intn(3)}
}

// randomConfig draws a machine over the group's cache geometry.
func randomConfig(r *rand.Rand, l1i, l1d, l2 cache.Config) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	if r.Intn(4) == 0 {
		cfg.L1I, cfg.L1D, cfg.L2 = l1i, l1d, l2
		return cfg
	}
	cfg.FetchWidth = 1 + r.Intn(8)
	cfg.IssueWidth = 1 + r.Intn(8)
	cfg.CommitWidth = 1 + r.Intn(8)
	cfg.ROBSize = 1 + r.Intn(128)
	cfg.PipelineDepth = 2 + r.Intn(40)
	cfg.FrontEndDepth = r.Intn(3) * r.Intn(12) // often 0: derived from the depth
	cfg.IntPorts = 1 + r.Intn(6)
	cfg.MemPorts = 1 + r.Intn(4)
	cfg.MulPorts = 1 + r.Intn(2)
	cfg.FPPorts = 1 + r.Intn(2)
	cfg.MulLatency = 1 + r.Intn(8)
	cfg.FPLatency = 1 + r.Intn(6)
	cfg.L1I, cfg.L1D, cfg.L2 = l1i, l1d, l2
	cfg.L1DLatency = 1 + r.Intn(4)
	cfg.L2Latency = 5 + r.Intn(15)
	cfg.MemLatency = 20 + r.Intn(200)
	cfg.BTBEntries = 4 << r.Intn(8)
	cfg.BTBWays = 1 << r.Intn(2)
	cfg.BTBMissPenalty = r.Intn(4)
	return cfg
}

// oracleLane is one lane's machine plus a predictor constructor, so the
// engine and the oracle each get a fresh, identically built predictor.
type oracleLane struct {
	name string
	cfg  pipeline.Config
	mk   func() predictor.Predictor
}

// randomPredictor draws an organization over every factory kind, the
// overriding organization, and gshare.fast with custom pipelines (latency,
// buffer width, update lag) or without checkpointing.
func randomPredictor(r *rand.Rand) (string, func() predictor.Predictor) {
	kinds := experiments.PredictorKinds()
	budget := []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 64 << 10}[r.Intn(6)]
	switch c := r.Intn(len(kinds) + 3); {
	case c < len(kinds):
		kind := kinds[c]
		return fmt.Sprintf("%s-%d", kind, budget), func() predictor.Predictor {
			p, err := experiments.NewPredictor(kind, budget)
			if err != nil {
				panic(err)
			}
			return p
		}
	case c == len(kinds):
		kind := []string{"perceptron", "multicomponent", "2bcgskew", "gshare"}[r.Intn(4)]
		return fmt.Sprintf("override-%s-%d", kind, budget), func() predictor.Predictor {
			o, err := experiments.NewOverriding(kind, budget)
			if err != nil {
				panic(err)
			}
			return o
		}
	case c == len(kinds)+1:
		// A deep PHT read with a narrow buffer makes the row address
		// depend on how many branches the fetch clock packs into the
		// access, so the predictor sees every OnCycle tick.
		cfg := core.Config{
			Entries:    1 << (6 + r.Intn(10)),
			Latency:    1 + r.Intn(12),
			UpdateLag:  r.Intn(2) * r.Intn(70),
			BufferBits: uint(r.Intn(4)),
		}
		return fmt.Sprintf("gshare.fast-%+v", cfg), func() predictor.Predictor { return core.New(cfg) }
	default:
		return fmt.Sprintf("gshare.fast-nockpt-%d", budget), func() predictor.Predictor {
			return core.WithoutCheckpointing(experiments.NewGShareFast(budget))
		}
	}
}

// checkOracle runs one random configuration — stream, lane group, window —
// through RunMany over a replay cursor with and without its memory
// sidecar, and over a plain Source, and compares every lane with the
// oracle.
func checkOracle(t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rec := trace.Record(&sliceSource{insts: randomInsts(r, 50+r.Intn(4000))}, 1<<20)
	var insts []trace.Inst
	var in trace.Inst
	for cur := rec.Replay(); cur.Next(&in); {
		insts = append(insts, in)
	}
	l1i, l1d, l2 := randomGeometry(r)
	lanes := make([]oracleLane, 1+r.Intn(5))
	for i := range lanes {
		name, mk := randomPredictor(r)
		lanes[i] = oracleLane{name, randomConfig(r, l1i, l1d, l2), mk}
	}
	n := int64(len(insts))
	maxInsts := 1 + r.Int63n(n+n/4+1)
	warmup := int64(0)
	if r.Intn(3) > 0 {
		warmup = r.Int63n(maxInsts)
	}

	want := make([]pipeline.Result, len(lanes))
	for i, l := range lanes {
		want[i] = oracleRun(l.cfg, l.mk(), insts, maxInsts, warmup)
	}
	run := func(src trace.Source, side *pipeline.MemSidecar) []pipeline.Result {
		engine := make([]pipeline.Lane, len(lanes))
		for i, l := range lanes {
			engine[i] = pipeline.Lane{Cfg: l.cfg, Pred: l.mk()}
		}
		return pipeline.RunMany(engine, src, side, maxInsts, warmup)
	}
	side := pipeline.BuildMemSidecar(rec, pipeline.MemGeometryOf(lanes[0].cfg))
	for shape, got := range map[string][]pipeline.Result{
		"cursor+sidecar": run(rec.Replay(), side),
		"cursor":         run(rec.Replay(), nil),
		"plain":          run(&sliceSource{insts: insts}, side),
	} {
		for i := range lanes {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("seed %d, %s source, lane %d (%s, %+v), window %d/%d:\n got %+v\nwant %+v",
					seed, shape, i, lanes[i].name, lanes[i].cfg, maxInsts, warmup, got[i], want[i])
			}
		}
	}
}

// TestRunManyMatchesOracle differentially tests the timing engine against
// the textbook scoreboard over seeded random streams, machines, lane
// groups and windows.
func TestRunManyMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		checkOracle(t, seed)
	}
}

// FuzzRunManyOracle is TestRunManyMatchesOracle driven by the fuzzer's
// seeds.
func FuzzRunManyOracle(f *testing.F) {
	for _, seed := range []int64{0, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(checkOracle)
}
