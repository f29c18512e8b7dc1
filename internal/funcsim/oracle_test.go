package funcsim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/experiments"
	"branchsim/internal/funcsim"
	"branchsim/internal/predictor"
	"branchsim/internal/stats"
	"branchsim/internal/trace"
)

// oracleRun is the accuracy simulator written for obviousness, in the shape
// of a textbook branch-predictor harness: walk the stream one instruction
// at a time, and at each conditional branch tick the fetch clock for
// cycle-aware predictors, predict, update, and count the miss once the
// warm-up is over. RunMany must agree with it exactly.
func oracleRun(p predictor.Predictor, insts []trace.Inst, classes func(uint64) (string, bool), opts funcsim.Options) funcsim.Result {
	if opts.MaxInsts <= 0 {
		opts.MaxInsts = 1_000_000
	}
	if opts.FetchWidth <= 0 {
		opts.FetchWidth = 3
	}
	var (
		n         int64
		taken     stats.Rate
		mispred   stats.Rate
		lastCycle uint64
		perClass  map[string]*stats.Rate
	)
	if classes != nil {
		perClass = map[string]*stats.Rate{}
	}
	for i := range insts {
		if n == opts.MaxInsts {
			break
		}
		n++
		in := insts[i]
		if in.Kind != trace.CondBranch {
			continue
		}
		if ca, ok := p.(predictor.CycleAware); ok {
			if cycle := uint64(n) / uint64(opts.FetchWidth); cycle != lastCycle {
				lastCycle = cycle
				ca.OnCycle(cycle)
			}
		}
		guess := p.Predict(in.PC)
		p.Update(in.PC, in.Taken)
		if n <= opts.WarmupInsts {
			continue
		}
		miss := guess != in.Taken
		taken.Add(in.Taken)
		mispred.Add(miss)
		if classes != nil {
			if name, ok := classes(in.PC); ok {
				if perClass[name] == nil {
					perClass[name] = &stats.Rate{}
				}
				perClass[name].Add(miss)
			}
		}
	}
	return funcsim.Result{
		Predictor:    p.Name(),
		Workload:     "random",
		Insts:        n,
		Branches:     mispred.Total,
		Mispredicts:  mispred.Events,
		TakenRate:    taken.Value(),
		PredSizeByte: p.SizeBytes(),
		ClassRates:   perClass,
	}
}

// randomInsts synthesizes a short stream over a small static program:
// per-PC biased conditional branches, jumps, and filler of every other
// kind, with control flow following the outcomes so PCs recur.
func randomInsts(r *rand.Rand, n int) []trace.Inst {
	const base = 0x4000
	static := 4 + r.Intn(120)
	bias := make([]float64, static)
	for i := range bias {
		bias[i] = r.Float64()
	}
	out := make([]trace.Inst, n)
	k := 0
	for i := range out {
		in := trace.Inst{PC: base + 4*uint64(k), Src1: trace.NoReg, Src2: trace.NoReg, Dst: trace.NoReg}
		next := (k + 1) % static
		switch c := r.Intn(10); {
		case c < 3:
			in.Kind = trace.CondBranch
			in.Target = base + 4*uint64(r.Intn(static))
			in.Taken = r.Float64() < bias[k]
			if in.Taken {
				next = int(in.Target-base) / 4
			}
		case c == 3:
			in.Kind = trace.Jump
			in.Target = base + 4*uint64(r.Intn(static))
			next = int(in.Target-base) / 4
		default:
			in.Kind = []trace.Kind{trace.ALU, trace.Mul, trace.FPU, trace.Load, trace.Store, trace.ALU}[c-4]
			if in.Kind == trace.Load || in.Kind == trace.Store {
				in.Addr = uint64(r.Intn(1<<22)) &^ 7
			}
			in.Src1, in.Dst = int8(r.Intn(trace.NumRegs)), int8(r.Intn(trace.NumRegs))
		}
		out[i] = in
		k = next
	}
	return out
}

// sliceSource is a plain Source over a slice: no batch protocol, no
// classifier, so the engines drain it through trace.FilterBranches.
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

// classified adds a branch classifier to a batch source.
type classified struct{ trace.BranchSource }

func (c classified) Name() string { return c.BranchSource.(interface{ Name() string }).Name() }

func (classified) BranchClassName(pc uint64) (string, bool) { return pcClass(pc) }

// plainClassified is classified for a Source without the batch protocol.
type plainClassified struct{ trace.Source }

func (plainClassified) BranchClassName(pc uint64) (string, bool) { return pcClass(pc) }

// pcClass is a stand-in static classification: three classes, and some
// branches left unclassified.
func pcClass(pc uint64) (string, bool) {
	switch pc / 4 % 4 {
	case 0:
		return "", false
	case 1:
		return "a", true
	case 2:
		return "b", true
	default:
		return "c", true
	}
}

// oracleLane names one lane construction so the engine and the oracle
// each get a fresh, identically built predictor.
type oracleLane struct {
	name string
	mk   func() predictor.Predictor
}

// randomLanes draws a lane group over every factory kind, the overriding
// organization, and the uncheckpointed gshare.fast.
func randomLanes(r *rand.Rand) []oracleLane {
	kinds := experiments.PredictorKinds()
	budgets := []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
	lanes := make([]oracleLane, 1+r.Intn(6))
	for i := range lanes {
		budget := budgets[r.Intn(len(budgets))]
		switch c := r.Intn(len(kinds) + 2); {
		case c < len(kinds):
			kind := kinds[c]
			lanes[i] = oracleLane{fmt.Sprintf("%s-%d", kind, budget), func() predictor.Predictor {
				p, err := experiments.NewPredictor(kind, budget)
				if err != nil {
					panic(err)
				}
				return p
			}}
		case c == len(kinds):
			kind := []string{"perceptron", "multicomponent", "2bcgskew", "gshare"}[r.Intn(4)]
			lanes[i] = oracleLane{fmt.Sprintf("override-%s-%d", kind, budget), func() predictor.Predictor {
				o, err := experiments.NewOverriding(kind, budget)
				if err != nil {
					panic(err)
				}
				return o
			}}
		default:
			lanes[i] = oracleLane{fmt.Sprintf("gshare.fast-nockpt-%d", budget), func() predictor.Predictor {
				return core.WithoutCheckpointing(experiments.NewGShareFast(budget))
			}}
		}
	}
	return lanes
}

// randomOptions draws a measurement window over a stream of n
// instructions: a budget below, at or past the stream's end, and a warm-up
// that often sits exactly on a branch.
func randomOptions(r *rand.Rand, insts []trace.Inst) funcsim.Options {
	n := int64(len(insts))
	opts := funcsim.Options{
		MaxInsts:   1 + r.Int63n(n+n/4+1),
		FetchWidth: r.Intn(9),
		PerClass:   r.Intn(3) == 0,
	}
	switch r.Intn(3) {
	case 0:
		// Warm-up of 0 measures everything.
	case 1:
		opts.WarmupInsts = r.Int63n(opts.MaxInsts)
	default:
		// Land the boundary on a branch's stream index, where an
		// off-by-one in the warm-up test changes the measured count.
		for i := 0; i < 20; i++ {
			j := r.Int63n(min(opts.MaxInsts, n))
			if insts[j].Kind == trace.CondBranch {
				opts.WarmupInsts = j
				break
			}
		}
	}
	return opts
}

// checkOracle runs one random configuration through RunMany over every
// source shape — replay cursor, branch-index cursor, and (through Run) a
// plain Source — and compares each lane with the oracle.
func checkOracle(t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rec := trace.Record(&sliceSource{insts: randomInsts(r, 50+r.Intn(3000))}, 1<<20)
	var insts []trace.Inst
	var in trace.Inst
	for cur := rec.Replay(); cur.Next(&in); {
		insts = append(insts, in)
	}
	lanes := randomLanes(r)
	opts := randomOptions(r, insts)

	var classes func(uint64) (string, bool)
	if opts.PerClass {
		classes = pcClass
	}
	want := make([]funcsim.Result, len(lanes))
	for i, l := range lanes {
		want[i] = oracleRun(l.mk(), insts, classes, opts)
	}
	build := func() []funcsim.Lane {
		out := make([]funcsim.Lane, len(lanes))
		for i, l := range lanes {
			out[i] = funcsim.Lane{P: l.mk()}
		}
		return out
	}
	check := func(shape string, got []funcsim.Result) {
		t.Helper()
		for i := range lanes {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("seed %d, %s source, lane %d (%s), opts %+v:\n got %+v\nwant %+v",
					seed, shape, i, lanes[i].name, opts, got[i], want[i])
			}
		}
	}
	// A bare replay cursor takes the devirtualized drive loop; wrapped in a
	// classifier, or as a branch-index cursor, it takes the generic one.
	var cur trace.BranchSource = rec.Replay()
	if opts.PerClass {
		cur = classified{cur}
	}
	check("cursor", funcsim.RunMany(build(), cur, opts))
	check("branch-cursor", funcsim.RunMany(build(), classified{rec.ReplayBranches()}, opts))
	plain := make([]funcsim.Result, len(lanes))
	for i, l := range lanes {
		plain[i] = funcsim.Run(l.mk(), plainClassified{&sliceSource{insts: insts}}, opts)
	}
	check("plain", plain)
}

// TestRunManyMatchesOracle differentially tests the accuracy engine
// against the oracle over seeded random streams, lane groups and windows.
func TestRunManyMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
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
