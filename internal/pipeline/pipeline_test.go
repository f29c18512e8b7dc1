package pipeline

import (
	"strings"
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/delaymodel"
	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// perfect predicts every branch correctly by peeking at the trace: the
// generator queues each branch outcome as it is read, and the simulator
// predicts the branches in stream order, each exactly once.
type perfect struct{ outcomes []bool }

func (o *perfect) Predict(uint64) bool {
	next := o.outcomes[0]
	o.outcomes = o.outcomes[1:]
	return next
}
func (o *perfect) Update(uint64, bool) {}
func (o *perfect) SizeBytes() int      { return 0 }
func (o *perfect) Name() string        { return "perfect" }

// perfectGen wraps a generator and queues each branch outcome for the
// perfect predictor.
type perfectGen struct {
	inner trace.Generator
	o     *perfect
}

func (g *perfectGen) Next(inst *trace.Inst) bool {
	if !g.inner.Next(inst) {
		return false
	}
	if inst.Kind == trace.CondBranch {
		g.o.outcomes = append(g.o.outcomes, inst.Taken)
	}
	return true
}

func (g *perfectGen) Name() string { return g.inner.Name() }

func run(p predictor.Predictor, bench string, insts int64) Result {
	prof, _ := workload.ByName(bench)
	return Run(DefaultConfig(), p, workload.New(prof), nil, insts, insts/4)
}

func TestIPCWithinPhysicalBounds(t *testing.T) {
	res := run(predictor.NewGShareFromBudget(64<<10), "eon", 400000)
	if ipc := res.IPC(); ipc <= 0.1 || ipc > float64(DefaultConfig().IssueWidth) {
		t.Fatalf("IPC %v out of physical bounds", ipc)
	}
}

func TestOraclePredictorBeatsBadPredictor(t *testing.T) {
	o := &perfect{}
	prof, _ := workload.ByName("twolf")
	resO := Run(DefaultConfig(), o, &perfectGen{inner: workload.New(prof), o: o}, nil, 400000, 100000)

	resBad := run(predictor.NotTaken{}, "twolf", 400000)
	if resO.IPC() <= resBad.IPC() {
		t.Fatalf("oracle IPC %.3f <= not-taken IPC %.3f", resO.IPC(), resBad.IPC())
	}
	if resO.Mispredicts != 0 {
		t.Fatalf("oracle mispredicted %d times", resO.Mispredicts)
	}
	// Branch handling must matter: the gap should be substantial.
	if resO.IPC() < 1.2*resBad.IPC() {
		t.Fatalf("misprediction penalty too weak: %.3f vs %.3f", resO.IPC(), resBad.IPC())
	}
}

func TestMispredictionRateMatchesFuncsimBallpark(t *testing.T) {
	// The timing simulator's measured misprediction rate for a simple
	// predictor should be in the same region as a functional run (exact
	// match is not expected: cycle feeds differ for cycle-aware preds,
	// and measurement windows differ slightly).
	res := run(predictor.NewGShareFromBudget(64<<10), "gzip", 1000000)
	if res.MispredictPercent() < 1 || res.MispredictPercent() > 20 {
		t.Fatalf("gshare on gzip: %.2f%%", res.MispredictPercent())
	}
}

func TestOverrideBubblesReduceIPC(t *testing.T) {
	prof, _ := workload.ByName("parser")
	mkSlow := func() predictor.Predictor { return predictor.NewPerceptronFromBudget(256 << 10) }

	idealRes := Run(DefaultConfig(), mkSlow(), workload.New(prof), nil, 600000, 150000)

	slow := mkSlow()
	lat := delaymodel.Default.ForPredictor(slow)
	over := core.NewOverriding(predictor.NewGShare(2048, 0), slow, lat)
	overRes := Run(DefaultConfig(), over, workload.New(prof), nil, 600000, 150000)

	if overRes.OverrideRate <= 0 {
		t.Fatal("no overrides recorded")
	}
	if overRes.IPC() >= idealRes.IPC() {
		t.Fatalf("override bubbles did not cost IPC: %.3f vs ideal %.3f",
			overRes.IPC(), idealRes.IPC())
	}
}

func TestGShareFastPaysNoOrganizationPenalty(t *testing.T) {
	// gshare.fast with a 9-cycle PHT must beat the same-accuracy-class
	// overriding gshare with a 9-cycle latency.
	prof, _ := workload.ByName("vpr")
	fast := core.New(core.Config{Entries: 1 << 20, Latency: 9})
	fastRes := Run(DefaultConfig(), fast, workload.New(prof), nil, 600000, 150000)

	slow := predictor.NewGShare(1<<20, 0)
	over := core.NewOverriding(predictor.NewGShare(2048, 0), slow, 9)
	overRes := Run(DefaultConfig(), over, workload.New(prof), nil, 600000, 150000)

	if fastRes.IPC() <= overRes.IPC() {
		t.Fatalf("pipelined gshare.fast (%.3f) should beat overriding gshare (%.3f) at equal size",
			fastRes.IPC(), overRes.IPC())
	}
}

func TestCacheStatsPopulated(t *testing.T) {
	res := run(predictor.NewGShareFromBudget(16<<10), "mcf", 400000)
	if res.L1DMissRate <= 0 {
		t.Fatal("mcf must miss in the D-cache")
	}
	if res.L1DMissRate > 0.9 {
		t.Fatalf("implausible L1D miss rate %v", res.L1DMissRate)
	}
	if res.L2MissRate <= 0 {
		t.Fatal("mcf must miss in the L2")
	}
}

func TestMemoryBoundBenchmarkSlower(t *testing.T) {
	fast := run(predictor.NewGShareFromBudget(64<<10), "eon", 400000)
	slow := run(predictor.NewGShareFromBudget(64<<10), "mcf", 400000)
	if slow.IPC() >= fast.IPC() {
		t.Fatalf("mcf (%.3f) should be slower than eon (%.3f)", slow.IPC(), fast.IPC())
	}
}

func TestDeeperPipelineCostsIPC(t *testing.T) {
	prof, _ := workload.ByName("twolf")
	shallow := DefaultConfig()
	shallow.PipelineDepth = 10
	deep := DefaultConfig()
	deep.PipelineDepth = 40
	resShallow := Run(shallow, predictor.NewGShareFromBudget(16<<10), workload.New(prof), nil, 400000, 100000)
	resDeep := Run(deep, predictor.NewGShareFromBudget(16<<10), workload.New(prof), nil, 400000, 100000)
	if resDeep.IPC() >= resShallow.IPC() {
		t.Fatalf("deeper pipeline did not cost IPC: %.3f vs %.3f",
			resDeep.IPC(), resShallow.IPC())
	}
}

func TestBTBMissesCounted(t *testing.T) {
	res := run(predictor.NewGShareFromBudget(16<<10), "gcc", 400000)
	if res.BTBMissRate <= 0 {
		t.Fatal("gcc's large code must produce BTB misses")
	}
}

func TestSlotRing(t *testing.T) {
	rg := newLaneRings(DefaultConfig()) // two multiply ports
	if got := rg.takeInBoth(portMul, 10); got != 10 {
		t.Fatalf("first take at %d", got)
	}
	if got := rg.takeInBoth(portMul, 10); got != 10 {
		t.Fatalf("second take at %d", got)
	}
	if got := rg.takeInBoth(portMul, 10); got != 11 {
		t.Fatalf("overflow take at %d, want 11", got)
	}
	// The issue ring (8 wide) still has room at cycle 10 for another port.
	if got := rg.takeInBoth(portInt, 10); got != 10 {
		t.Fatalf("int-port take at %d, want 10", got)
	}
}

// TestInvalidConfigPanics pins the engine's rejections, each with a
// package-prefixed message: machines it cannot model and a warm-up that
// would leave no instruction measured.
func TestInvalidConfigPanics(t *testing.T) {
	zeroIssue := DefaultConfig()
	zeroIssue.IssueWidth = 0
	zeroROB := DefaultConfig()
	zeroROB.ROBSize = 0
	widePorts := DefaultConfig()
	widePorts.IntPorts = 128 // a count byte holds at most 127 reservations
	cases := []struct {
		name          string
		cfg           Config
		insts, warmup int64
	}{
		{"zero issue width", zeroIssue, 1000, 0},
		{"zero ROB", zeroROB, 1000, 0},
		{"128 ports", widePorts, 1000, 0},
		{"warm-up equals budget", DefaultConfig(), 1000, 1000},
		{"warm-up past budget", DefaultConfig(), 1000, 4000},
	}
	prof, _ := workload.ByName("gzip")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "pipeline: ") {
					t.Fatalf("panic %q, want a pipeline: message", msg)
				}
			}()
			Run(tc.cfg, predictor.Taken{}, workload.New(prof), nil, tc.insts, tc.warmup)
		})
	}
}

func TestDeterministicIPC(t *testing.T) {
	a := run(predictor.NewGShareFromBudget(32<<10), "gap", 300000)
	b := run(predictor.NewGShareFromBudget(32<<10), "gap", 300000)
	if a.Cycles != b.Cycles || a.Mispredicts != b.Mispredicts {
		t.Fatalf("nondeterministic timing: %d/%d vs %d/%d cycles/mispredicts",
			a.Cycles, a.Mispredicts, b.Cycles, b.Mispredicts)
	}
}

func TestTable1Parameters(t *testing.T) {
	// DESIGN.md's experiment index: Table 1 is reproduced by the default
	// machine configuration.
	cfg := DefaultConfig()
	if cfg.IssueWidth != 8 {
		t.Errorf("issue width %d, want 8", cfg.IssueWidth)
	}
	if cfg.PipelineDepth != 20 {
		t.Errorf("pipeline depth %d, want 20", cfg.PipelineDepth)
	}
	if cfg.L1I.SizeBytes != 64<<10 || cfg.L1I.LineBytes != 64 || cfg.L1I.Ways != 1 {
		t.Errorf("L1I %+v, want 64KB/64B/direct-mapped", cfg.L1I)
	}
	if cfg.L1D.SizeBytes != 64<<10 || cfg.L1D.LineBytes != 64 || cfg.L1D.Ways != 1 {
		t.Errorf("L1D %+v, want 64KB/64B/direct-mapped", cfg.L1D)
	}
	if cfg.L2.SizeBytes != 2<<20 || cfg.L2.LineBytes != 128 || cfg.L2.Ways != 4 {
		t.Errorf("L2 %+v, want 2MB/128B/4-way", cfg.L2)
	}
	if cfg.BTBEntries != 512 || cfg.BTBWays != 2 {
		t.Errorf("BTB %d/%d, want 512 entries 2-way", cfg.BTBEntries, cfg.BTBWays)
	}
	if err := cfg.L1I.Validate(); err != nil {
		t.Error(err)
	}
	if err := cfg.L2.Validate(); err != nil {
		t.Error(err)
	}
}

func TestUncheckpointedRecoveryCostsIPC(t *testing.T) {
	prof, _ := workload.ByName("twolf")
	mk := func() *core.GShareFast {
		return core.New(core.Config{Entries: 1 << 20, Latency: 8})
	}
	with := Run(DefaultConfig(), mk(), workload.New(prof), nil, 400000, 100000)
	without := Run(DefaultConfig(), core.WithoutCheckpointing(mk()), workload.New(prof), nil, 400000, 100000)
	if without.IPC() >= with.IPC() {
		t.Fatalf("uncheckpointed recovery did not cost IPC: %.3f vs %.3f",
			without.IPC(), with.IPC())
	}
}
