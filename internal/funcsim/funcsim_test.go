package funcsim

import (
	"strings"
	"testing"

	"branchsim/internal/core"
	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// scriptGen emits ALU filler with scripted branches every stride
// instructions.
type scriptGen struct {
	outcomes []bool
	stride   int
	pos      int
	emitted  int
}

func (g *scriptGen) Next(inst *trace.Inst) bool {
	if g.pos >= len(g.outcomes)*g.stride {
		return false
	}
	i := g.pos
	g.pos++
	if i%g.stride == g.stride-1 {
		*inst = trace.Inst{
			PC:     uint64(0x1000 + (i/g.stride%16)*4),
			Kind:   trace.CondBranch,
			Taken:  g.outcomes[i/g.stride],
			Target: 0x100,
		}
		return true
	}
	*inst = trace.Inst{PC: uint64(0x5000 + i*4), Kind: trace.ALU}
	return true
}

func (g *scriptGen) Name() string { return "script" }

func TestRunCountsExactly(t *testing.T) {
	outcomes := make([]bool, 100)
	for i := range outcomes {
		outcomes[i] = true
	}
	g := &scriptGen{outcomes: outcomes, stride: 5}
	res := Run(predictor.NotTaken{}, g, Options{MaxInsts: 1 << 30})
	if res.Branches != 100 {
		t.Fatalf("branches = %d", res.Branches)
	}
	if res.Mispredicts != 100 {
		t.Fatalf("mispredicts = %d (always-not-taken on all-taken)", res.Mispredicts)
	}
	if res.MispredictPercent() != 100 {
		t.Fatalf("percent = %v", res.MispredictPercent())
	}
	if res.TakenRate != 1 {
		t.Fatalf("taken rate = %v", res.TakenRate)
	}
}

func TestWarmupExcluded(t *testing.T) {
	outcomes := make([]bool, 100)
	for i := range outcomes {
		outcomes[i] = true
	}
	g := &scriptGen{outcomes: outcomes, stride: 10}
	// Warm up through the first half: 50 branches measured.
	res := Run(predictor.Taken{}, g, Options{MaxInsts: 1 << 30, WarmupInsts: 500})
	if res.Branches != 50 {
		t.Fatalf("measured branches = %d, want 50", res.Branches)
	}
	if res.Mispredicts != 0 {
		t.Fatalf("mispredicts = %d", res.Mispredicts)
	}
}

func TestMaxInstsBounds(t *testing.T) {
	outcomes := make([]bool, 1000)
	g := &scriptGen{outcomes: outcomes, stride: 10}
	res := Run(predictor.Taken{}, g, Options{MaxInsts: 100})
	if res.Insts != 100 {
		t.Fatalf("insts = %d", res.Insts)
	}
}

func TestPerClassCollection(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	p := workload.New(prof)
	res := Run(predictor.NewGShareFromBudget(8<<10), p, Options{
		MaxInsts: 200000,
		PerClass: true,
	})
	if len(res.ClassRates) == 0 {
		t.Fatal("no class rates collected")
	}
	var total int64
	for _, r := range res.ClassRates {
		total += r.Total
	}
	if total != res.Branches {
		t.Fatalf("class totals %d != branches %d", total, res.Branches)
	}
}

func TestPerClassOffByDefault(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	res := Run(predictor.Taken{}, workload.New(prof), Options{MaxInsts: 10000})
	if res.ClassRates != nil {
		t.Fatal("class rates collected without opting in")
	}
}

func TestRunBlocksWidthOneMatchesRun(t *testing.T) {
	prof, _ := workload.ByName("bzip2")
	mk := func() *core.GShareFast {
		return core.New(core.Config{Entries: 1 << 14, Latency: 3})
	}
	scalar := Run(mk(), workload.New(prof), Options{MaxInsts: 300000, FetchWidth: 8})
	blocks := RunBlocks(mk(), "block", workload.New(prof), Options{
		MaxInsts: 300000, FetchWidth: 8, BlockBranches: 1,
	})
	if scalar.Mispredicts != blocks.Mispredicts {
		t.Fatalf("width-1 block run diverges: %d vs %d mispredicts",
			blocks.Mispredicts, scalar.Mispredicts)
	}
}

func TestRunBlocksWiderCostsAccuracy(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	mk := func() *core.GShareFast {
		return core.New(core.Config{Entries: 1 << 16, Latency: 3})
	}
	narrow := RunBlocks(mk(), "b1", workload.New(prof), Options{
		MaxInsts: 400000, BlockBranches: 1,
	})
	wide := RunBlocks(mk(), "b8", workload.New(prof), Options{
		MaxInsts: 400000, BlockBranches: 8,
	})
	if wide.MispredictRate() < narrow.MispredictRate()-0.002 {
		t.Fatalf("wider blocks should not improve accuracy: %.4f vs %.4f",
			wide.MispredictRate(), narrow.MispredictRate())
	}
	if wide.MispredictRate() > narrow.MispredictRate()+0.06 {
		t.Fatalf("block staleness cost too large: %.4f vs %.4f",
			wide.MispredictRate(), narrow.MispredictRate())
	}
}

func TestCycleAwareReceivesClock(t *testing.T) {
	g := core.New(core.Config{Entries: 1 << 12, Latency: 3})
	prof, _ := workload.ByName("eon")
	// Just verifying it runs through the cycle-aware path without
	// issue and produces sane numbers.
	res := Run(g, workload.New(prof), Options{MaxInsts: 200000, FetchWidth: 4})
	if res.Branches == 0 || res.MispredictRate() > 0.5 {
		t.Fatalf("suspicious result: %+v", res)
	}
}

// TestWarmupPastBudgetPanics pins the rejection of a window with nothing
// left to measure, with a package-prefixed message, on every entry point —
// including the default budget an unset MaxInsts resolves to.
func TestWarmupPastBudgetPanics(t *testing.T) {
	rec := workload.Record(mustProfile(t, "gzip"), 10_000)
	cases := []struct {
		name string
		run  func()
	}{
		{"Run at budget", func() {
			Run(predictor.Taken{}, rec.Replay(), Options{MaxInsts: 5_000, WarmupInsts: 5_000})
		}},
		{"RunMany past budget", func() {
			RunMany([]Lane{{P: predictor.Taken{}}}, rec.Replay(), Options{MaxInsts: 5_000, WarmupInsts: 9_000})
		}},
		{"RunBlocks at default budget", func() {
			RunBlocks(core.New(core.Config{Entries: 1 << 10, Latency: 1}), "blk", rec.Replay(), Options{WarmupInsts: 1_000_000})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "funcsim: ") {
					t.Fatalf("panic %q, want a funcsim: message", msg)
				}
			}()
			tc.run()
		})
	}
}
