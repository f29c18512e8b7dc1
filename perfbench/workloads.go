package main

import (
	"strconv"
	"strings"

	"branchsim/internal/experiments"
)

// workloadSpec is one workload: the cmd/reproduce invocation the benchmark
// times end to end. Its experiments also select the lane sets the traced replay drives
// through each layer (see cellPlans).
type workloadSpec struct {
	name        string
	experiments []string // the -experiment list, in run order
	insts       int64    // the -insts value; warm-up stays at its default insts/4
	// expect maps each experiment id to the SHA-256 of its section of
	// reproduce's stdout at insts. A nil map skips the digest check.
	expect map[string]string
}

// args returns the workload's reproduce command line against store.
func (w workloadSpec) args(store string) []string {
	return []string{"-experiment", strings.Join(w.experiments, ","),
		"-insts", strconv.FormatInt(w.insts, 10), "-store", store}
}

// workloads are the benchmark's workloads. Their sizes keep one reproduce
// child between two and seven seconds on two cores: long enough that short
// bursts of host load average out within a child, short enough that a run
// repeats it several times. README.md records why each was chosen and
// which layers it loads.
var workloads = []workloadSpec{
	{
		name:        "accuracy-cold",
		experiments: []string{"figure1", "figure5", "figure6"},
		insts:       500_000,
		expect: map[string]string{
			"figure1": "eb7a80175774f97b7f218bcce50c4c7e2ff59c49c4adde9ee45b276ac4bffc06",
			"figure5": "05d24bf9291f46781585bd3277db117465d215cf6c5f7e4f1595c577c1c8afe3",
			"figure6": "25da246f67e3004cba995a3ea9a837aace5268abf90e6a75521c595cb0e28cfe",
		},
	},
	{
		name:        "timing-cold",
		experiments: []string{"figure7", "figure8"},
		insts:       256_000,
		expect: map[string]string{
			"figure7": "db64a19c8a7c295238cdb8acf6f89dc9b7bcbfa2b2a05661d3067b3cc60779e6",
			"figure8": "188847ad117e283b2cdca6ccda7ca48200dae7663262d8ad744fb9423a3433f1",
		},
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// A cell is one distinct simulation of an experiment's grid: a predictor
// kind at a budget, under an organization. Accuracy cells have org "";
// timing cells run on pipeline.DefaultConfig under "ideal" or "override",
// the organization names internal/experiments keys its cells by.
type cell struct {
	kind   string
	org    string
	budget int
}

var (
	figureKinds    = []string{"multicomponent", "2bcgskew", "perceptron", "gshare.fast"}
	figure1Kinds   = []string{"gshare", "bimode", "multicomponent", "perceptron"}
	designBudget   = []int{64 << 10}
	predictorKinds = []string{"gshare", "bimode", "2bcgskew", "multicomponent", "perceptron", "gshare.fast"}
)

// cellPlans returns the cell plans experiment id executes, in order. Each
// plan is one fused trace pass per benchmark in cmd/reproduce (one
// cellPlan.execute); timing experiments with an ideal and a realistic
// sweep run two.
func cellPlans(id string) (accuracy, timing [][]cell) {
	switch id {
	case "figure1":
		return [][]cell{grid(figure1Kinds, experiments.Figure1Budgets(), "")}, nil
	case "figure5":
		return [][]cell{grid(figureKinds, experiments.PaperBudgets(), "")}, nil
	case "figure6":
		return [][]cell{grid(figureKinds, designBudget, "")}, nil
	case "figure7":
		return nil, [][]cell{
			grid(figureKinds, experiments.PaperBudgets(), "ideal"),
			grid(figureKinds, experiments.PaperBudgets(), "override"),
		}
	case "figure8":
		return nil, [][]cell{grid(figureKinds, designBudget, "override")}
	}
	return nil, nil
}

// planCells counts every cell of the plans ids execute, duplicates
// included.
func planCells(ids []string) (accuracy, timing int) {
	for _, id := range ids {
		acc, tim := cellPlans(id)
		for _, p := range acc {
			accuracy += len(p)
		}
		for _, p := range tim {
			timing += len(p)
		}
	}
	return accuracy, timing
}

// grid returns kinds × budgets under org. gshare.fast is pipelined and
// pays no overriding penalty, so its realistic cells are its ideal ones.
func grid(kinds []string, budgets []int, org string) []cell {
	var cells []cell
	for _, b := range budgets {
		for _, k := range kinds {
			o := org
			if o == "override" && k == "gshare.fast" {
				o = "ideal"
			}
			cells = append(cells, cell{kind: k, org: o, budget: b})
		}
	}
	return cells
}

// groups returns the fused lane groups reproduce runs for ids, one per
// plan: each plan's cells minus those an earlier plan already simulated,
// which the in-process memo serves. Plans left with no cold cell run no
// pass and are dropped.
func groups(ids []string) (accuracy, timing [][]cell) {
	seen := map[cell]bool{}
	residual := func(plan []cell) []cell {
		var cold []cell
		for _, c := range plan {
			if !seen[c] {
				seen[c] = true
				cold = append(cold, c)
			}
		}
		return cold
	}
	for _, id := range ids {
		acc, tim := cellPlans(id)
		for _, p := range acc {
			if g := residual(p); len(g) > 0 {
				accuracy = append(accuracy, g)
			}
		}
		for _, p := range tim {
			if g := residual(p); len(g) > 0 {
				timing = append(timing, g)
			}
		}
	}
	return accuracy, timing
}
