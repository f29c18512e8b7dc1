// Command bpsim runs functional (accuracy-only) branch prediction
// simulations: one or more predictors over one or more synthetic SPECint2000
// benchmarks, reporting per-benchmark and mean misprediction rates.
//
// Examples:
//
//	bpsim -predictors gshare.fast,perceptron -budget 65536
//	bpsim -predictors gshare -budget 8192 -benchmarks gzip,twolf -insts 5000000
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"branchsim/internal/experiments"
	"branchsim/internal/funcsim"
	"branchsim/internal/prof"
	"branchsim/internal/stats"
	"branchsim/internal/trace"
	"branchsim/internal/tracestore"
	"branchsim/internal/workload"
)

func main() {
	var (
		predictors = flag.String("predictors", "gshare.fast", "comma-separated predictor kinds")
		budget     = flag.Int("budget", 64<<10, "hardware budget in bytes")
		benchmarks = flag.String("benchmarks", "all", "comma-separated benchmark names or 'all'")
		insts      = flag.Int64("insts", workload.DefaultInstructions, "dynamic instructions per benchmark")
		warmup     = flag.Int64("warmup", 0, "warm-up instructions excluded from statistics")
		list       = flag.Bool("list", false, "list available predictors and benchmarks, then exit")
		perClass   = flag.Bool("perclass", false, "print per-branch-class misprediction diagnostics")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this path")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	if *list {
		fmt.Println("predictors:", strings.Join(experiments.PredictorKinds(), " "))
		names := make([]string, 0, 12)
		for _, p := range workload.Profiles() {
			names = append(names, p.Name)
		}
		fmt.Println("benchmarks:", strings.Join(names, " "))
		return
	}

	if *insts > 0 && *warmup >= *insts {
		fmt.Fprintf(os.Stderr, "bpsim: -warmup (%d) must be below -insts (%d)\n", *warmup, *insts)
		os.Exit(2)
	}

	profiles, err := selectProfiles(*benchmarks)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Each benchmark's stream is recorded on first use and replayed for
	// every subsequent predictor kind, so multi-predictor invocations pay
	// generation cost once per benchmark.
	store := tracestore.New()
	for _, kind := range strings.Split(*predictors, ",") {
		kind = strings.TrimSpace(kind)
		if kind == "" {
			continue
		}
		fmt.Printf("%s @ %dKB (%d insts/benchmark)\n", kind, *budget>>10, *insts)
		var rates []float64
		for _, prof := range profiles {
			p, err := experiments.NewPredictor(kind, *budget)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			var src trace.Source = store.Source(
				tracestore.Key{Name: prof.Name, Seed: prof.Seed, Insts: *insts},
				func() trace.Source { return workload.New(prof) })
			if *perClass {
				src = workload.Classify(src, prof)
			}
			res := funcsim.Run(p, src, funcsim.Options{
				MaxInsts:    *insts,
				WarmupInsts: *warmup,
				PerClass:    *perClass,
			})
			rates = append(rates, res.MispredictPercent())
			fmt.Printf("  %-12s %7.3f%% mispredicted  (%d branches, predictor %s, %d bytes)\n",
				prof.ShortName(), res.MispredictPercent(), res.Branches,
				res.Predictor, res.PredSizeByte)
			if *perClass {
				names := make([]string, 0, len(res.ClassRates))
				for n := range res.ClassRates {
					names = append(names, n)
				}
				sort.Strings(names)
				for _, n := range names {
					r := res.ClassRates[n]
					fmt.Printf("      %-14s %7.3f%%  share %5.1f%%\n",
						n, r.Percent(), 100*float64(r.Total)/float64(res.Branches))
				}
			}
		}
		fmt.Printf("  %-12s %7.3f%% (arithmetic mean)\n\n", "MEAN", stats.Mean(rates))
	}
}

func selectProfiles(names string) ([]workload.Profile, error) {
	if names == "all" || names == "" {
		return workload.Profiles(), nil
	}
	var out []workload.Profile
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		p, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("bpsim: unknown benchmark %q", n)
		}
		out = append(out, p)
	}
	return out, nil
}
