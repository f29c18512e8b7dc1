// Command ipcsim runs cycle-level timing simulations: one or more predictor
// organizations over the synthetic SPECint2000 benchmarks, reporting
// per-benchmark IPC and the harmonic mean (the paper's Figures 2, 7 and 8).
//
// The -mode flag selects the organization:
//
//	ideal      the predictor answers in a single cycle regardless of size
//	           (the paper's "no delay" curves)
//	realistic  complex predictors sit behind a 2K-entry quick gshare in an
//	           overriding organization with delay-model latency;
//	           gshare.fast runs pipelined and needs no overriding
//
// Example:
//
//	ipcsim -predictors gshare.fast,perceptron -budget 65536 -mode realistic
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"branchsim/internal/experiments"
	"branchsim/internal/pipeline"
	"branchsim/internal/predictor"
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
		mode       = flag.String("mode", "realistic", "predictor timing: ideal or realistic")
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

	if *insts > 0 && *warmup >= *insts {
		fmt.Fprintf(os.Stderr, "ipcsim: -warmup (%d) must be below -insts (%d)\n", *warmup, *insts)
		os.Exit(2)
	}

	profiles, err := selectProfiles(*benchmarks)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Streams are recorded once per benchmark and replayed for every
	// predictor kind, and the memory hierarchy is simulated once per
	// benchmark via the store's sidecars (see internal/tracestore).
	cfg := pipeline.DefaultConfig()
	store := tracestore.New()
	for _, kind := range strings.Split(*predictors, ",") {
		kind = strings.TrimSpace(kind)
		if kind == "" {
			continue
		}
		fmt.Printf("%s @ %dKB, %s timing (%d insts/benchmark)\n", kind, *budget>>10, *mode, *insts)
		var ipcs []float64
		for _, prof := range profiles {
			p, err := buildPredictor(kind, *budget, *mode)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			key := tracestore.Key{Name: prof.Name, Seed: prof.Seed, Insts: *insts}
			gen := func() trace.Source { return workload.New(prof) }
			src := store.Source(key, gen)
			side := store.MemSidecar(key, pipeline.MemGeometryOf(cfg), gen)
			res := pipeline.Run(cfg, p, src, side, *insts, *warmup)
			ipcs = append(ipcs, res.IPC())
			extra := ""
			if res.OverrideRate > 0 {
				extra = fmt.Sprintf("  override %.2f%%", 100*res.OverrideRate)
			}
			fmt.Printf("  %-12s IPC %6.3f  (mispredict %5.2f%%%s)\n",
				prof.ShortName(), res.IPC(), res.MispredictPercent(), extra)
		}
		fmt.Printf("  %-12s IPC %6.3f (harmonic mean)\n\n", "HMEAN", stats.HarmonicMean(ipcs))
	}
}

// buildPredictor assembles the predictor organization for the mode.
func buildPredictor(kind string, budget int, mode string) (predictor.Predictor, error) {
	switch mode {
	case "ideal":
		return experiments.NewPredictor(kind, budget)
	case "realistic":
		if kind == "gshare.fast" {
			// gshare.fast is pipelined: realistic and ideal timing
			// coincide by design.
			return experiments.NewPredictor(kind, budget)
		}
		return experiments.NewOverriding(kind, budget)
	default:
		return nil, fmt.Errorf("ipcsim: unknown mode %q (ideal or realistic)", mode)
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
			return nil, fmt.Errorf("ipcsim: unknown benchmark %q", n)
		}
		out = append(out, p)
	}
	return out, nil
}
