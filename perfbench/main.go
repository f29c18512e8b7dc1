// Command perfbench is the repository's end-to-end benchmark. Each
// workload is one cmd/reproduce invocation, run as a child process with a
// fresh temporary result store, one child at a time.
//
// With -trace 0 it times the children and prints the end-to-end metrics:
// wall, CPU and peak RSS of the child, the bytes it left in its store,
// set-up time and the share of children whose stdout matched. With
// -trace 1 it runs one untraced child and then replays the same workload's
// work in-process, timing each call into a layer's public API, and prints
// the per-layer metrics. The last line of stdout is the result:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"wall_s": {"value": 3.1, "unit": "s"}, ...}}
//
// Run it from the repository root through run.sh, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload accuracy-cold --seed 1 --seconds 45 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Warm-up children per untraced run, whose median is setup_s, and the
// fewest timed children a run reports a median over.
const (
	setupReps = 2
	minReps   = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info describes a run: what was measured, on which host and code, and the
// raw samples behind each median. It is printed on its own stdout line
// before the result.
type info struct {
	Workload     string               `json:"workload"`
	Trace        int                  `json:"trace"`
	Seed         int64                `json:"seed"`
	Cores        int                  `json:"cores"`
	GOMAXPROCS   int                  `json:"gomaxprocs"`
	GoVersion    string               `json:"go_version"`
	Commit       string               `json:"commit"`
	SourceSHA256 string               `json:"source_sha256"`
	Samples      map[string][]float64 `json:"samples,omitempty"`
	Digests      []string             `json:"trace_digests,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "", "workload to run: accuracy-cold or timing-cold")
		seed      = flag.Int64("seed", 0, "added to every workload profile's seed in the traced replay (cmd/reproduce itself has no seed)")
		seconds   = flag.Float64("seconds", 45, "how long the untraced run keeps starting timed children")
		traced    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay instead of end-to-end metrics")
		root      = flag.String("root", ".", "repository root")
		reproduce = flag.String("reproduce", "", "built cmd/reproduce binary")
		workDir   = flag.String("work", "", "directory for temporary stores (default: the system temp directory)")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *reproduce == "" || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -reproduce, -trace 0|1 and one of the workloads accuracy-cold, timing-cold (got %q)\n", *name)
		return 2
	}
	res, inf, err := runWorkload(w, *reproduce, *workDir, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := describe(&inf, *root); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	inf.Workload, inf.Seed, inf.Trace = w.name, *seed, *traced
	for _, v := range []any{inf, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Printf("%s\n", line)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs w once in the chosen mode inside a temporary directory
// under workDir, which it removes before returning.
func runWorkload(w workloadSpec, reproduce, workDir string, seed int64, seconds float64, traced bool) (result, info, error) {
	work, err := os.MkdirTemp(workDir, "perfbench-"+w.name+"-")
	if err != nil {
		return result{}, info{}, err
	}
	defer os.RemoveAll(work)
	b := &bench{reproduce: reproduce, work: work, w: w}
	var (
		m   map[string]metric
		inf info
	)
	if traced {
		m, inf, err = b.traced(seed)
	} else {
		m, inf, err = b.measure(seconds)
	}
	if err != nil {
		return result{}, info{}, err
	}
	if err := os.RemoveAll(work); err != nil {
		return result{}, info{}, err
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, inf, nil
}

// traced is the traced run: one untraced child of the workload's command,
// then the in-process layer replay. The child runs with -timings, and the
// work counts it prints must equal the replay's. The child's CPU, less the
// replay's primary spans, is the CPU the layer split leaves unexplained.
func (b *bench) traced(seed int64) (map[string]metric, info, error) {
	b.timings = true
	c, err := b.runFresh()
	if err != nil {
		return nil, info{}, err
	}
	layerStore, err := b.newStore()
	if err != nil {
		return nil, info{}, err
	}
	r, m, err := traceLayers(b.w, seed, layerStore)
	if err == nil && c.err == nil {
		err = r.checkCounts(c.stderr)
	}
	b.attempted++
	if err != nil {
		// A layer that disagrees with itself, or a replay that did other
		// work than the child, is a wrong output, not a broken benchmark:
		// count it and report the run as incorrect.
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %v\n", err)
		return nil, info{}, nil
	}
	t := r.t
	t.summary()
	procs := float64(runtime.GOMAXPROCS(0)) // the child inherits this process's environment
	m["experiments.core_util"] = metric{c.cpu.Seconds() / (c.wall.Seconds() * procs), "frac"}
	m["experiments.unattributed_cpu_s"] = metric{(c.cpu - t.primaryCPU()).Seconds(), "s"}
	return m, info{Digests: r.digests, Samples: map[string][]float64{
		"child_wall_s": {c.wall.Seconds()}, "child_cpu_s": {c.cpu.Seconds()},
		"replay_s": {time.Since(t.origin).Seconds()},
	}}, nil
}
