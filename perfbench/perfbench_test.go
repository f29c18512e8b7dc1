package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// smokeInsts keeps every reproduce child and traced replay in the smoke
// tests well under a second.
const smokeInsts = 50_000

// buildReproduce builds cmd/reproduce from the repository this benchmark
// lives in.
func buildReproduce(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "reproduce")
	out, err := exec.Command("go", "build", "-o", bin, "branchsim/cmd/reproduce").CombinedOutput()
	if err != nil {
		t.Fatalf("building reproduce: %v\n%s", err, out)
	}
	return bin
}

// declared reads the metric names and units BENCHMARK.json declares for
// one mode.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range ms {
		if _, dup := units[m.Name]; dup {
			t.Fatalf("BENCHMARK.json declares %s twice", m.Name)
		}
		units[m.Name] = m.Unit
	}
	return units
}

// smoke returns w scaled down to smokeInsts, with no committed digests:
// those hold only at the workload's own size.
func smoke(w workloadSpec) workloadSpec {
	w.insts = smokeInsts
	w.expect = nil
	return w
}

// TestSmokeEmitsDeclaredMetrics runs every workload at a tiny scale in
// both modes and checks that the result carries exactly the metrics
// BENCHMARK.json declares for that mode, each with its declared unit.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	reproduce := buildReproduce(t)
	modes := map[bool]string{false: "end_to_end", true: "per_layer"}
	for _, w := range workloads {
		for traced, key := range modes {
			t.Run(w.name+"/"+key, func(t *testing.T) {
				res, _, err := runWorkload(smoke(w), reproduce, t.TempDir(), 1, 0, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := declared(t, key)
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s not emitted", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s emitted but not declared in %s", name, key)
					}
				}
			})
		}
	}
}

// TestInjectedMismatchCountsAsFailure checks that a stdout digest that
// does not match counts as a failed run naming the workload and
// experiment.
func TestInjectedMismatchCountsAsFailure(t *testing.T) {
	reproduce := buildReproduce(t)
	w, _ := workloadByName("accuracy-cold")
	w = smoke(w)
	w.experiments = []string{"figure6"}
	w.expect = map[string]string{"figure6": strings.Repeat("0", 64)}
	res, _, err := runWorkload(w, reproduce, t.TempDir(), 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Metrics["ok_frac"].Value != 0 {
		t.Fatalf("digest mismatch: correct=%v attempted=%d failed=%d ok_frac=%v",
			res.Correct, res.Attempted, res.Failed, res.Metrics["ok_frac"].Value)
	}

	b := &bench{reproduce: reproduce, work: t.TempDir(), w: w}
	c, err := b.runFresh()
	if err != nil {
		t.Fatal(err)
	}
	if c.err == nil || !strings.Contains(c.err.Error(), "accuracy-cold") || !strings.Contains(c.err.Error(), "figure6") ||
		b.failed != 1 || b.attempted != 1 {
		t.Fatalf("mismatch not named: err=%v attempted=%d failed=%d", c.err, b.attempted, b.failed)
	}
}

// TestReplayCountsMatchReproduce checks that the traced replay's work
// counts equal those a reproduce child prints with -timings, and that a
// replay that drifted from reproduce's plans, or a child that did other
// work, is caught and named.
func TestReplayCountsMatchReproduce(t *testing.T) {
	reproduce := buildReproduce(t)
	w, _ := workloadByName("timing-cold")
	w = smoke(w)
	b := &bench{reproduce: reproduce, work: t.TempDir(), w: w, timings: true}
	c, err := b.runFresh()
	if err != nil {
		t.Fatal(err)
	}
	if c.err != nil {
		t.Fatal(c.err)
	}
	r, _, err := traceLayers(w, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.checkCounts(c.stderr); err != nil {
		t.Fatal(err)
	}

	other := bytes.Replace(c.stderr, []byte("(trace store: 12 recordings"), []byte("(trace store: 11 recordings"), 1)
	if bytes.Equal(other, c.stderr) {
		t.Fatalf("no trace store line in reproduce -timings output:\n%s", c.stderr)
	}
	for name, stderr := range map[string][]byte{"other counts": other, "no counts": nil} {
		if err := r.checkCounts(stderr); err == nil || !strings.Contains(err.Error(), w.name) {
			t.Errorf("%s: checkCounts = %v, want an error naming %s", name, err, w.name)
		}
	}
	r.cells = r.cells[1:]
	if err := r.checkCounts(c.stderr); err == nil {
		t.Error("a replay with a cell fewer than reproduce passed the count check")
	}
}

// TestSectionDigests pins how reproduce's stdout splits into experiments.
func TestSectionDigests(t *testing.T) {
	out := []byte("### figure1 — a\n\nrow\n\n### figure5 — b\nrow\n")
	got := sectionDigests(out)
	if len(got) != 2 || got["figure1"] == "" || got["figure5"] == "" || got["figure1"] == got["figure5"] {
		t.Fatalf("sections %v", got)
	}
	if again := sectionDigests(out); again["figure1"] != got["figure1"] {
		t.Fatal("section digests are not deterministic")
	}
}
