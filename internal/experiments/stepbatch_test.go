package experiments

import (
	"fmt"
	"testing"

	"branchsim/internal/predictor"
	"branchsim/internal/trace"
	"branchsim/internal/workload"
)

// TestEveryBatchStepperMatchesScalar builds every factory kind at the
// smallest and largest Figure 1 budgets and checks each one that implements
// predictor.BatchStepper against the Predict/Update protocol: the same
// stream, chopped into uneven batches with warm-up boundaries inside and
// outside them, must yield the same mispredict counts and leave the same
// state behind (probed by predicting every static branch afterwards). The
// kinds come from the factory, so a new stepper is covered without being
// listed here.
func TestEveryBatchStepperMatchesScalar(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	var recs []trace.BranchRec
	bs := workload.Record(prof, 150_000).ReplayBranches()
	batch := make([]trace.BranchRec, trace.BatchLen)
	for n := bs.NextBranches(batch); n > 0; n = bs.NextBranches(batch) {
		recs = append(recs, batch[:n]...)
	}
	pcs := make([]uint64, len(recs))
	takens := make([]bool, len(recs))
	for i, r := range recs {
		pcs[i], takens[i] = r.PC, r.Taken
	}
	budgets := Figure1Budgets()
	steppers := 0
	for _, kind := range PredictorKinds() {
		for _, budget := range []int{budgets[0], budgets[len(budgets)-1]} {
			batched := mustPredictor(kind, budget)
			s, ok := batched.(predictor.BatchStepper)
			if !ok {
				continue
			}
			steppers++
			t.Run(fmt.Sprintf("%s-%dKB", kind, budget>>10), func(t *testing.T) {
				scalar := mustPredictor(kind, budget)
				sizes := []int{1, 7, 256, 100, 3, 255}
				for lo, b := 0, 0; lo < len(pcs); b++ {
					hi := min(lo+sizes[b%len(sizes)], len(pcs))
					// Every third batch measures from its middle; the rest
					// alternate fully warm-up and fully measured.
					from := []int{(hi - lo) / 2, 0, hi - lo}[b%3]
					got := s.StepBatch(pcs[lo:hi], takens[lo:hi], from)
					var want int64
					for i := lo; i < hi; i++ {
						guess := scalar.Predict(pcs[i])
						scalar.Update(pcs[i], takens[i])
						if i-lo >= from && guess != takens[i] {
							want++
						}
					}
					if got != want {
						t.Fatalf("batch %d [%d,%d) from %d: StepBatch counted %d mispredicts, Predict/Update %d",
							b, lo, hi, from, got, want)
					}
					lo = hi
				}
				for _, pc := range pcs {
					if batched.Predict(pc) != scalar.Predict(pc) {
						t.Fatalf("state diverged: Predict(%#x) differs after the stream", pc)
					}
				}
			})
		}
	}
	if steppers < 12 {
		t.Fatalf("only %d kind/budget pairs are BatchSteppers; the factory lost its fast kernels", steppers)
	}
}
