package funcsim

import (
	"branchsim/internal/predictor"
	"branchsim/internal/stats"
	"branchsim/internal/trace"
)

// This file is the accuracy engine: one trace pass feeds every predictor
// in a sweep. RunMany pulls each 256-entry branch batch once and feeds it
// to every lane before advancing the cursor, so the fill cost amortizes
// over the whole grid column and every predictor that implements
// BatchStepper steps through the batch with one call instead of two
// interface calls per branch. Run is the one-lane case. The obviously
// correct per-branch reference the engine is tested against lives in
// oracle_test.go.

// A Lane is one predictor's slot in a fused RunMany sweep. Each lane gets
// its own fresh predictor, exactly as if it were run through Run alone.
type Lane struct {
	P predictor.Predictor
}

// RunMany streams src through every lane's predictor in one pass and
// returns one Result per lane, in lane order; each equals what Run would
// return for that lane alone over its own cursor on the same stream.
// Cycle-aware predictors see a fetch clock reconstructed from each
// branch's InstIndex, advanced per lane. With Options.PerClass and a src
// implementing BranchClassifier, every lane fills Result.ClassRates.
func RunMany(lanes []Lane, src trace.BranchSource, opts Options) []Result {
	opts = opts.withDefaults(3)
	// BranchSource is the batch protocol alone; real sources (cursors, live
	// generators, FilterBranches) also carry the workload name.
	name := ""
	if s, ok := src.(interface{ Name() string }); ok {
		name = s.Name()
	}
	return runMany(lanes, src, name, classifierOf(src, opts), opts)
}

// runMany is RunMany with defaulted options and the workload name and
// classifier resolved by the caller, which may have wrapped the original
// source in a filter that hides both.
func runMany(lanes []Lane, src trace.BranchSource, name string, classifier BranchClassifier, opts Options) []Result {
	r := newFusedRun(lanes, classifier, opts)
	// Devirtualizing the dominant concrete source keeps the batch buffer
	// on the driver's stack.
	if cur, ok := src.(*trace.Cursor); ok {
		r.driveCursor(cur)
	} else {
		r.drive(src)
	}
	return r.results(lanes, name)
}

// fusedRun is the state of one RunMany sweep. Per-lane state is packed
// into index-aligned slices (structure of arrays): the inner loop touches
// mispred and lastCycle contiguously instead of chasing one heap object
// per lane. The warm-up boundary, instruction count and taken tally are
// lane-invariant — they are functions of the stream's InstIndexes alone —
// so they are computed once per batch, not once per lane.
type fusedRun struct {
	opts Options

	// Per-lane state, index-aligned with the lanes slice.
	preds     []predictor.Predictor
	aware     []predictor.CycleAware   // nil for cycle-oblivious lanes
	steppers  []predictor.BatchStepper // nil for lanes on the per-branch loop
	mispred   []int64
	lastCycle []uint64

	// classifier, when non-nil, sends every lane down the per-branch loop
	// so each measured branch is also tallied under its class in
	// classRates[lane].
	classifier BranchClassifier
	classRates []map[string]*stats.Rate

	// Stream-wide tallies, shared by every lane: insts and the measured
	// count are functions of the stream's InstIndexes alone.
	insts    int64
	measured int64
	taken    int64

	// SoA view of the current batch, filled once and read by every
	// BatchStepper lane.
	pcs    [trace.BatchLen]uint64
	takens [trace.BatchLen]bool
}

func newFusedRun(lanes []Lane, classifier BranchClassifier, opts Options) *fusedRun {
	r := &fusedRun{
		opts:       opts,
		preds:      make([]predictor.Predictor, len(lanes)),
		aware:      make([]predictor.CycleAware, len(lanes)),
		steppers:   make([]predictor.BatchStepper, len(lanes)),
		mispred:    make([]int64, len(lanes)),
		lastCycle:  make([]uint64, len(lanes)),
		classifier: classifier,
	}
	if classifier != nil {
		r.classRates = make([]map[string]*stats.Rate, len(lanes))
		for i := range r.classRates {
			r.classRates[i] = make(map[string]*stats.Rate)
		}
	}
	for i, l := range lanes {
		r.preds[i] = l.P
		if ca, ok := l.P.(predictor.CycleAware); ok {
			// Cycle-aware lanes need OnCycle interleaved per branch; they
			// take the per-branch loop even if they could batch-step.
			r.aware[i] = ca
		} else if s, ok := l.P.(predictor.BatchStepper); ok && classifier == nil {
			r.steppers[i] = s
		}
	}
	return r
}

// driveCursor is drive specialized to the concrete replay cursor so the
// batch array does not escape to the heap.
//
//bplint:hotpath fused accuracy sweep; TestRunManyAllocs pins steady-state allocs to zero
func (r *fusedRun) driveCursor(cur *trace.Cursor) {
	var batch [trace.BatchLen]trace.BranchRec
	for {
		n := cur.NextBranches(batch[:])
		if n == 0 {
			r.finish(cur.InstsScanned())
			return
		}
		if r.step(batch[:n]) {
			return
		}
	}
}

// drive runs the fused loop over any BranchSource.
func (r *fusedRun) drive(bs trace.BranchSource) {
	batch := make([]trace.BranchRec, trace.BatchLen)
	for {
		n := bs.NextBranches(batch)
		if n == 0 {
			r.finish(bs.InstsScanned())
			return
		}
		if r.step(batch[:n]) {
			return
		}
	}
}

// step feeds one filled batch to every lane; it reports true when the
// instruction budget is exhausted and the sweep is complete. The branch at
// 0-based stream index i is processed iff i < MaxInsts and measured iff
// i >= WarmupInsts; because records ascend by InstIndex, the budget cut
// and the warm-up boundary are single batch positions valid for every
// lane. The fetch clock a CycleAware lane sees at that branch is
// (i+1)/FetchWidth, announced only when it changes (cycle 0 never is).
//
//bplint:hotpath fused batch loop shared by driveCursor and drive
func (r *fusedRun) step(batch []trace.BranchRec) (done bool) {
	cut := len(batch)
	for i := range batch {
		if batch[i].InstIndex >= r.opts.MaxInsts {
			cut, done = i, true
			break
		}
	}
	from := 0
	for from < cut && batch[from].InstIndex < r.opts.WarmupInsts {
		from++
	}
	for i := 0; i < cut; i++ {
		r.pcs[i] = batch[i].PC
		r.takens[i] = batch[i].Taken
		if i >= from && batch[i].Taken {
			r.taken++
		}
	}
	r.measured += int64(cut - from)
	pcs, takens := r.pcs[:cut], r.takens[:cut]
	for li := range r.preds {
		if s := r.steppers[li]; s != nil {
			r.mispred[li] += s.StepBatch(pcs, takens, from)
			continue
		}
		p := r.preds[li]
		aware := r.aware[li]
		for i := 0; i < cut; i++ {
			rec := &batch[i]
			if aware != nil {
				if cycle := uint64(rec.InstIndex+1) / uint64(r.opts.FetchWidth); cycle != r.lastCycle[li] {
					r.lastCycle[li] = cycle
					aware.OnCycle(cycle)
				}
			}
			pred := p.Predict(rec.PC)
			p.Update(rec.PC, rec.Taken)
			if i >= from {
				miss := pred != rec.Taken
				if miss {
					r.mispred[li]++
				}
				if r.classifier != nil {
					r.classify(li, rec.PC, miss)
				}
			}
		}
	}
	if done {
		r.insts = r.opts.MaxInsts
	}
	return done
}

// classify tallies one measured branch of lane li under its static class —
// the PerClass diagnostic. A class's rate is allocated on its first branch,
// a handful per run.
func (r *fusedRun) classify(li int, pc uint64, miss bool) {
	name, ok := r.classifier.BranchClassName(pc)
	if !ok {
		return
	}
	cr := r.classRates[li][name]
	if cr == nil {
		cr = &stats.Rate{}
		r.classRates[li][name] = cr
	}
	cr.Add(miss)
}

// finish fixes the instruction count when the stream ended before the
// budget: min(stream length, MaxInsts).
func (r *fusedRun) finish(streamLen int64) {
	r.insts = min(streamLen, r.opts.MaxInsts)
}

func (r *fusedRun) results(lanes []Lane, workload string) []Result {
	out := make([]Result, len(lanes))
	takenRate := 0.0
	if r.measured > 0 {
		takenRate = float64(r.taken) / float64(r.measured)
	}
	for i, l := range lanes {
		out[i] = Result{
			Predictor:    l.P.Name(),
			Workload:     workload,
			Insts:        r.insts,
			Branches:     r.measured,
			Mispredicts:  r.mispred[i],
			TakenRate:    takenRate,
			PredSizeByte: l.P.SizeBytes(),
		}
		if r.classRates != nil {
			out[i].ClassRates = r.classRates[i]
		}
	}
	return out
}
