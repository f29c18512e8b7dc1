package funcsim

import (
	"branchsim/internal/predictor"
	"branchsim/internal/trace"
)

// This file is the grid-fused accuracy driver: one trace pass feeds every
// predictor in a sweep. Run (funcsim.go) walks the stream once per cell;
// with batch fill at a few ns/branch that walk is cheap, but it is still
// repeated per (kind, budget) cell, and so is the per-branch dispatch
// overhead of the Predict/Update protocol. RunMany pulls each 256-entry
// branch batch once and feeds it to every lane before advancing the
// cursor, so the fill cost amortizes over the whole grid column and every
// predictor that implements BatchStepper steps through the batch with one
// call instead of two interface calls per branch.

// A Lane is one predictor's slot in a fused RunMany sweep. Each lane gets
// its own fresh predictor, exactly as if it were run through Run alone.
type Lane struct {
	P predictor.Predictor
}

// RunMany streams src through every lane's predictor in one pass and
// returns one Result per lane, in lane order. Each lane's Result is
// bit-identical to what Run(lane.P, src, opts) would return over its own
// cursor on the same stream (TestRunManyEquivalence): fusion is an
// execution strategy, not an observable one. Cycle-aware predictors see
// the same InstIndex-reconstructed fetch clock as in Run, advanced
// per-lane. The PerClass diagnostic is a per-cell concern and is ignored
// here; fused callers run diagnostic cells through Run.
func RunMany(lanes []Lane, src trace.BranchSource, opts Options) []Result {
	if opts.MaxInsts <= 0 {
		opts.MaxInsts = 1_000_000
	}
	if opts.FetchWidth <= 0 {
		opts.FetchWidth = 3
	}
	r := newFusedRun(lanes, opts)
	// BranchSource is the batch protocol alone; real sources (cursors, live
	// generators) are full trace.Sources and carry the workload name.
	name := ""
	if s, ok := src.(trace.Source); ok {
		name = s.Name()
	}
	// Same devirtualization as Run: the dominant concrete source keeps the
	// batch buffer on the driver's stack.
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
	opts Options //bplint:lane branchRun.opts

	// Per-lane state, index-aligned with the lanes slice.
	preds []predictor.Predictor //bplint:lane branchRun.p
	//bplint:lane branchRun.cycleAware
	aware []predictor.CycleAware // nil for cycle-oblivious lanes
	//bplint:lane branchRun.p
	steppers  []predictor.BatchStepper // nil for lanes on the scalar loop
	mispred   []int64                  //bplint:lane branchRun.mispred
	lastCycle []uint64                 //bplint:lane branchRun.lastCycle

	// Stream-wide tallies, shared by every lane: insts and the measured
	// count are functions of the stream's InstIndexes alone, and the taken
	// tally with the measured denominator reconstructs every lane's
	// branchRun rates in results.
	insts    int64 //bplint:lane branchRun.insts
	measured int64 //bplint:lane branchRun.taken,branchRun.mispred
	taken    int64 //bplint:lane branchRun.taken

	// SoA view of the current batch, filled once and read by every
	// BatchStepper lane.
	pcs    [trace.BatchLen]uint64 //bplint:lane - column view of the shared batch; the scalar loop reads records directly
	takens [trace.BatchLen]bool   //bplint:lane - column view of the shared batch; the scalar loop reads records directly
}

func newFusedRun(lanes []Lane, opts Options) *fusedRun {
	r := &fusedRun{
		opts:      opts,
		preds:     make([]predictor.Predictor, len(lanes)),
		aware:     make([]predictor.CycleAware, len(lanes)),
		steppers:  make([]predictor.BatchStepper, len(lanes)),
		mispred:   make([]int64, len(lanes)),
		lastCycle: make([]uint64, len(lanes)),
	}
	for i, l := range lanes {
		r.preds[i] = l.P
		if ca, ok := l.P.(predictor.CycleAware); ok {
			// Cycle-aware lanes need OnCycle interleaved per branch; they
			// take the scalar loop even if they could batch-step.
			r.aware[i] = ca
		} else if s, ok := l.P.(predictor.BatchStepper); ok {
			r.steppers[i] = s
		}
	}
	return r
}

// driveCursor is drive specialized to the concrete replay cursor so the
// batch array does not escape to the heap (see Run).
//
//bplint:twin funcsim.branchRun.driveCursor
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
//
//bplint:twin funcsim.branchRun.drive
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
// instruction budget is exhausted and the sweep is complete. The
// per-branch context Run's loop reconstructs per record — budget cut,
// warm-up boundary, fetch cycle — is reconstructed here from the same
// InstIndexes; because records ascend by InstIndex, the cut and the
// boundary are single positions valid for every lane.
//
//bplint:twin funcsim.branchRun.step
//bplint:twinmap p=pred cycleaware=aware
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
			if i >= from && pred != rec.Taken {
				r.mispred[li]++
			}
		}
	}
	if done {
		r.insts = r.opts.MaxInsts
	}
	return done
}

// finish fixes the instruction count when the stream ended before the
// budget, mirroring branchRun.finish.
//
//bplint:twin funcsim.branchRun.finish
func (r *fusedRun) finish(streamLen int64) {
	r.insts = streamLen
	if r.insts > r.opts.MaxInsts {
		r.insts = r.opts.MaxInsts
	}
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
	}
	return out
}
