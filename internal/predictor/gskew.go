package predictor

import (
	"fmt"

	"branchsim/internal/counter"
	"branchsim/internal/history"
)

// GSkew2Bc implements 2Bc-gskew, the predictor family of the Compaq Alpha
// EV8 front end (Seznec, Felix, Krishnan, Sazeides, ISCA 2002). Four equal
// banks of 2-bit counters:
//
//	BIM  — bimodal bank indexed by PC (branch bias)
//	G0   — gskew bank indexed by skewing hash H0(PC, history)
//	G1   — gskew bank indexed by skewing hash H1(PC, history)
//	META — chooser bank indexed by PC xor history
//
// The enhanced-gskew prediction is the majority of BIM, G0 and G1; META picks
// between that majority and BIM alone. The partial-update policy keeps banks
// that did not contribute to a correct prediction untouched, which is what
// lets the skewed banks de-alias each other.
type GSkew2Bc struct {
	bim     *counter.Array2
	g0      *counter.Array2
	g1      *counter.Array2
	meta    *counter.Array2
	ghr     *history.Global
	mask    uint64
	idxBits uint
	name    string
}

// NewGSkew2Bc returns a 2Bc-gskew predictor with four banks of bankEntries
// 2-bit counters each (bankEntries a power of two). History length follows
// the EV8 practice of exceeding the bank index width; here 2x index bits,
// capped at 64, folded into the skewing hashes.
func NewGSkew2Bc(bankEntries int) *GSkew2Bc {
	if bankEntries <= 0 || bankEntries&(bankEntries-1) != 0 {
		panic(fmt.Sprintf("predictor: 2Bc-gskew bank entries %d not a power of two", bankEntries))
	}
	idxBits := log2(bankEntries)
	// History matches the bank index width: configuration sweeps (see
	// the package tests) show longer folded histories cost more in
	// context fragmentation than they gain in correlation reach for
	// banks of this size.
	histBits := idxBits
	if histBits > history.MaxGlobalBits {
		histBits = history.MaxGlobalBits
	}
	g := &GSkew2Bc{
		bim: counter.NewArray2(bankEntries, counter.WeaklyNotTaken),
		// The gskew banks start weakly taken: a cold majority then
		// leans toward the typical branch direction instead of
		// outvoting a trained bimodal bank with two cold entries.
		g0:      counter.NewArray2(bankEntries, counter.WeaklyTaken),
		g1:      counter.NewArray2(bankEntries, counter.WeaklyTaken),
		meta:    counter.NewArray2(bankEntries, counter.WeaklyTaken),
		ghr:     history.NewGlobal(histBits),
		mask:    uint64(bankEntries - 1),
		idxBits: idxBits,
	}
	g.name = fmt.Sprintf("2bcgskew-%s", budgetName(g.SizeBytes()))
	return g
}

// NewGSkew2BcFromBudget returns the largest 2Bc-gskew fitting budgetBytes
// (four banks of 2-bit counters).
func NewGSkew2BcFromBudget(budgetBytes int) *GSkew2Bc {
	return NewGSkew2Bc(pow2Entries(budgetBytes/4, 2, 4))
}

// fold reduces a value wider than the bank index to the index width by
// XOR-folding, the standard trick for using long histories with small banks.
func (g *GSkew2Bc) fold(v uint64) uint64 {
	folded := uint64(0)
	for v != 0 {
		folded ^= v & g.mask
		v >>= g.idxBits
	}
	return folded
}

func rotl64(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// indices computes the four bank indices for a branch. The two gskew hashes
// must be decorrelated from each other and from the bimodal PC index so that
// two branches aliasing in one bank rarely alias in another; rotation by
// coprime amounts before folding achieves that with XOR-level hardware.
func (g *GSkew2Bc) indices(pc uint64) (bim, i0, i1, meta int) {
	p := pc >> 2
	h := g.ghr.Value()
	bim = int(p & g.mask)
	i0 = int(g.fold(p ^ h ^ rotl64(h, 7)))
	i1 = int(g.fold(p ^ rotl64(p, 5) ^ rotl64(h, 13)))
	// META is indexed by address alone: "does this branch need history"
	// is a per-branch property, and a history-fragmented META never
	// learns to fall back to the bimodal bank for cold contexts.
	meta = int(hashPC(pc) & g.mask)
	return bim, i0, i1, meta
}

// gskewLookup is one branch's view of the four banks: each bank's index
// and direction bit, and the two candidate predictions.
type gskewLookup struct {
	ib, i0, i1, im          int
	bimT, g0T, g1T, useSkew bool
	skewPred                bool
}

// pred returns the prediction META selects.
func (lk *gskewLookup) pred() bool {
	if lk.useSkew {
		return lk.skewPred
	}
	return lk.bimT
}

// components reads the per-bank direction bits and the two candidate
// predictions.
//
//bplint:hotpath 2Bc-gskew lookup, shared by Predict, Update and StepBatch
func (g *GSkew2Bc) components(pc uint64) (lk gskewLookup) {
	lk.ib, lk.i0, lk.i1, lk.im = g.indices(pc)
	lk.bimT = g.bim.Taken(lk.ib)
	lk.g0T = g.g0.Taken(lk.i0)
	lk.g1T = g.g1.Taken(lk.i1)
	lk.useSkew = g.meta.Taken(lk.im)
	lk.skewPred = majority(lk.bimT, lk.g0T, lk.g1T)
	return lk
}

func majority(a, b, c bool) bool {
	n := 0
	if a {
		n++
	}
	if b {
		n++
	}
	if c {
		n++
	}
	return n >= 2
}

// Predict implements Predictor.
func (g *GSkew2Bc) Predict(pc uint64) bool {
	lk := g.components(pc)
	return lk.pred()
}

// Update implements Predictor.
func (g *GSkew2Bc) Update(pc uint64, taken bool) {
	lk := g.components(pc)
	g.train(&lk, taken)
}

// train applies the published partial-update policy to the banks
// components read:
//
//   - On a correct prediction, strengthen only the banks that agreed with the
//     outcome and provided it (BIM alone when META chose BIM; the agreeing
//     majority banks when META chose e-gskew).
//   - On a misprediction, train all direction banks toward the outcome.
//   - META trains toward the e-gskew side whenever BIM and e-gskew disagree.
//
//bplint:hotpath 2Bc-gskew training, shared by Update and StepBatch
func (g *GSkew2Bc) train(lk *gskewLookup, taken bool) {
	if lk.pred() == taken {
		if lk.useSkew {
			if lk.bimT == taken {
				g.bim.Update(lk.ib, taken)
			}
			if lk.g0T == taken {
				g.g0.Update(lk.i0, taken)
			}
			if lk.g1T == taken {
				g.g1.Update(lk.i1, taken)
			}
		} else {
			g.bim.Update(lk.ib, taken)
		}
	} else {
		g.bim.Update(lk.ib, taken)
		g.g0.Update(lk.i0, taken)
		g.g1.Update(lk.i1, taken)
	}
	if lk.bimT != lk.skewPred {
		g.meta.Update(lk.im, lk.skewPred == taken)
	}
	g.ghr.Push(taken)
}

// StepBatch implements BatchStepper: components runs once per branch
// instead of once in Predict and again in Update.
//
//bplint:hotpath fused-sweep 2Bc-gskew lane; bit-identity pinned by TestStepBatchEquivalence
func (g *GSkew2Bc) StepBatch(pcs []uint64, takens []bool, measuredFrom int) int64 {
	var miss int64
	for i, pc := range pcs {
		taken := takens[i]
		lk := g.components(pc)
		g.train(&lk, taken)
		if lk.pred() != taken && i >= measuredFrom {
			miss++
		}
	}
	return miss
}

// SizeBytes implements Predictor.
func (g *GSkew2Bc) SizeBytes() int {
	return g.bim.SizeBytes() + g.g0.SizeBytes() + g.g1.SizeBytes() +
		g.meta.SizeBytes() + g.ghr.SizeBytes()
}

// Name implements Predictor.
func (g *GSkew2Bc) Name() string { return g.name }

// BankEntries returns the per-bank counter count.
func (g *GSkew2Bc) BankEntries() int { return g.bim.Len() }

// LargestTable implements DelayFootprint: the four banks are equal-sized.
func (g *GSkew2Bc) LargestTable() (int, int) { return g.bim.SizeBytes(), g.bim.Len() }

// NewGSkew2BcHist returns a 2Bc-gskew with an explicit history length,
// used by configuration sweeps.
func NewGSkew2BcHist(bankEntries int, histBits uint) *GSkew2Bc {
	g := NewGSkew2Bc(bankEntries)
	if histBits > history.MaxGlobalBits {
		histBits = history.MaxGlobalBits
	}
	g.ghr = history.NewGlobal(histBits)
	return g
}
