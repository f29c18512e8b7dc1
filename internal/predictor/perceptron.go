package predictor

import (
	"fmt"

	"branchsim/internal/counter"
	"branchsim/internal/history"
)

// Perceptron implements the perceptron predictor of Jiménez and Lin (HPCA
// 2001 / ACM TOCS 2002) in the global-plus-local configuration the paper
// simulates (§4.1.1). Each table entry is a perceptron: a bias weight plus
// one signed weight per history bit. The prediction is the sign of the dot
// product of the weights with the history (outcomes as ±1); training bumps
// each weight toward agreement whenever the prediction was wrong or the
// output magnitude was below the threshold θ = ⌊1.93·h + 14⌋.
//
// Its strength is history length: h can far exceed log2(table entries), so
// it captures correlations dozens of branches back that PHT-indexed schemes
// cannot reach. Its weakness — central to the paper — is latency: the dot
// product is an adder tree as deep as a multiplier (§2.2), which we model as
// one extra cycle on top of the table access under the paper's optimistic
// assumption (§4.1.5).
type Perceptron struct {
	weights *counter.WeightRows // n rows of 1+hg+hl weights
	lhist   *history.Local
	ghr     *history.Global
	n       int
	hg      uint
	hl      uint
	theta   int
	name    string
}

// PerceptronConfig sizes a perceptron predictor.
type PerceptronConfig struct {
	Entries     int  // number of perceptrons
	GlobalBits  uint // global history length
	LocalBits   uint // local history length (0 disables the local part)
	LocalTables int  // local history registers (power of two), if LocalBits > 0
}

// NewPerceptron returns a perceptron predictor with the given configuration.
// Weights are 8 bits wide, as in the published design. The bias input and
// both histories must fit one 64-bit sign vector: 1+GlobalBits+LocalBits
// may not exceed 64.
func NewPerceptron(cfg PerceptronConfig) *Perceptron {
	if cfg.Entries <= 0 {
		panic("predictor: perceptron needs at least one entry")
	}
	if cfg.GlobalBits == 0 || 1+cfg.GlobalBits+cfg.LocalBits > 64 {
		panic(fmt.Sprintf("predictor: perceptron histories %d+%d out of range", cfg.GlobalBits, cfg.LocalBits))
	}
	h := cfg.GlobalBits + cfg.LocalBits
	p := &Perceptron{
		weights: counter.NewWeightRows(cfg.Entries, int(1+h)),
		ghr:     history.NewGlobal(cfg.GlobalBits),
		n:       cfg.Entries,
		hg:      cfg.GlobalBits,
		hl:      cfg.LocalBits,
		theta:   int(1.93*float64(h)) + 14,
	}
	if cfg.LocalBits > 0 {
		if cfg.LocalTables == 0 {
			cfg.LocalTables = 1024
		}
		p.lhist = history.NewLocal(cfg.LocalTables, cfg.LocalBits)
	}
	p.name = fmt.Sprintf("perceptron-%s", budgetName(p.SizeBytes()))
	return p
}

// NewPerceptronFromBudget configures history lengths the way the published
// budget sweeps do — global history grows with budget up to the high 50s,
// with a 10-bit local component — and then fits as many perceptrons as the
// remaining budget allows.
func NewPerceptronFromBudget(budgetBytes int) *Perceptron {
	kb := budgetBytes / 1024
	var hg uint
	switch {
	case kb < 2:
		hg = 12
	case kb < 4:
		hg = 18
	case kb < 8:
		hg = 24
	case kb < 16:
		hg = 28
	case kb < 32:
		hg = 34
	case kb < 64:
		hg = 36
	case kb < 128:
		hg = 40
	case kb < 256:
		hg = 44
	case kb < 512:
		hg = 48
	default:
		hg = 52
	}
	var hl uint = 10
	if kb < 4 {
		hl = 0
	}
	localTables := 1024
	lhistBytes := localTables * int(hl) / 8
	perEntry := int(1 + hg + hl) // bytes, 8-bit weights
	entries := (budgetBytes - lhistBytes) / perEntry
	if entries < 8 {
		entries = 8
	}
	return NewPerceptron(PerceptronConfig{
		Entries:     entries,
		GlobalBits:  hg,
		LocalBits:   hl,
		LocalTables: localTables,
	})
}

// inputs returns the weight row of the branch at pc and its sign vector:
// bit 0 is the bias input (always 1), bits 1..hg the global history and
// the next hl bits the branch's local history, a set bit standing for a
// taken outcome (+1) and a clear bit for a not-taken one (-1).
//
//bplint:hotpath perceptron inputs, shared by Predict, Update and StepBatch
func (p *Perceptron) inputs(pc uint64) (row int, s uint64) {
	row = int(hashPC(pc) % uint64(p.n))
	s = 1 | p.ghr.Value()<<1
	if p.lhist != nil {
		s |= p.lhist.Get(pc) << (1 + p.hg)
	}
	return row, s
}

// train applies the resolved outcome of the branch at pc, whose inputs
// produced output y: the perceptron rule moves every weight of the row one
// step toward agreement with the outcome when the prediction was wrong or
// |y| did not exceed θ, and both histories then shift the outcome in.
//
//bplint:hotpath perceptron training, shared by Update and StepBatch
func (p *Perceptron) train(pc uint64, row int, s uint64, y int, taken bool) {
	if (y >= 0) != taken || (y <= p.theta && y >= -p.theta) {
		// Weight j moves up when input j agrees with the outcome.
		agree := s
		if !taken {
			agree = ^s
		}
		p.weights.Train(row, agree)
	}
	if p.lhist != nil {
		p.lhist.Push(pc, taken)
	}
	p.ghr.Push(taken)
}

// Predict implements Predictor: the sign of the row's dot product with the
// inputs.
func (p *Perceptron) Predict(pc uint64) bool {
	row, s := p.inputs(pc)
	return p.weights.Dot(row, s) >= 0
}

// Update implements Predictor.
func (p *Perceptron) Update(pc uint64, taken bool) {
	row, s := p.inputs(pc)
	p.train(pc, row, s, p.weights.Dot(row, s), taken)
}

// StepBatch implements BatchStepper: Predict and Update share one dot
// product per branch.
//
//bplint:hotpath fused-sweep perceptron lane; bit-identity pinned by TestStepBatchEquivalence
func (p *Perceptron) StepBatch(pcs []uint64, takens []bool, measuredFrom int) int64 {
	var miss int64
	for i, pc := range pcs {
		taken := takens[i]
		row, s := p.inputs(pc)
		y := p.weights.Dot(row, s)
		p.train(pc, row, s, y, taken)
		if (y >= 0) != taken && i >= measuredFrom {
			miss++
		}
	}
	return miss
}

// SizeBytes implements Predictor.
func (p *Perceptron) SizeBytes() int {
	size := p.weights.SizeBytes() + p.ghr.SizeBytes()
	if p.lhist != nil {
		size += p.lhist.SizeBytes()
	}
	return size
}

// Name implements Predictor.
func (p *Perceptron) Name() string { return p.name }

// Entries returns the number of perceptrons.
func (p *Perceptron) Entries() int { return p.n }

// HistoryBits returns the global and local history lengths.
func (p *Perceptron) HistoryBits() (global, local uint) { return p.hg, p.hl }

// Theta returns the training threshold.
func (p *Perceptron) Theta() int { return p.theta }

// LargestTable implements DelayFootprint: the weight table. Its entries are
// perceptron rows, which are few but wide.
func (p *Perceptron) LargestTable() (int, int) { return p.weights.SizeBytes(), p.n }
