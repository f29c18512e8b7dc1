package predictor

import (
	"math/rand"
	"testing"
)

// textbookPerceptron is the perceptron predictor written the way the
// published algorithm reads, with none of the packed layout: one int per
// weight, histories as bool slices (newest outcome first), and a ±w loop
// per input. It shares only the row hash and the local history table's
// indexing with Perceptron.
type textbookPerceptron struct {
	w      [][]int
	global []bool
	local  [][]bool // nil without a local part
	theta  int
}

func newTextbookPerceptron(cfg PerceptronConfig) *textbookPerceptron {
	h := int(cfg.GlobalBits + cfg.LocalBits)
	o := &textbookPerceptron{
		w:      make([][]int, cfg.Entries),
		global: make([]bool, cfg.GlobalBits),
		theta:  int(1.93*float64(h)) + 14,
	}
	for i := range o.w {
		o.w[i] = make([]int, 1+h)
	}
	if cfg.LocalBits > 0 {
		o.local = make([][]bool, cfg.LocalTables)
		for i := range o.local {
			o.local[i] = make([]bool, cfg.LocalBits)
		}
	}
	return o
}

// inputs returns the row and the ±1 inputs: bias, global, then local.
func (o *textbookPerceptron) inputs(pc uint64) (row []int, x []int) {
	row = o.w[hashPC(pc)%uint64(len(o.w))]
	x = append(x, 1)
	hist := o.global
	if o.local != nil {
		hist = append(append([]bool(nil), hist...), o.local[(pc>>2)%uint64(len(o.local))]...)
	}
	for _, b := range hist {
		if b {
			x = append(x, 1)
		} else {
			x = append(x, -1)
		}
	}
	return row, x
}

func (o *textbookPerceptron) output(pc uint64) int {
	row, x := o.inputs(pc)
	y := 0
	for j := range row {
		y += x[j] * row[j]
	}
	return y
}

func (o *textbookPerceptron) update(pc uint64, taken bool) {
	y := o.output(pc)
	t := -1
	if taken {
		t = 1
	}
	if (y >= 0) != taken || y*t <= o.theta {
		row, x := o.inputs(pc)
		for j := range row {
			row[j] = min(max(row[j]+t*x[j], -128), 127)
		}
	}
	shift := func(h []bool) { copy(h[1:], h); h[0] = taken }
	shift(o.global)
	if o.local != nil {
		shift(o.local[(pc>>2)%uint64(len(o.local))])
	}
}

// checkAgainstTextbook drives p (via Predict/Update, or via StepBatch in
// uneven batches) and the textbook model through one stream, comparing
// every prediction (or the batch mispredict counts) and finally every
// weight. It returns the extreme weights the textbook model reached.
func checkAgainstTextbook(t *testing.T, cfg PerceptronConfig, pcs []uint64, takens []bool, batched bool) (lo, hi int) {
	t.Helper()
	p := NewPerceptron(cfg)
	o := newTextbookPerceptron(cfg)
	var want int64
	for i, pc := range pcs {
		pred := o.output(pc) >= 0
		if !batched {
			if got := p.Predict(pc); got != pred {
				t.Fatalf("%+v: branch %d predicted %v, textbook %v", cfg, i, got, pred)
			}
			p.Update(pc, takens[i])
		}
		if pred != takens[i] {
			want++
		}
		o.update(pc, takens[i])
		row, _ := o.inputs(pc)
		for _, w := range row {
			lo, hi = min(lo, w), max(hi, w)
		}
	}
	if batched {
		var got int64
		for off := 0; off < len(pcs); off += 97 {
			end := min(off+97, len(pcs))
			got += p.StepBatch(pcs[off:end], takens[off:end], 0)
		}
		if got != want {
			t.Fatalf("%+v: StepBatch counted %d mispredicts, textbook %d", cfg, got, want)
		}
	}
	for r, row := range o.w {
		for j, w := range row {
			if got := p.weights.Get(r, j); got != w {
				t.Fatalf("%+v: weight %d of row %d is %d, textbook %d", cfg, j, r, got, w)
			}
		}
	}
	return lo, hi
}

// TestPerceptronMatchesTextbook checks the packed-byte kernel against the
// textbook integer perceptron over random configurations and random
// streams, scalar and batched, and on the shared branch stream with the
// 512 KB configuration, whose saturation segment must reach both weight
// bounds.
func TestPerceptronMatchesTextbook(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 40; c++ {
		cfg := PerceptronConfig{
			Entries:    1 + rng.Intn(40),
			GlobalBits: uint(1 + rng.Intn(63)),
		}
		if c%2 == 0 && cfg.GlobalBits < 63 {
			cfg.LocalBits = uint(1 + rng.Intn(63-int(cfg.GlobalBits)))
			cfg.LocalTables = 1 << rng.Intn(5)
		}
		// A few dozen PCs with a mix of biased, history-copying and
		// random outcomes, so weights wander in both directions.
		pcs := make([]uint64, 3000)
		takens := make([]bool, len(pcs))
		prev := false
		for i := range pcs {
			pc := uint64(0x4000 + 4*rng.Intn(48))
			switch pc / 4 % 4 {
			case 0:
				takens[i] = rng.Intn(8) != 0
			case 1:
				takens[i] = prev
			case 2:
				takens[i] = !prev
			default:
				takens[i] = rng.Intn(2) == 0
			}
			pcs[i], prev = pc, takens[i]
		}
		checkAgainstTextbook(t, cfg, pcs, takens, c%4 < 2)
	}

	big := NewPerceptronFromBudget(512 << 10)
	hg, hl := big.HistoryBits()
	cfg := PerceptronConfig{Entries: big.Entries(), GlobalBits: hg, LocalBits: hl, LocalTables: 1024}
	pcs, takens := branchStream(20_000)
	for _, batched := range []bool{false, true} {
		if lo, hi := checkAgainstTextbook(t, cfg, pcs, takens, batched); lo != -128 || hi != 127 {
			t.Fatalf("branch stream reached weights [%d, %d], want both bounds [-128, 127]", lo, hi)
		}
	}
}
