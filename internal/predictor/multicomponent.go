package predictor

import (
	"fmt"

	"branchsim/internal/counter"
	"branchsim/internal/history"
)

// MultiComponent implements the multi-component hybrid predictor in the
// style of Evers' multi-hybrid (PhD thesis, Michigan 1999; ISCA 1996): a set
// of two-level components whose history lengths increase geometrically, so
// each branch can be served by the component whose history length matches
// its correlation distance, plus a bimodal component for biased branches.
// Selection uses per-component 2-bit confidence counters kept in a PC-indexed
// selector table; the confident component with the longest history wins.
//
// This is the most accurate — and the most delay-hostile — predictor in the
// paper's evaluation: a prediction needs N table reads plus a selection
// network, which is exactly the complexity §2.2 warns about.
type MultiComponent struct {
	bimodal    *counter.Array2
	bimMask    uint64
	components []mcComponent
	// Optional local two-level component (Evers' multi-hybrid mixes
	// global- and local-history components).
	localPHT  *counter.Array2
	localHist *history.Local
	// selector holds every prediction source's 2-bit confidence counter,
	// row-major: one row of sources() counters per selector entry, in
	// source order, so a selection reads one row.
	selector *counter.ArrayN
	selMask  uint64
	ghr      *history.Global
	name     string
}

// mcMaxSources bounds the prediction sources of a multi-component hybrid,
// so one branch's per-source lookup fits fixed arrays on the stack.
const mcMaxSources = 8

// mcComponent is one gshare-style two-level component with XOR-folded
// history of a fixed length.
type mcComponent struct {
	pht      *counter.Array2
	histBits uint
	mask     uint64
	idxBits  uint
}

func (c *mcComponent) index(pc uint64, hist uint64) int {
	h := hist
	if c.histBits < 64 {
		h &= 1<<c.histBits - 1
	}
	v := pc >> 2
	folded := v & c.mask
	v >>= c.idxBits
	folded ^= v & c.mask
	for h != 0 {
		folded ^= h & c.mask
		h >>= c.idxBits
	}
	return int(folded)
}

// MCConfig sizes a multi-component hybrid.
type MCConfig struct {
	BimodalEntries   int    // bimodal component entries (power of two)
	ComponentEntries int    // per-component PHT entries (power of two)
	HistoryLengths   []uint // one two-level component per entry, ascending; at most six with a local component, seven without
	SelectorEntries  int    // selector table entries (power of two)
	// LocalHistories and LocalBits, when nonzero, add a two-level local
	// component: LocalHistories registers of LocalBits bits indexing a
	// 2^LocalBits-entry PHT.
	LocalHistories int
	LocalBits      uint
}

// NewMultiComponent returns a multi-component hybrid with the given
// configuration.
func NewMultiComponent(cfg MCConfig) *MultiComponent {
	if len(cfg.HistoryLengths) == 0 {
		panic("predictor: multi-component needs at least one history length")
	}
	if cfg.ComponentEntries <= 0 || cfg.ComponentEntries&(cfg.ComponentEntries-1) != 0 {
		panic(fmt.Sprintf("predictor: component entries %d not a power of two", cfg.ComponentEntries))
	}
	if cfg.BimodalEntries <= 0 || cfg.BimodalEntries&(cfg.BimodalEntries-1) != 0 {
		panic(fmt.Sprintf("predictor: bimodal entries %d not a power of two", cfg.BimodalEntries))
	}
	if cfg.SelectorEntries <= 0 || cfg.SelectorEntries&(cfg.SelectorEntries-1) != 0 {
		panic(fmt.Sprintf("predictor: selector entries %d not a power of two", cfg.SelectorEntries))
	}
	maxHist := cfg.HistoryLengths[len(cfg.HistoryLengths)-1]
	if maxHist > history.MaxGlobalBits {
		panic(fmt.Sprintf("predictor: history length %d exceeds %d", maxHist, history.MaxGlobalBits))
	}
	m := &MultiComponent{
		bimodal: counter.NewArray2(cfg.BimodalEntries, counter.WeaklyNotTaken),
		bimMask: uint64(cfg.BimodalEntries - 1),
		selMask: uint64(cfg.SelectorEntries - 1),
		ghr:     history.NewGlobal(maxHist),
	}
	idxBits := log2(cfg.ComponentEntries)
	for _, h := range cfg.HistoryLengths {
		m.components = append(m.components, mcComponent{
			pht:      counter.NewArray2(cfg.ComponentEntries, counter.WeaklyNotTaken),
			histBits: h,
			mask:     uint64(cfg.ComponentEntries - 1),
			idxBits:  idxBits,
		})
	}
	if cfg.LocalHistories > 0 && cfg.LocalBits > 0 {
		m.localPHT = counter.NewArray2(1<<cfg.LocalBits, counter.WeaklyNotTaken)
		m.localHist = history.NewLocal(cfg.LocalHistories, cfg.LocalBits)
	}
	n := m.sources()
	if n > mcMaxSources {
		panic(fmt.Sprintf("predictor: multi-component has %d sources, more than %d", n, mcMaxSources))
	}
	// One confidence counter per prediction source in every selector row
	// (global components, then the local component if present, bimodal
	// last). The bimodal component starts fully confident and the history
	// components one notch below, so a history component must demonstrate
	// an advantage before it takes over a branch.
	m.selector = counter.NewArrayN(cfg.SelectorEntries*n, 2, 2)
	for row := 0; row < cfg.SelectorEntries; row++ {
		m.selector.Set(row*n+n-1, 3)
	}
	m.name = fmt.Sprintf("multicomponent-%s", budgetName(m.SizeBytes()))
	return m
}

// NewMultiComponentFromBudget configures a five-component hybrid (bimodal +
// four two-level components with geometric history lengths) around
// budgetBytes, following the shape of the thesis configurations. Like the
// paper's multi-component design points (18 KB, 53 KB, ... — never powers of
// two), the realized size lands near but not exactly on the request; the
// direction tables get a quarter of the budget each and the bimodal and
// selector tables ride on top.
func NewMultiComponentFromBudget(budgetBytes int) *MultiComponent {
	compEntries := pow2Entries(budgetBytes/4, 2, 64)
	bimEntries := pow2Entries(budgetBytes/16, 2, 16)
	selEntries := pow2Entries(budgetBytes/16, 10, 16)
	idxBits := log2(compEntries)
	// History lengths: a short, fast-warming component up to a long one
	// well beyond the index width (folded) for long-range correlation.
	long := 5 * idxBits / 2
	if long > history.MaxGlobalBits {
		long = history.MaxGlobalBits
	}
	lengths := []uint{idxBits / 2, idxBits, 3 * idxBits / 2, long}
	if lengths[0] == 0 {
		lengths[0] = 1
	}
	return NewMultiComponent(MCConfig{
		BimodalEntries:   bimEntries,
		ComponentEntries: compEntries,
		HistoryLengths:   lengths,
		SelectorEntries:  selEntries,
		LocalHistories:   1024,
		LocalBits:        10,
	})
}

// sources returns the number of prediction sources: the global components,
// the optional local component, and the bimodal table.
func (m *MultiComponent) sources() int {
	n := len(m.components) + 1
	if m.localPHT != nil {
		n++
	}
	return n
}

// mcLookup is one branch's view of every prediction source: each source's
// table index and predicted direction, the source the selector chose, and
// the branch's selector row.
type mcLookup struct {
	idx    [mcMaxSources]int
	preds  uint // bit i set: source i predicts taken
	chosen int
	sel    int // selector index of the row's first counter
}

func (lk *mcLookup) pred() bool { return lk.preds>>uint(lk.chosen)&1 == 1 }

// choose reads the branch's selector row and returns its first counter's
// index and the chosen source.
//
//bplint:hotpath multi-component selection, shared by Predict and lookup
func (m *MultiComponent) choose(pc uint64) (sel, chosen int) {
	n := m.sources()
	sel = int(pcIndex(pc, m.selMask)) * n
	bim := n - 1
	best, bestConf := bim, m.selector.Get(sel+bim)
	// Scan short-history components first: confidence ties go to the
	// component with the least context, which warms up fastest and
	// aliases least. A longer-history component takes over only when its
	// confidence strictly exceeds everything simpler — the stable
	// variant of Evers' priority selection for 2-bit confidences.
	for i := 0; i < bim; i++ {
		if conf := m.selector.Get(sel + i); conf > bestConf {
			best, bestConf = i, conf
		}
	}
	return sel, best
}

// lookup reads the selector row and every source's prediction for the
// branch at pc (global components in order, then the local component if
// present, bimodal last).
//
//bplint:hotpath multi-component lookup, shared by Update and StepBatch
func (m *MultiComponent) lookup(pc uint64, lk *mcLookup) {
	lk.sel, lk.chosen = m.choose(pc)
	lk.preds = 0
	hist := m.ghr.Value()
	for i := range m.components {
		c := &m.components[i]
		lk.idx[i] = c.index(pc, hist)
		if c.pht.Taken(lk.idx[i]) {
			lk.preds |= 1 << uint(i)
		}
	}
	if m.localPHT != nil {
		i := len(m.components)
		lk.idx[i] = int(m.localHist.Get(pc))
		if m.localPHT.Taken(lk.idx[i]) {
			lk.preds |= 1 << uint(i)
		}
	}
	bim := m.sources() - 1
	lk.idx[bim] = int(pcIndex(pc, m.bimMask))
	if m.bimodal.Taken(lk.idx[bim]) {
		lk.preds |= 1 << uint(bim)
	}
}

// Predict implements Predictor: it reads the selector row and then only
// the chosen source's table.
func (m *MultiComponent) Predict(pc uint64) bool {
	_, chosen := m.choose(pc)
	switch {
	case chosen < len(m.components):
		c := &m.components[chosen]
		return c.pht.Taken(c.index(pc, m.ghr.Value()))
	case chosen == m.sources()-1:
		return m.bimodal.Taken(int(pcIndex(pc, m.bimMask)))
	default:
		return m.localPHT.Taken(int(m.localHist.Get(pc)))
	}
}

// Update implements Predictor. All direction components train on every
// branch (total update). Confidence counters train only relative to the
// chosen component — if every counter simply tracked its own component's
// correctness, they would all saturate together on the mostly-correct stream
// and selection would collapse to the tie-break:
//
//   - chosen correct: wrong components are decremented;
//   - chosen wrong: correct components are incremented and the chosen
//     component is decremented.
func (m *MultiComponent) Update(pc uint64, taken bool) {
	var lk mcLookup
	m.lookup(pc, &lk)
	m.train(pc, taken, &lk)
}

// train applies the outcome of the branch at pc to the state lookup read.
//
//bplint:hotpath multi-component training, shared by Update and StepBatch
func (m *MultiComponent) train(pc uint64, taken bool, lk *mcLookup) {
	chosenCorrect := lk.pred() == taken
	for i := 0; i < m.sources(); i++ {
		correct := (lk.preds>>uint(i)&1 == 1) == taken
		switch {
		case i == lk.chosen && !chosenCorrect:
			m.selector.Update(lk.sel+i, false)
		case i != lk.chosen && chosenCorrect && !correct:
			m.selector.Update(lk.sel+i, false)
		case i != lk.chosen && !chosenCorrect && correct:
			m.selector.Update(lk.sel+i, true)
		}
	}
	for i := range m.components {
		m.components[i].pht.Update(lk.idx[i], taken)
	}
	if m.localPHT != nil {
		m.localPHT.Update(lk.idx[len(m.components)], taken)
		m.localHist.Push(pc, taken)
	}
	m.bimodal.Update(lk.idx[m.sources()-1], taken)
	m.ghr.Push(taken)
}

// StepBatch implements BatchStepper: one lookup per branch serves both the
// prediction and the training.
//
//bplint:hotpath fused-sweep multi-component lane; bit-identity pinned by TestStepBatchEquivalence
func (m *MultiComponent) StepBatch(pcs []uint64, takens []bool, measuredFrom int) int64 {
	var miss int64
	var lk mcLookup
	for i, pc := range pcs {
		taken := takens[i]
		m.lookup(pc, &lk)
		m.train(pc, taken, &lk)
		if lk.pred() != taken && i >= measuredFrom {
			miss++
		}
	}
	return miss
}

// SizeBytes implements Predictor.
func (m *MultiComponent) SizeBytes() int {
	size := m.bimodal.SizeBytes() + m.ghr.SizeBytes()
	if m.localPHT != nil {
		size += m.localPHT.SizeBytes() + m.localHist.SizeBytes()
	}
	for _, c := range m.components {
		size += c.pht.SizeBytes()
	}
	return size + m.selector.SizeBytes()
}

// Name implements Predictor.
func (m *MultiComponent) Name() string { return m.name }

// NumComponents returns the number of prediction sources including the
// bimodal one, exposed for the delay model (each is a separate table read).
func (m *MultiComponent) NumComponents() int { return m.sources() }

// LargestTable implements DelayFootprint: the two-level component PHTs are
// the largest arrays.
func (m *MultiComponent) LargestTable() (int, int) {
	c := m.components[0]
	return c.pht.SizeBytes(), c.pht.Len()
}
